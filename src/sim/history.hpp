#pragma once

// The execution history: the per-round record of externally observable
// events.
// This is the "execution history through round r-1" that §2 grants to
// adaptive link processes, and it doubles as the trace used by tests,
// benches, and diagnostics.
//
// Two storage policies:
//
//   full — every RoundRecord is retained (O(rounds · n) memory). Required
//          when anything reads the per-round trace: adaptive adversaries
//          that declare needs_history(), tests, diagnostics.
//   lean — only running aggregates (round count, transmission/delivery
//          totals) plus the most recent record are retained, so memory is
//          O(n) no matter how many rounds execute. The engine selects lean
//          only when it can prove nobody reads the trace (see
//          ExecutionConfig::history_policy and needs_history()).
//
// In both policies the aggregate counters are maintained incrementally, so
// total_transmissions()/total_deliveries() are O(1).

#include <cstddef>
#include <vector>

#include "sim/edge_set.hpp"
#include "sim/message.hpp"

namespace dualcast {

/// One successful delivery: `receiver` heard `sender`'s message.
struct Delivery {
  int receiver = -1;
  int sender = -1;
  /// Index into the round's `transmitters`/`sent` arrays.
  int transmitter_index = -1;
};

/// Everything observable about one round.
struct RoundRecord {
  std::vector<int> transmitters;   ///< node ids that transmitted
  std::vector<Message> sent;       ///< parallel to `transmitters`
  std::vector<Delivery> deliveries;
  EdgeSet::Kind activated = EdgeSet::Kind::none;  ///< adversary's choice kind
  std::int64_t activated_count = 0;  ///< number of G'-only edges activated
  /// Exact activated edge set when activated == Kind::mask, as the
  /// EdgeSet's blocked words over the G'-only edge index space (for `none`
  /// and `all` the set is implicit, and the vector's contents are
  /// unspecified scratch — the engine only swaps fresh words in on mask
  /// rounds). Lets tests recompute deliveries from first principles;
  /// iterate with for_each_mask_bit, gated on the kind.
  std::vector<std::uint64_t> activated_mask;

  /// Resets to an empty record while keeping vector capacity, so the engine
  /// can refill the same buffers round after round without allocating.
  /// activated_mask keeps its *size* too (not just capacity): the sized
  /// buffer rotates back to the adversary's EdgeSet, whose
  /// begin_mask_overwrite then skips the O(words) refill; the kind field
  /// gates every read of it.
  void clear() {
    transmitters.clear();
    sent.clear();
    deliveries.clear();
    activated = EdgeSet::Kind::none;
    activated_count = 0;
  }
};

/// History retention policy (see file comment).
enum class HistoryPolicy : std::uint8_t { full, lean };

const char* to_string(HistoryPolicy policy);

class ExecutionHistory {
 public:
  ExecutionHistory() = default;

  /// Drops all stored state and switches policy. The engine calls this once
  /// before round 0.
  void reset(HistoryPolicy policy);

  HistoryPolicy policy() const { return policy_; }
  int rounds() const { return rounds_; }

  /// Per-round access; requires the full policy (lean keeps no trace).
  const RoundRecord& round(int r) const;
  const std::vector<RoundRecord>& records() const;

  /// The most recent record. Available under both policies; requires
  /// rounds() >= 1.
  const RoundRecord& last() const;

  /// Total transmissions across all rounds. O(1).
  std::int64_t total_transmissions() const { return total_transmissions_; }
  /// Total successful deliveries across all rounds. O(1).
  std::int64_t total_deliveries() const { return total_deliveries_; }

  /// Appends a record (copy/move-in form, for tests and non-hot-path use).
  void push(RoundRecord record);

  /// Hot-path append: consumes `record` by swap. On return `record` is
  /// cleared but retains usable buffer capacity — under the lean policy it
  /// holds the previous round's buffers, so a steady-state engine loop
  /// allocates nothing. Under lean the history itself stays O(n): only the
  /// aggregates and the latest record are kept, regardless of round count.
  void push_reuse(RoundRecord& record);

  /// Approximate heap footprint of the stored trace, in bytes. The lean
  /// policy's O(n) memory guarantee is asserted against this in tests.
  std::size_t approx_bytes() const;

 private:
  HistoryPolicy policy_ = HistoryPolicy::full;
  int rounds_ = 0;
  std::int64_t total_transmissions_ = 0;
  std::int64_t total_deliveries_ = 0;
  std::vector<RoundRecord> records_;  ///< full policy only
  RoundRecord last_;                  ///< lean policy only
};

}  // namespace dualcast
