#pragma once

// The execution history: the per-round record of externally observable
// events.
// This is the "execution history through round r-1" that §2 grants to
// adaptive link processes, and it doubles as the trace used by tests,
// benches, and diagnostics.
//
// Two storage policies:
//
//   full — every RoundRecord is retained. A record grows with what its
//          round did (transmitters, explicit deliveries, mask words), not
//          with n: a lone sender's whole clique side is one DeliveryRun.
//          Required when anything reads the per-round trace: adaptive
//          adversaries that declare needs_history(), tests, diagnostics.
//   lean — only running aggregates (round count, transmission/delivery
//          totals) plus the most recent record are retained, so memory is
//          O(n) no matter how many rounds execute. The engine selects lean
//          only when it can prove nobody reads the trace (see
//          ExecutionConfig::history_policy and needs_history()).
//
// In both policies the aggregate counters are maintained incrementally, so
// total_transmissions()/total_deliveries() are O(1).

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "sim/edge_set.hpp"
#include "sim/message.hpp"
#include "util/bitset64.hpp"

namespace dualcast {

/// One successful delivery: `receiver` heard `sender`'s message.
struct Delivery {
  int receiver = -1;
  int sender = -1;
  /// Index into the round's `transmitters`/`sent` arrays.
  int transmitter_index = -1;
};

/// One sender heard by a whole node range: every node of [lo, hi) that
/// neither transmitted nor collided (RoundRecord::run_skips) received
/// `sender`'s message. The resolver records one when a transmitter is
/// alone on a clique side, or on K_n.
struct DeliveryRun {
  int lo = 0;
  int hi = 0;
  int sender = -1;
  /// Index into the round's `transmitters`/`sent` arrays.
  int transmitter_index = -1;
  /// The deliveries the run stands for: hi - lo minus its transmitters
  /// and skips.
  int count = 0;
};

/// Everything observable about one round.
///
/// A round's deliveries are its runs followed by the explicit list; read
/// them through for_each_delivery(), which yields one sequence.
struct RoundRecord {
  std::vector<int> transmitters;   ///< node ids that transmitted, ascending
  std::vector<Message> sent;       ///< parallel to `transmitters`
  std::vector<Delivery> deliveries;  ///< the explicit deliveries
  std::vector<DeliveryRun> runs;   ///< ascending and disjoint; at most one
                                   ///< per clique side
  /// Ascending: the listeners inside a run that collided (heard the bridge
  /// or a mask edge besides the run's sender), so received nothing.
  std::vector<int> run_skips;
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
    runs.clear();
    run_skips.clear();
    activated = EdgeSet::Kind::none;
    activated_count = 0;
  }
};

/// Visits a run's receivers a 64-node word at a time, ascending:
/// fn(block, bits), where bit j of `bits` is node block * 64 + j, and every
/// block with a receiver is visited once. `transmitters` and `skips` are
/// ascending; the walk merges them in rather than testing each node.
template <typename Fn>
void for_each_run_word(const DeliveryRun& run,
                       std::span<const int> transmitters,
                       std::span<const int> skips, Fn&& fn) {
  auto tx = std::lower_bound(transmitters.begin(), transmitters.end(), run.lo);
  auto skip = std::lower_bound(skips.begin(), skips.end(), run.lo);
  for (int base = run.lo - run.lo % 64; base < run.hi; base += 64) {
    std::uint64_t bits = ~std::uint64_t{0};
    if (base < run.lo) bits <<= run.lo - base;
    if (run.hi - base < 64) {
      bits &= (std::uint64_t{1} << (run.hi - base)) - 1;
    }
    for (; tx != transmitters.end() && *tx < base + 64; ++tx) {
      bits &= ~(std::uint64_t{1} << (*tx - base));
    }
    for (; skip != skips.end() && *skip < base + 64; ++skip) {
      bits &= ~(std::uint64_t{1} << (*skip - base));
    }
    if (bits != 0) fn(base / 64, bits);
  }
}

/// Visits every delivery of a round, one Delivery at a time: each run's
/// receivers ascending, then the explicit list. This is the order the
/// resolver's deliveries had as one list, before runs: side A, side B,
/// then the listeners only the bridge or the mask reached.
template <typename Fn>
void for_each_delivery(std::span<const DeliveryRun> runs,
                       std::span<const int> run_skips,
                       std::span<const int> transmitters,
                       std::span<const Delivery> deliveries, Fn&& fn) {
  for (const DeliveryRun& run : runs) {
    const auto expand = [&](int block, std::uint64_t bits) {
      for_each_bit(bits, block * 64, [&](int u, std::uint64_t) {
        fn(Delivery{u, run.sender, run.transmitter_index});
      });
    };
    for_each_run_word(run, transmitters, run_skips, expand);
  }
  for (const Delivery& d : deliveries) fn(d);
}

template <typename Fn>
void for_each_delivery(const RoundRecord& record, Fn&& fn) {
  for_each_delivery(record.runs, record.run_skips, record.transmitters,
                    record.deliveries, fn);
}

/// The number of deliveries in `record`: its runs' counts plus the
/// explicit list. O(runs).
std::int64_t delivery_count(const RoundRecord& record);

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
