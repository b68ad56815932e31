#pragma once

// k-gossip (rumor spreading) in the dual graph model — the first problem the
// paper's conclusion names as future work ("it remains an interesting open
// question to explore other problems — such as rumor spreading ...").
//
// k designated sources each hold a distinct token; the problem is solved
// when every node holds every token. This is the natural k-message
// generalization of global broadcast (k = 1 degenerates to it), and it
// exercises a new difficulty: holders must *choose which token to offer*
// each round, so token scheduling interacts with the collision rule.
//
// GossipBroadcast is a decay-style solution: a node holding tokens uses the
// {1/2 ... 2^-clog2(n)} probability ladder to decide *whether* to transmit
// (fixed or privately permuted index, as in local decay), and round-robins
// its held set to decide *what* (offering the token it has relayed least,
// oldest first — a fair scheduler that guarantees every held token keeps
// circulating). Against oblivious adversaries each token behaves like a
// decay broadcast thinned by the holder's token count, giving
// O(k · polylog) style behavior (measured by `dualcast_bench ext/gossip`).

#include <vector>

#include "core/decay_schedule.hpp"
#include "sim/problem.hpp"
#include "sim/process.hpp"

namespace dualcast {

/// Problem: token t (0-based) starts at sources[t]; solved when every node
/// has received (or started with) all k tokens. Token identity travels in
/// Message::payload.
class GossipProblem final : public Problem {
 public:
  /// Requires non-empty `sources` with valid, not-necessarily-distinct node
  /// ids and a connected G.
  GossipProblem(const DualGraph& net, std::vector<int> sources);

  std::string name() const override;
  bool in_broadcast_set(int v) const override;
  Message initial_message(int v) const override;
  std::vector<int> role_nodes(int /*n*/) const override { return roles_; }
  void observe_round(const RoundRecord& record,
                     const std::vector<std::unique_ptr<Process>>& procs) override;
  bool solved(const std::vector<std::unique_ptr<Process>>& procs) const override;
  bool batch_compatible() const override { return true; }
  bool solved_batch(const NodeStateView&) const override {
    return missing_ == 0;
  }

  int tokens() const { return static_cast<int>(sources_.size()); }
  /// Number of (node, token) pairs still missing.
  std::int64_t missing() const { return missing_; }
  /// True iff node v has token t (by the monitor's accounting).
  bool knows(int v, int token) const;

 private:
  std::vector<int> sources_;
  std::vector<int> roles_;  ///< the distinct sources, ascending
  int n_ = 0;
  std::vector<char> known_;  // n x k, row-major
  std::int64_t missing_ = 0;
};

struct GossipConfig {
  /// `fixed` keeps all holders on a *common* ladder index each round — the
  /// coordination Lemma 4.2 needs: globally sparse rounds exist, so a token
  /// whose only holder must transmit alone eventually does. `permuted` draws
  /// *private* per-node indices: schedule-unpredictable, but uncoordinated —
  /// on high-degree graphs the aggregate transmitter count never thins and
  /// rare tokens can stall (measured in the test suite; this is exactly the
  /// phenomenon that drives the paper's shared-bits designs in §4.1/§4.3).
  /// Use `permuted` only on bounded-degree topologies.
  ScheduleKind schedule = ScheduleKind::fixed;
  /// Transmit-probability ladder depth; 0 means clog2(n).
  int ladder = 0;
  /// Private permutation bits (permuted schedule); 0 = derived.
  int seed_bits = 0;
  /// Quiescing extension (registered as "gossip(quiesce)"): a holder
  /// retires a token after *offering* (transmitting) it quiesce_calls
  /// times, and falls silent once every held token is retired. This is the
  /// fix for the ext/gossip-k saturation note (k >= 2 makes every clique
  /// node relay every token forever, so the bridge endpoint must out-shout
  /// its whole side): total transmissions per node are bounded by
  /// k * quiesce_calls, so steady-state contention drains to zero, while
  /// each fresh receiver re-arms the token with its own budget and keeps it
  /// moving. Budgeting offers rather than rounds makes the retirement
  /// adapt to contention and to the token rotation (a holder juggling many
  /// tokens spends each budget more slowly) — a round-windowed variant
  /// strands tokens whose window lapses before a quiet slot, measurably so
  /// even on lines.
  bool quiesce = false;
  /// Offers a holder spends per token before retiring it; 0 = derived
  /// (4 * ladder — the expected transmission count of a windowed Decay
  /// call budget, see DecayGlobalConfig::calls).
  int quiesce_calls = 0;
};

class GossipBroadcast final : public InspectableProcess {
 public:
  explicit GossipBroadcast(GossipConfig config);

  void init(const ProcessEnv& env, Rng& rng) override;
  Action on_round(int round, Rng& rng) override;
  void on_feedback(int round, const RoundFeedback& feedback, Rng& rng) override;
  bool has_message() const override { return !held_.empty(); }
  double transmit_probability(int round) const override;

  /// Tokens currently held (sorted by acquisition order).
  const std::vector<Message>& held() const { return held_; }

 private:
  int schedule_index(int round) const;
  void acquire(const Message& message);
  /// Live = still offered: unlimited budget, or offers remaining.
  bool token_active(std::size_t i) const {
    return offers_left_[i] != 0;  // -1 (no quiescing) stays active forever
  }
  /// Indices into held_ of the tokens still offered (all of them unless
  /// quiescing).
  void active_tokens(std::vector<std::size_t>& out) const;

  GossipConfig config_;
  int ladder_ = 0;
  int offer_budget_ = -1;  ///< per-token offer budget; -1 = unbounded
  std::vector<Message> held_;
  std::vector<int> offers_left_;  ///< per held token; -1 = unbounded
  std::vector<std::uint64_t> seen_tokens_;
  std::size_t next_offer_ = 0;
  BitString private_bits_;
  std::vector<std::size_t> active_scratch_;
};

/// Factory for plugging GossipBroadcast into a KernelExecution.
ProcessFactory gossip_factory(GossipConfig config = {});

}  // namespace dualcast
