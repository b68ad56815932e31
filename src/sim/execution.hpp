#pragma once

// The synchronous execution engine for the dual graph model (§2).
//
// Round structure (enforcing each adversary class's information access):
//
//   1. online adaptive adversaries choose the round's G'-only edges first,
//      seeing history + start-of-round state but no round-r coins;
//   2. every process draws its action (transmit/listen) from its private
//      stream;
//   3. oblivious adversaries' choices are read from their precommitted
//      schedule (they never see any execution information); offline adaptive
//      adversaries choose now, seeing the drawn actions;
//   4. deliveries are resolved under the §2 receive rule: u receives m from v
//      iff u listens, v transmits m, and v is the *only* transmitter among
//      u's neighbors in G ∪ (selected G'-only edges). Silence and collision
//      are indistinguishable to processes (no collision detection);
//   5. feedback is delivered, the round is recorded, and the problem monitor
//      updates its solved state.
//
// The engine is deterministic: a master seed forks one stream per node plus
// one for the adversary, so identical configurations replay identically.

#include <memory>
#include <vector>

#include "graph/dual_graph.hpp"
#include "sim/delivery_resolver.hpp"
#include "sim/history.hpp"
#include "sim/link_process.hpp"
#include "sim/problem.hpp"
#include "sim/process.hpp"

namespace dualcast {

struct ExecutionConfig {
  std::uint64_t seed = 1;
  int max_rounds = 100000;
  /// Optional rewrite of each node's ProcessEnv before process creation.
  /// Used by isolated sub-simulations (Lemma 4.4) that run a fragment of a
  /// network but must present processes with their *original* identity
  /// (global id, n, Δ, role).
  std::function<ProcessEnv(ProcessEnv)> env_override;
  /// Model variant: listeners with >= 2 transmitting neighbors learn that a
  /// collision happened (RoundFeedback::collision). The paper's model is
  /// without collision detection — leave false to reproduce it.
  bool collision_detection = false;
  /// Requested history retention. `lean` is honored only when neither the
  /// link process nor the problem declares needs_history(); otherwise the
  /// engine silently falls back to `full` so adaptive adversaries always
  /// see the trace they are entitled to. Execution::history_policy()
  /// reports the effective choice.
  HistoryPolicy history_policy = HistoryPolicy::full;
  /// RNG stream discipline for the batch engine's kernels (see RngMode in
  /// util/rng.hpp). `per_node` is the byte-identical-parity default; `word`
  /// batches 64 coin flips per draw ladder on per-block streams. The scalar
  /// engine has no word path and ignores this field.
  RngMode rng_mode = RngMode::per_node;

  // Named-field construction, so call sites never depend on member order:
  //   ExecutionConfig{}.with_seed(7).with_max_rounds(4000)
  ExecutionConfig& with_seed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  ExecutionConfig& with_max_rounds(int rounds) {
    max_rounds = rounds;
    return *this;
  }
  ExecutionConfig& with_env_override(
      std::function<ProcessEnv(ProcessEnv)> fn) {
    env_override = std::move(fn);
    return *this;
  }
  ExecutionConfig& with_collision_detection(bool on) {
    collision_detection = on;
    return *this;
  }
  ExecutionConfig& with_history_policy(HistoryPolicy policy) {
    history_policy = policy;
    return *this;
  }
  ExecutionConfig& with_rng_mode(RngMode mode) {
    rng_mode = mode;
    return *this;
  }
};

/// Node v's environment as both engines present it: v's identity and the
/// network's n and Δ, the problem's roles for v, then config.env_override.
ProcessEnv node_env(const DualGraph& net, const Problem& problem,
                    const ExecutionConfig& config, int v);

struct RunResult {
  bool solved = false;
  /// Rounds executed: the 1-based round count at which the problem was
  /// solved, or max_rounds if it was not.
  int rounds = 0;
};

class Execution {
 public:
  /// The problem and link process are owned by the execution; the network
  /// must outlive it.
  Execution(const DualGraph& net, ProcessFactory factory,
            std::shared_ptr<Problem> problem,
            std::unique_ptr<LinkProcess> link_process, ExecutionConfig config);

  /// Executes one round. Requires !done().
  void step();

  /// Runs until the problem is solved or max_rounds is reached.
  RunResult run();

  bool solved() const { return solved_; }
  bool done() const { return solved_ || round_ >= config_.max_rounds; }
  /// Rounds executed so far.
  int round() const { return round_; }

  const ExecutionHistory& history() const { return history_; }
  /// The effective retention policy (after the needs_history() fallback).
  HistoryPolicy history_policy() const { return history_.policy(); }
  const Problem& problem() const { return *problem_; }
  const DualGraph& net() const { return *net_; }
  const StateInspector& inspector() const { return inspector_; }

  /// First round (0-based) in which each node successfully received any
  /// message; -1 if it never has.
  const std::vector<int>& first_receive_round() const {
    return first_receive_round_;
  }

  /// Access to a process, e.g. for algorithm-specific assertions in tests.
  const Process& process(int v) const;

 private:
  void select_edges_pre_actions();
  void select_edges_post_actions();

  const DualGraph* net_;
  std::shared_ptr<Problem> problem_;
  std::unique_ptr<LinkProcess> link_process_;
  ExecutionConfig config_;
  ProcessFactory factory_holder_;

  std::vector<std::unique_ptr<Process>> processes_;
  std::vector<Rng> node_rngs_;
  Rng adversary_rng_;
  StateInspector inspector_;
  ExecutionHistory history_;

  int round_ = 0;
  bool solved_ = false;
  std::vector<int> first_receive_round_;

  // Scratch buffers reused across rounds, so a steady-state step() performs
  // no allocations of its own (the stored RoundRecord under the full history
  // policy, and whatever the adversary allocates inside its choose_* hook,
  // are the only remaining per-round allocations).
  std::vector<RoundFeedback> feedback_;
  RoundRecord record_;
  /// tx_index_of_[v]: v's index into the round's transmitters/sent arrays,
  /// or -1 when v listens. Replaces both the `transmitting_` bitmap and the
  /// per-endpoint linear transmitter scans in the sparse-edge path.
  std::vector<int> tx_index_of_;
  /// The adversary's per-round choice, filled in place by the choose_*
  /// hooks. Its mask buffer rotates through record_.activated_mask (and,
  /// under lean history, the history's reusable last-record), so mask
  /// rounds allocate nothing in steady state.
  EdgeSet edges_;
  /// The §2 receive rule (CSR sweep / word-parallel bitmap / structured),
  /// shared with the batch engine; owns the per-round hear-count scratch.
  DeliveryResolver resolver_;
};

}  // namespace dualcast
