#pragma once

// The synchronous execution engine for the dual graph model (§2).
//
// Round structure (enforcing each adversary class's information access):
//
//   1. online adaptive adversaries choose the round's G'-only edges first,
//      seeing history + start-of-round state but no round-r coins;
//   2. the algorithm kernel draws every node's action (transmit/listen)
//      from the node's private stream, appending the transmitters straight
//      into the reusable round record;
//   3. oblivious adversaries' choices are read from their precommitted
//      schedule (they never see any execution information); offline adaptive
//      adversaries choose now, seeing the round's transmitters and messages;
//   4. deliveries are resolved under the §2 receive rule: u receives m from v
//      iff u listens, v transmits m, and v is the *only* transmitter among
//      u's neighbors in G ∪ (selected G'-only edges). Silence and collision
//      are indistinguishable to processes (no collision detection);
//   5. feedback is delivered, the round is recorded, and the problem monitor
//      updates its solved state.
//
// The nodes are driven through an AlgorithmKernel (kernel.hpp): a native
// batch port of the algorithm, or make_scalar_kernel_adapter() around any
// ProcessFactory — the adapter runs n Process objects with the per-node
// loops and draws of the scalar model, and the native kernels contract to
// replay it bit for bit. The constructor without a kernel argument runs
// the factory through the adapter. A round's cost follows what the round
// does:
//
//   * there is no per-node Action array (offline adaptive adversaries read
//     the record's transmitters and messages);
//   * feedback is one on_feedback_batch call over the round's deliveries,
//     where a lone sender's whole clique side is one run (history.hpp);
//   * the engine counts the nodes holding a message: at construction it
//     asks the role nodes only, then only the round's not-yet-counted
//     receivers are re-queried (the kernel's completion contract,
//     kernel.hpp), a run's a 64-node word at a time, so global broadcast's
//     solved check is O(1) per round and a run that reaches nobody new
//     costs O(n / 64);
//   * set-up is role-sparse: no per-node ProcessEnv array is built; a
//     native kernel receives the environments of the nodes with a role,
//     which the problem lists (Problem::role_nodes; every node is asked
//     only under an env_override), and builds any other on demand
//     (KernelSetup). Beyond that, set-up costs the n node-stream forks
//     and the n-sized arrays; past n = 21845 the arrays an execution frees
//     stay mapped for the next one of its size, which takes them without
//     page faults (glibc's allocator thresholds, raised once per size in
//     the constructor);
//   * problems run through solved_batch()/NodeStateView unless the kernel
//     is the scalar adapter, in which case the real Process vector is used.
//
// The engine is deterministic: a master seed forks one stream per node
// (inline arithmetic, util/rng.hpp, since every trial forks n of them)
// plus one for the adversary, so identical configurations replay
// identically.
// The equivalence suite (tests/test_sim_kernel_engine.cpp and the
// catalog-wide scenario test) holds native kernels to the adapter's runs.

#include <functional>
#include <memory>
#include <vector>

#include "graph/dual_graph.hpp"
#include "sim/delivery_resolver.hpp"
#include "sim/history.hpp"
#include "sim/kernel.hpp"
#include "sim/link_process.hpp"
#include "sim/problem.hpp"
#include "sim/process.hpp"
#include "util/bitset64.hpp"

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
  /// see the trace they are entitled to. KernelExecution::history_policy()
  /// reports the effective choice.
  HistoryPolicy history_policy = HistoryPolicy::full;
  /// RNG stream discipline for the kernels (see RngMode in util/rng.hpp).
  /// `per_node` is the byte-identical-parity default; `word` batches 64
  /// coin flips per draw ladder on per-block streams. The scalar adapter
  /// has no word path and draws per node in either mode.
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

/// Node v's environment as the engine presents it: v's identity and the
/// network's n and Δ, the problem's roles for v, then config.env_override.
ProcessEnv node_env(const DualGraph& net, const Problem& problem,
                    const ExecutionConfig& config, int v);

struct RunResult {
  bool solved = false;
  /// Rounds executed: the 1-based round count at which the problem was
  /// solved, or max_rounds if it was not.
  int rounds = 0;
};

class KernelExecution {
 public:
  /// `factory` is the scalar process factory — handed to the adversary,
  /// which "knows the algorithm" (§2) and may privately simulate it, and
  /// used to build environments. `kernel` drives the nodes; pass the
  /// scalar adapter (make_scalar_kernel_adapter) for algorithms without a
  /// batch port. If the kernel has no backing processes, the problem must
  /// declare batch_compatible(). The problem and link process are owned by
  /// the execution; the network must outlive it.
  KernelExecution(const DualGraph& net, ProcessFactory factory,
                  std::unique_ptr<AlgorithmKernel> kernel,
                  std::shared_ptr<Problem> problem,
                  std::unique_ptr<LinkProcess> link_process,
                  ExecutionConfig config);
  /// Runs `factory` through the scalar adapter.
  KernelExecution(const DualGraph& net, ProcessFactory factory,
                  std::shared_ptr<Problem> problem,
                  std::unique_ptr<LinkProcess> link_process,
                  ExecutionConfig config);
  ~KernelExecution();

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
  const AlgorithmKernel& kernel() const { return *kernel_; }

  /// First round (0-based) in which each node successfully received any
  /// message; -1 if it never has.
  const std::vector<int>& first_receive_round() const {
    return first_receive_round_;
  }

  /// Node v's process, e.g. for algorithm-specific assertions in tests.
  /// Requires a kernel backed by processes (the scalar adapter).
  const Process& process(int v) const;

  /// The number of nodes whose kernel has_message is true: kept
  /// incrementally for native kernels (see the kernel's completion
  /// contract), counted on demand for the scalar adapter, whose problems
  /// read its processes instead.
  int message_holders() const;

  /// Test/diagnostic hook: the engine's delivery resolver (force_path /
  /// last_path). Forcing a strategy changes performance only, never the
  /// delivery sets.
  DeliveryResolver& resolver() { return resolver_; }

 private:
  /// NodeStateView over the kernel, for batch-compatible problems.
  class KernelStateView final : public NodeStateView {
   public:
    explicit KernelStateView(const KernelExecution* exec) : exec_(exec) {}
    int n() const override { return exec_->net_->n(); }
    bool has_message(int v) const override {
      return exec_->kernel_->has_message(v);
    }
    int message_holders() const override { return exec_->holders_; }

   private:
    const KernelExecution* exec_;
  };

  void select_edges_post_actions();
  bool problem_solved() const;

  const DualGraph* net_;
  std::shared_ptr<Problem> problem_;
  std::unique_ptr<LinkProcess> link_process_;
  ExecutionConfig config_;
  ProcessFactory factory_holder_;
  std::unique_ptr<AlgorithmKernel> kernel_;
  /// The kernel's Process vector when it has one (the scalar adapter).
  const std::vector<std::unique_ptr<Process>>* processes_ = nullptr;
  KernelStateView state_view_{this};

  std::vector<Rng> node_rngs_;
  std::vector<Rng> block_rngs_;  ///< word RNG mode: one per 64-node block
  Rng adversary_rng_;
  StateInspector inspector_;
  ExecutionHistory history_;

  int round_ = 0;
  bool solved_ = false;
  std::vector<int> first_receive_round_;
  Bitset64 received_;     ///< first_receive_round_[v] >= 0
  int holders_ = 0;        ///< native kernels only
  Bitset64 holder_bits_;  ///< nodes counted in holders_

  // Scratch buffers reused across rounds, so a steady-state step() performs
  // no allocations of its own (the stored RoundRecord under the full history
  // policy, and whatever the adversary allocates inside its choose_* hook,
  // are the only remaining per-round allocations).
  RoundRecord record_;
  /// tx_index_of_[v]: v's index into the round's transmitters/sent arrays,
  /// or -1 when v listens.
  std::vector<int> tx_index_of_;
  /// The adversary's per-round choice, filled in place by the choose_*
  /// hooks. Its mask buffer rotates through record_.activated_mask (and,
  /// under lean history, the history's reusable last-record), so mask
  /// rounds allocate nothing in steady state.
  EdgeSet edges_;
  /// The §2 receive rule (LayerView sweep / structured); owns the
  /// per-round hear-count scratch.
  DeliveryResolver resolver_;
};

}  // namespace dualcast
