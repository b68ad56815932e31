#pragma once

// The batch execution engine: Execution's round structure (see
// execution.hpp — the five-step §2 round is identical, enforced in the
// same order) driven through an AlgorithmKernel instead of n Process
// objects.
//
// Differences from the scalar engine are strictly mechanical, and keep a
// round's cost in proportion to what the round does:
//
//   * actions are drawn by one on_round_batch call that appends
//     transmitters straight into the reusable round record; there is no
//     per-node Action array (offline adaptive adversaries read the record's
//     transmitters and messages);
//   * feedback is one on_feedback_batch call over the round's deliveries
//     (O(deliveries), not O(n));
//   * the engine counts the nodes holding a message: one has_message scan
//     at construction, then only the round's not-yet-counted receivers are
//     re-queried (the kernel's completion contract, kernel.hpp), so global
//     broadcast's solved check is O(1) per round;
//   * set-up is role-sparse: no per-node ProcessEnv array is built; the
//     kernel receives the environments of the nodes with a role and builds
//     any other on demand (KernelSetup);
//   * problems run through solved_batch()/NodeStateView unless the kernel
//     is the scalar adapter, in which case the real Process vector is used.
//
// RNG streams are forked exactly as in Execution (per-node streams in node
// order, then the adversary stream), and kernels contract to consume
// per-stream draws identically to their scalar algorithm — so a
// KernelExecution replays bit-identically against the scalar engine. The
// equivalence suite (tests/test_sim_kernel_engine.cpp and the catalog-wide
// scenario test) enforces this.

#include <memory>
#include <vector>

#include "graph/dual_graph.hpp"
#include "sim/delivery_resolver.hpp"
#include "sim/execution.hpp"
#include "sim/history.hpp"
#include "sim/kernel.hpp"
#include "sim/link_process.hpp"
#include "sim/problem.hpp"
#include "sim/process.hpp"
#include "util/bitset64.hpp"

namespace dualcast {

class KernelExecution {
 public:
  /// `factory` is the scalar process factory — handed to the adversary,
  /// which "knows the algorithm" (§2) and may privately simulate it, and
  /// used to build environments. `kernel` drives the nodes; pass the
  /// scalar adapter (make_scalar_kernel_adapter) for algorithms without a
  /// batch port. If the kernel has no backing processes, the problem must
  /// declare batch_compatible().
  KernelExecution(const DualGraph& net, ProcessFactory factory,
                  std::unique_ptr<AlgorithmKernel> kernel,
                  std::shared_ptr<Problem> problem,
                  std::unique_ptr<LinkProcess> link_process,
                  ExecutionConfig config);
  ~KernelExecution();

  void step();
  RunResult run();

  bool solved() const { return solved_; }
  bool done() const { return solved_ || round_ >= config_.max_rounds; }
  int round() const { return round_; }

  const ExecutionHistory& history() const { return history_; }
  HistoryPolicy history_policy() const { return history_.policy(); }
  const Problem& problem() const { return *problem_; }
  const DualGraph& net() const { return *net_; }
  const StateInspector& inspector() const { return inspector_; }
  const AlgorithmKernel& kernel() const { return *kernel_; }

  const std::vector<int>& first_receive_round() const {
    return first_receive_round_;
  }

  /// The number of nodes whose kernel has_message is true, kept
  /// incrementally (see the kernel's completion contract).
  int message_holders() const { return holders_; }

  /// Test/diagnostic hook: the engine's delivery resolver (force_path /
  /// last_path). Forcing a strategy changes performance only, never the
  /// delivery sets.
  DeliveryResolver& resolver() { return resolver_; }

 private:
  class KernelStateView;

  void select_edges_post_actions();
  bool problem_solved() const;

  const DualGraph* net_;
  std::shared_ptr<Problem> problem_;
  std::unique_ptr<LinkProcess> link_process_;
  ExecutionConfig config_;
  ProcessFactory factory_holder_;
  std::unique_ptr<AlgorithmKernel> kernel_;
  std::unique_ptr<KernelStateView> state_view_;

  std::vector<Rng> node_rngs_;
  std::vector<Rng> block_rngs_;  ///< word RNG mode: one per 64-node block
  Rng adversary_rng_;
  StateInspector inspector_;
  ExecutionHistory history_;

  int round_ = 0;
  bool solved_ = false;
  std::vector<int> first_receive_round_;
  int holders_ = 0;
  Bitset64 holder_bits_;  ///< nodes counted in holders_

  // Reusable per-round scratch (same zero-allocation contract as the
  // scalar engine).
  RoundRecord record_;
  std::vector<int> tx_index_of_;
  /// Adversary choice scratch; its mask buffer rotates through
  /// record_.activated_mask (see Execution::edges_).
  EdgeSet edges_;
  DeliveryResolver resolver_;
};

}  // namespace dualcast
