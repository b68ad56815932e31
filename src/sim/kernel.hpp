#pragma once

// The batch execution interface: one object drives all n nodes of an
// algorithm with two calls per round, replacing n virtual Process
// dispatches, n Action constructions, and n RoundFeedback deliveries.
//
//   on_round_batch    — append this round's transmitters (ascending node
//                       order, exactly the order the scalar adapter visits
//                       nodes) into the engine's reusable round record;
//   on_feedback_batch — consume the resolved round from flat arrays:
//                       deliveries (runs plus an explicit list), collision
//                       listeners, transmit flags.
//
// Kernels keep node state in structure-of-arrays form (counters, phase
// indices, has-message bits, per-node windows) and touch only the nodes
// that actually act in a round, so steady-state cost is O(actors), not
// O(n).
//
// RNG discipline — the bit-for-bit contract with the scalar algorithm: a
// kernel draws from the same per-node forked streams (`rngs[v]`) and must
// consume, for every node and round, exactly the draws the scalar
// algorithm's init/on_round/on_feedback would consume from that node's
// stream. Node streams are independent, so the order in which a kernel
// visits nodes within a round is free; the per-stream draw sequence is
// not. The engine verifies nothing here — the equivalence test suite does
// (tests/test_sim_kernel_engine.cpp runs each native kernel and the scalar
// adapter over its algorithm and compares whole histories).
//
// Any scalar ProcessFactory runs unmodified on the engine through
// make_scalar_kernel_adapter(); the adapter additionally exposes its
// Process vector so consumers that read processes (problems that inspect
// them, KernelExecution::process) keep working.
//
// Adversaries that privately re-run the algorithm get blank fresh() copies
// of the kernel (ExecutionSetup::kernel) when it offers them.

#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "graph/dual_graph.hpp"
#include "sim/history.hpp"
#include "sim/process.hpp"

namespace dualcast {

/// A node whose environment is not the default one (see KernelSetup).
struct NodeEnv {
  int node = -1;
  ProcessEnv env;
};

/// Everything a kernel sees at construction time: the network, what the
/// processes know of it, the nodes that start with a role, and the RNG
/// stream discipline for per-round coins.
///
/// Environments are role-sparse. Node v's environment is the default — id
/// v, `n`, `max_degree`, no source or broadcast-set role, initial_message
/// == Message{} — unless v is listed in `roles`, which carries the full
/// environment (env_override already applied) of every node that is a
/// source, a member of the broadcast set B, or starts with a message.
/// `env(v)` builds any node's exact environment on demand (an override may
/// also rewrite ids and sizes). `roles` and `env` are valid only during
/// init().
///
/// A kernel backed by processes (processes() != nullptr: the scalar
/// adapter) builds every node's Process from `env(v)` and reads nothing
/// else, so the engine builds no role environments for it: its `roles` is
/// empty and `n`/`max_degree` are the network's.
///
/// `rng_mode == word` offers kernels one extra stream per 64-node block
/// (`block_rngs[v / 64]`): a kernel that supports the mode draws its
/// per-round transmit coins word-parallel from the block streams
/// (bernoulli_pow2_mask / Pow2MaskLadder — same distribution, ~64/ladder
/// fewer draws), while everything else (init-time seed material, feedback)
/// stays on the per-node streams. Kernels without a word path simply keep
/// drawing per node — the modes then coincide. In per_node mode
/// `block_rngs` is empty and the byte-identical scalar-parity contract of
/// the header comment applies in full.
struct KernelSetup {
  const DualGraph* net = nullptr;
  /// ProcessEnv::n and ::max_degree as node 0's environment states them:
  /// the network's size and Δ unless an env_override rewrites them.
  int n = 0;
  int max_degree = 0;
  std::span<const NodeEnv> roles;  ///< ascending node order
  std::function<ProcessEnv(int)> env;
  RngMode rng_mode = RngMode::per_node;
  std::span<Rng> block_rngs;  ///< one per 64-node block; word mode only
};

/// Sink for a round's transmissions, writing straight into the engine's
/// reusable RoundRecord and tx-index map. Kernels must emit transmitters in
/// ascending node order (the scalar adapter's visit order).
class TxBatch {
 public:
  TxBatch(RoundRecord& record, std::vector<int>& tx_index_of)
      : record_(&record), tx_index_of_(&tx_index_of) {}

  void transmit(int v, Message message) {
    (*tx_index_of_)[static_cast<std::size_t>(v)] =
        static_cast<int>(record_->transmitters.size());
    record_->transmitters.push_back(v);
    record_->sent.push_back(std::move(message));
  }

 private:
  RoundRecord* record_;
  std::vector<int>* tx_index_of_;
};

/// The resolved round, handed to on_feedback_batch as flat arrays. Its
/// deliveries are the runs and the explicit list of the round's
/// RoundRecord (each receiver appears once across both): a kernel applies
/// a run a 64-node word at a time (for_each_run_word) or expands all of
/// them with for_each_delivery(view, fn).
struct FeedbackView {
  int round = 0;
  std::span<const Delivery> deliveries;  ///< the explicit deliveries
  std::span<const DeliveryRun> runs;     ///< ascending, disjoint
  std::span<const int> run_skips;        ///< ascending: run listeners that
                                         ///< collided
  std::span<const int> transmitters;     ///< ascending; never receive
  std::span<const Message> sent;         ///< indexed by transmitter_index
  std::span<const int> colliders;        ///< listeners with >= 2 contenders
                                         ///< (collision detection only)
  std::span<const int> tx_index_of;      ///< v transmitted iff [v] >= 0
};

/// Every delivery of the view's round, in for_each_delivery's order.
template <typename Fn>
void for_each_delivery(const FeedbackView& fb, Fn&& fn) {
  for_each_delivery(fb.runs, fb.run_skips, fb.transmitters, fb.deliveries,
                    fn);
}

class AlgorithmKernel {
 public:
  virtual ~AlgorithmKernel() = default;

  /// Called once before round 0. Must perform, per node, exactly the draws
  /// the scalar algorithm's init() performs on that node's stream.
  virtual void init(const KernelSetup& setup, std::span<Rng> rngs) = 0;

  /// Emits the round's transmissions (ascending node order) into `out`.
  virtual void on_round_batch(int round, TxBatch& out,
                              std::span<Rng> rngs) = 0;

  /// Consumes the resolved round.
  virtual void on_feedback_batch(const FeedbackView& feedback,
                                 std::span<Rng> rngs) = 0;

  /// Mirror of Process::has_message for node v.
  ///
  /// Completion contract: has_message(v) never turns false, and turns true
  /// only in init() for a node v listed in setup.roles, or in the
  /// on_feedback_batch() of a round in which v is a delivery receiver. The
  /// engine relies on it to count the holders among the role nodes after
  /// init() and then keep the count current by re-querying only each
  /// round's receivers. All built-in kernels meet it.
  virtual bool has_message(int v) const = 0;

  /// Mirror of InspectableProcess::transmit_probability for node v: the
  /// probability, given v's state at the start of `round`, that v will
  /// transmit. What adaptive adversaries condition on (Theorem 3.1).
  virtual double transmit_probability(int v, int round) const = 0;

  /// E[|X| | S] for the whole network: sum of transmit_probability over all
  /// nodes, the quantity online adaptive adversaries recompute every round.
  /// Kernels that can produce it in O(actors) — summing their non-zero
  /// contributors in ascending node order, which is bit-identical to the
  /// full 0..n-1 scan because adding 0.0 is exact — override this; the
  /// default returns a negative sentinel and the StateInspector falls back
  /// to the per-node scan.
  virtual double expected_transmitters(int /*round*/) const { return -1.0; }

  /// Non-null when the kernel is backed by real Process objects (the
  /// scalar compatibility adapter). Lets problems that predate the batch
  /// interface — Problem::batch_compatible() == false — keep working on
  /// the engine. A static property of the kernel: the engine reads it
  /// once, before init().
  virtual const std::vector<std::unique_ptr<Process>>* processes() const {
    return nullptr;
  }

  /// A new, uninitialised kernel of the same algorithm and configuration,
  /// or nullptr. Callers that privately re-run the algorithm (the bracelet
  /// pre-simulation) rewrite node ids and n through an env override, so a
  /// kernel returns one only if its transmitters follow the overridden
  /// environments exactly as its scalar algorithm's do; otherwise such
  /// callers use the scalar adapter.
  virtual std::unique_ptr<AlgorithmKernel> fresh() const { return nullptr; }
};

/// Creates the kernel for one execution (kernels are stateful; one per
/// trial, like the process vector they replace).
using KernelFactory = std::function<std::unique_ptr<AlgorithmKernel>()>;

/// Wraps a scalar ProcessFactory as a kernel: creates one Process per node
/// and forwards init/on_round/on_feedback node by node. No batch speedup —
/// full compatibility, the reference every native kernel is held to.
std::unique_ptr<AlgorithmKernel> make_scalar_kernel_adapter(
    ProcessFactory factory);

}  // namespace dualcast
