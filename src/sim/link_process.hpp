#pragma once

// Link processes: the adversary that controls the unreliable edges (§2).
//
// The three classical adversary classes differ only in what information they
// may consult when choosing the round's G'-only edges:
//
//   oblivious        — nothing about the execution: it must be expressible as
//                      a function of (network, algorithm, problem, round,
//                      private coins), all fixed before round 0;
//   online adaptive  — additionally the execution history through r-1 and the
//                      node states at the start of r (via StateInspector),
//                      but NOT the round-r coins;
//   offline adaptive — additionally the actual round-r actions, as the
//                      round's transmitters and their messages (RoundActions;
//                      no per-node Action array: every other node listens).
//
// This hierarchy is enforced *by construction*: the engine invokes exactly
// one of the class-specific hooks below, passing only the arguments that
// class is entitled to. A subclass can only see what its declared class
// allows. (Tests verify the dispatch.)

#include <memory>

#include "graph/dual_graph.hpp"
#include "sim/edge_set.hpp"
#include "sim/history.hpp"
#include "sim/inspector.hpp"
#include "sim/kernel.hpp"
#include "sim/process.hpp"

namespace dualcast {

class Problem;

enum class AdversaryClass {
  oblivious,
  online_adaptive,
  offline_adaptive,
};

const char* to_string(AdversaryClass cls);

/// Everything an adversary is allowed to know before the execution begins:
/// the network topology, the algorithm (as its process factory — adversaries
/// may instantiate and privately simulate it), the problem instance, and the
/// round budget. Handed to every class at on_execution_start.
///
/// `kernel` instantiates the same algorithm as a batch kernel: fresh copies
/// of the execution's kernel (AlgorithmKernel::fresh), never the live one,
/// so it reveals no execution state. It is empty when the execution's
/// kernel offers no fresh copies; private simulations then run `factory`
/// through the scalar adapter.
struct ExecutionSetup {
  const DualGraph* net = nullptr;
  const ProcessFactory* factory = nullptr;
  KernelFactory kernel;
  const Problem* problem = nullptr;
  int max_rounds = 0;
};

/// The actions the nodes chose in the current round (offline adaptive only),
/// in the round record's sparse form: the transmitting node ids, ascending,
/// and the message each sent, index for index. Every other node listens.
struct RoundActions {
  const std::vector<int>* transmitters = nullptr;
  const std::vector<Message>* sent = nullptr;  ///< parallel to transmitters
};

class LinkProcess {
 public:
  virtual ~LinkProcess() = default;

  virtual AdversaryClass adversary_class() const = 0;

  /// Capability declaration: does this adversary actually *read* the
  /// ExecutionHistory it is handed? When every history consumer (adversary
  /// and problem) returns false, the engine may honor
  /// HistoryPolicy::lean and keep only O(n) running aggregates instead of
  /// the full O(rounds·n) trace. The default is conservative: adaptive
  /// classes are entitled to the history, so they claim it unless they
  /// override; oblivious adversaries never see it.
  virtual bool needs_history() const {
    return adversary_class() != AdversaryClass::oblivious;
  }

  /// Called once before round 0. `rng` is the adversary's private stream
  /// (independent of all node streams).
  virtual void on_execution_start(const ExecutionSetup& setup, Rng& rng);

  // The choose_* hooks fill a caller-provided EdgeSet instead of returning
  // one: the engine passes the same scratch object every round (its mask
  // buffer rotating through the round record), so an adversary that builds
  // a mask in place — out.begin_mask()/set_word()/finish_mask() — allocates
  // nothing in steady state.

  /// Oblivious hook: may depend only on the round number, the setup, and the
  /// adversary's private coins (all fixed before the execution).
  virtual void choose_oblivious(int round, Rng& rng, EdgeSet& out);

  /// Online adaptive hook: history through round-1 plus start-of-round state.
  virtual void choose_online(int round, const ExecutionHistory& history,
                             const StateInspector& inspector, Rng& rng,
                             EdgeSet& out);

  /// Offline adaptive hook: everything online gets, plus the round's actions.
  virtual void choose_offline(int round, const ExecutionHistory& history,
                              const StateInspector& inspector,
                              const RoundActions& actions, Rng& rng,
                              EdgeSet& out);
};

/// Factory signature so benches can instantiate a fresh adversary per trial.
using LinkProcessFactory = std::function<std::unique_ptr<LinkProcess>()>;

}  // namespace dualcast
