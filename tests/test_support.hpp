#pragma once

// Shared helpers for the test suite: scripted processes, one-call execution
// runners, median-over-seeds measurement, and an explicit dual-clique
// reference layer.

#include <memory>
#include <vector>

#include "analysis/stats.hpp"
#include "graph/graph.hpp"
#include "sim/kernel_execution.hpp"
#include "sim/problem.hpp"
#include "sim/process.hpp"

namespace dualcast::testing {

/// A process driven by an explicit per-round script: transmit in round r iff
/// script[r] is true (clamped to listen after the script ends). Useful for
/// exercising exact collision scenarios.
class ScriptedProcess final : public InspectableProcess {
 public:
  explicit ScriptedProcess(std::vector<char> script)
      : script_(std::move(script)) {}

  Action on_round(int round, Rng& /*rng*/) override {
    if (round < static_cast<int>(script_.size()) &&
        script_[static_cast<std::size_t>(round)]) {
      Message m;
      m.source = env_.id;
      m.payload = static_cast<std::uint64_t>(env_.id);
      return Action::send(m);
    }
    return Action::listen();
  }

  void on_feedback(int /*round*/, const RoundFeedback& feedback,
                   Rng& /*rng*/) override {
    feedback_.push_back(feedback);
  }

  double transmit_probability(int round) const override {
    return (round < static_cast<int>(script_.size()) &&
            script_[static_cast<std::size_t>(round)])
               ? 1.0
               : 0.0;
  }

  const std::vector<RoundFeedback>& feedback() const { return feedback_; }

 private:
  std::vector<char> script_;
  std::vector<RoundFeedback> feedback_;
};

/// Factory for scripted processes: scripts[v] drives node v.
inline ProcessFactory scripted_factory(std::vector<std::vector<char>> scripts) {
  auto shared = std::make_shared<std::vector<std::vector<char>>>(
      std::move(scripts));
  return [shared](const ProcessEnv& env) {
    return std::make_unique<ScriptedProcess>(
        (*shared)[static_cast<std::size_t>(env.id)]);
  };
}

/// Runs global broadcast and returns the result.
inline RunResult run_global(const DualGraph& net, ProcessFactory factory,
                            std::unique_ptr<LinkProcess> adversary, int source,
                            std::uint64_t seed, int max_rounds) {
  KernelExecution exec(net, std::move(factory),
                       std::make_shared<GlobalBroadcastProblem>(net, source),
                       std::move(adversary),
                       ExecutionConfig{seed, max_rounds, {}});
  return exec.run();
}

/// Runs local broadcast and returns the result.
inline RunResult run_local(const DualGraph& net, ProcessFactory factory,
                           std::unique_ptr<LinkProcess> adversary,
                           std::vector<int> broadcast_set, std::uint64_t seed,
                           int max_rounds,
                           ReceiverCredit credit = ReceiverCredit::any_b_sender) {
  KernelExecution exec(net, std::move(factory),
                       std::make_shared<LocalBroadcastProblem>(
                           net, std::move(broadcast_set), credit),
                       std::move(adversary),
                       ExecutionConfig{seed, max_rounds, {}});
  return exec.run();
}

/// The dual clique's reliable layer built edge by edge: cliques on
/// [0, n/2) and [n/2, n), plus the bridge (bridge_index, n/2 + bridge_index)
/// unless bridge_index < 0. The explicit reference the implicit dual
/// cliques are checked against.
inline Graph two_cliques_graph(int n, int bridge_index) {
  const int half = n / 2;
  Graph g(n);
  for (int u = 0; u < half; ++u) {
    for (int v = u + 1; v < half; ++v) {
      g.add_edge(u, v);
      g.add_edge(half + u, half + v);
    }
  }
  if (bridge_index >= 0) g.add_edge(bridge_index, half + bridge_index);
  g.finalize();
  return g;
}

/// A round's deliveries, runs expanded, in for_each_delivery's order.
inline std::vector<Delivery> all_deliveries(const RoundRecord& record) {
  std::vector<Delivery> out;
  for_each_delivery(record, [&](const Delivery& d) { out.push_back(d); });
  return out;
}

/// Median rounds over `trials` seeds; failed runs are counted as max_rounds
/// (censoring keeps medians meaningful when a few runs time out).
template <typename RunOnce>
double median_rounds(int trials, std::uint64_t base_seed, int max_rounds,
                     RunOnce run_once) {
  std::vector<double> rounds;
  rounds.reserve(static_cast<std::size_t>(trials));
  for (int i = 0; i < trials; ++i) {
    const RunResult result = run_once(base_seed + static_cast<std::uint64_t>(i));
    rounds.push_back(result.solved ? static_cast<double>(result.rounds)
                                   : static_cast<double>(max_rounds));
  }
  return quantile(rounds, 0.5);
}

}  // namespace dualcast::testing
