// RoundRobinBroadcast: the deterministic O(n)/O(nD) upper bound that no
// adversary class can defeat.

#include <gtest/gtest.h>

#include "adversary/dense_sparse.hpp"
#include "adversary/offline_collider.hpp"
#include "adversary/static_adversaries.hpp"
#include "core/factories.hpp"
#include "graph/generators.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"

namespace dualcast {
namespace {

using testing::run_global;
using testing::run_local;

TEST(RoundRobin, TransmitsOnlyInOwnSlot) {
  const DualGraph net = DualGraph::protocol(complete_graph(8));
  KernelExecution exec(net, round_robin_factory(RoundRobinConfig{true}),
                       std::make_shared<GlobalBroadcastProblem>(net, 3),
                       std::make_unique<NoExtraEdges>(), {1, 64, {}});
  exec.run();
  for (int r = 0; r < exec.history().rounds(); ++r) {
    for (const int v : exec.history().round(r).transmitters) {
      EXPECT_EQ(r % 8, v) << "node " << v << " outside its slot in round " << r;
    }
  }
}

TEST(RoundRobin, AtMostOneTransmitterPerRound) {
  const DualCliqueNet dc = dual_clique(16);
  KernelExecution exec(dc.net, round_robin_factory(RoundRobinConfig{true}),
                       std::make_shared<GlobalBroadcastProblem>(dc.net, 0),
                       std::make_unique<GreedyColliderOffline>(), {1, 400, {}});
  exec.run();
  for (const auto& rec : exec.history().records()) {
    EXPECT_LE(rec.transmitters.size(), 1u);
  }
}

class RoundRobinAdversaryParam : public ::testing::TestWithParam<int> {};

std::unique_ptr<LinkProcess> adversary_by_id(int id) {
  switch (id) {
    case 0: return std::make_unique<NoExtraEdges>();
    case 1: return std::make_unique<AllExtraEdges>();
    case 2: return std::make_unique<RandomIidEdges>(0.5);
    case 3: return std::make_unique<GreedyColliderOffline>();
    case 4: return std::make_unique<DenseSparseOnline>(DenseSparseConfig{});
  }
  return nullptr;
}

TEST_P(RoundRobinAdversaryParam, GlobalSolvesOnDualCliqueInLinearRounds) {
  // Constant diameter: relay round robin crosses the bridge within ~3 passes
  // regardless of adversary class (no collisions are ever possible).
  const int n = 32;
  const DualCliqueNet dc = dual_clique(n, /*bridge_index=*/5);
  const RunResult result =
      run_global(dc.net, round_robin_factory(RoundRobinConfig{true}),
                 adversary_by_id(GetParam()), /*source=*/2, /*seed=*/7,
                 /*max_rounds=*/4 * n);
  EXPECT_TRUE(result.solved) << "adversary " << GetParam();
  EXPECT_LE(result.rounds, 3 * n);
}

TEST_P(RoundRobinAdversaryParam, LocalSolvesWithinOnePass) {
  // Every B node broadcasts alone once within n rounds; all receivers in R
  // are then served — against any adversary.
  const int n = 24;
  const DualCliqueNet dc = dual_clique(n);
  const RunResult result =
      run_local(dc.net, round_robin_factory(RoundRobinConfig{false}),
                adversary_by_id(GetParam()), dc.side_a, /*seed=*/9,
                /*max_rounds=*/2 * n);
  EXPECT_TRUE(result.solved) << "adversary " << GetParam();
  EXPECT_LE(result.rounds, n);
}

INSTANTIATE_TEST_SUITE_P(AllAdversaryClasses, RoundRobinAdversaryParam,
                         ::testing::Values(0, 1, 2, 3, 4));

TEST(RoundRobin, GlobalOnLineTakesAboutNPerHop) {
  const int n = 16;
  const DualGraph net = DualGraph::protocol(line_graph(n));
  const RunResult result =
      run_global(net, round_robin_factory(RoundRobinConfig{true}),
                 std::make_unique<NoExtraEdges>(), /*source=*/0, /*seed=*/3,
                 /*max_rounds=*/2 * n * n);
  ASSERT_TRUE(result.solved);
  // The message advances at least one hop per pass; with ids ordered along
  // the line it advances one hop per round after the first slot.
  EXPECT_LE(result.rounds, n * n);
  EXPECT_GE(result.rounds, n - 1);
}

TEST(RoundRobin, NonRelayNodesStaySilent) {
  const DualGraph net = DualGraph::protocol(line_graph(6));
  KernelExecution exec(net, round_robin_factory(RoundRobinConfig{false}),
                       std::make_shared<LocalBroadcastProblem>(
                           net, std::vector<int>{2}),
                       std::make_unique<NoExtraEdges>(), {1, 30, {}});
  exec.run();
  for (const auto& rec : exec.history().records()) {
    for (const int v : rec.transmitters) EXPECT_EQ(v, 2);
  }
}

TEST(RoundRobin, DeterministicInspectorPredictions) {
  // Round robin is deterministic: the inspector's announced probabilities
  // are exactly 0 or 1 and match realized behavior.
  const DualCliqueNet dc = dual_clique(12);
  KernelExecution exec(dc.net, round_robin_factory(RoundRobinConfig{true}),
                       std::make_shared<GlobalBroadcastProblem>(dc.net, 0),
                       std::make_unique<DenseSparseOnline>(DenseSparseConfig{}),
                       {1, 100, {}});
  while (!exec.done()) {
    const int r = exec.round();
    std::vector<double> probs(static_cast<std::size_t>(dc.net.n()));
    for (int v = 0; v < dc.net.n(); ++v) {
      probs[static_cast<std::size_t>(v)] =
          exec.inspector().transmit_probability(v, r);
      EXPECT_TRUE(probs[static_cast<std::size_t>(v)] == 0.0 ||
                  probs[static_cast<std::size_t>(v)] == 1.0);
    }
    exec.step();
    std::vector<int> predicted;
    for (int v = 0; v < dc.net.n(); ++v) {
      if (probs[static_cast<std::size_t>(v)] == 1.0) predicted.push_back(v);
    }
    EXPECT_EQ(predicted, exec.history().round(r).transmitters);
  }
  EXPECT_TRUE(exec.solved());
}

}  // namespace
}  // namespace dualcast
