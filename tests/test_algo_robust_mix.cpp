// RobustMixBroadcast: the round-robin/decay interleave must inherit both
// guarantees — polylog completion against oblivious adversaries AND a
// deterministic O(n·D) ceiling against every adversary class.

#include <gtest/gtest.h>

#include "adversary/dense_sparse.hpp"
#include "adversary/offline_collider.hpp"
#include "adversary/static_adversaries.hpp"
#include "core/robust_mix.hpp"
#include "core/factories.hpp"
#include "graph/generators.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"

namespace dualcast {
namespace {

using testing::median_rounds;
using testing::run_global;

TEST(RobustMix, SolvesInProtocolModel) {
  const DualGraph net = DualGraph::protocol(line_graph(24));
  int solved = 0;
  for (int t = 0; t < 8; ++t) {
    const RunResult result = run_global(
        net, robust_mix_factory(), std::make_unique<NoExtraEdges>(), 0,
        900 + static_cast<std::uint64_t>(t), 200000);
    solved += result.solved ? 1 : 0;
  }
  EXPECT_EQ(solved, 8);
}

class RobustMixAdversaryParam : public ::testing::TestWithParam<int> {};

TEST_P(RobustMixAdversaryParam, MeetsDeterministicCeilingOnDualClique) {
  // Even rounds are a round robin pass; on the constant-diameter dual clique
  // the message provably crosses within three interleaved passes: <= 6n + 2
  // rounds against ANY adversary.
  const int n = 64;
  const DualCliqueNet dc = dual_clique(n, n / 4);
  std::unique_ptr<LinkProcess> adversary;
  switch (GetParam()) {
    case 0: adversary = std::make_unique<NoExtraEdges>(); break;
    case 1: adversary = std::make_unique<RandomIidEdges>(0.5); break;
    case 2:
      adversary = std::make_unique<DenseSparseOnline>(DenseSparseConfig{0.5});
      break;
    default: adversary = std::make_unique<GreedyColliderOffline>(); break;
  }
  const RunResult result =
      run_global(dc.net, robust_mix_factory(), std::move(adversary),
                 /*source=*/1, /*seed=*/5, /*max_rounds=*/8 * n);
  ASSERT_TRUE(result.solved) << "adversary " << GetParam();
  EXPECT_LE(result.rounds, 6 * n + 2);
}

INSTANTIATE_TEST_SUITE_P(Adversaries, RobustMixAdversaryParam,
                         ::testing::Values(0, 1, 2, 3));

TEST(RobustMix, OpportunisticallyFastWhenObliviousAdversary) {
  // Against benign oblivious behavior the decay half finishes long before
  // the deterministic ceiling.
  const int n = 512;
  const DualCliqueNet dc = dual_clique(n, n / 4);
  const double rounds = median_rounds(5, 42, 8 * n, [&](std::uint64_t seed) {
    return run_global(dc.net, robust_mix_factory(),
                      std::make_unique<RandomIidEdges>(0.5), 1, seed, 8 * n);
  });
  EXPECT_LT(rounds, n / 2.0) << "mix should beat the robin pass";
}

TEST(RobustMix, RobinHalfTransmitsOnlyInItsSlots) {
  const int n = 16;
  const DualCliqueNet dc = dual_clique(n);
  KernelExecution exec(dc.net, robust_mix_factory(),
                       std::make_shared<GlobalBroadcastProblem>(dc.net, 0),
                       std::make_unique<NoExtraEdges>(), {3, 200, {}});
  exec.run();
  for (int r = 0; r < exec.history().rounds(); r += 2) {
    // Even (robin) rounds: transmitter id must equal the half-clock slot.
    for (const int v : exec.history().round(r).transmitters) {
      EXPECT_EQ((r / 2) % n, v) << "round " << r;
    }
  }
}

TEST(RobustMix, MessageLearnedInOneHalfSeedsTheOther) {
  // A node that first receives during a robin round must subsequently
  // transmit in decay rounds too (both halves share receptions).
  const int n = 16;
  const DualCliqueNet dc = dual_clique(n);
  KernelExecution exec(dc.net, robust_mix_factory(),
                       std::make_shared<GlobalBroadcastProblem>(dc.net, 0),
                       std::make_unique<NoExtraEdges>(), {7, 600, {}});
  exec.run();
  ASSERT_TRUE(exec.solved());
  int odd_round_transmissions = 0;
  for (int r = 1; r < exec.history().rounds(); r += 2) {
    odd_round_transmissions +=
        static_cast<int>(exec.history().round(r).transmitters.size());
  }
  EXPECT_GT(odd_round_transmissions, 0);
}

TEST(RobustMix, InspectorConsistentAcrossParities) {
  const int n = 16;
  const DualCliqueNet dc = dual_clique(n);
  KernelExecution exec(
      dc.net, robust_mix_factory(),
      std::make_shared<GlobalBroadcastProblem>(dc.net, 0),
      std::make_unique<DenseSparseOnline>(DenseSparseConfig{1.0}),
      {9, 400, {}});
  while (!exec.done()) {
    const int r = exec.round();
    std::vector<double> probs(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) {
      probs[static_cast<std::size_t>(v)] =
          exec.inspector().transmit_probability(v, r);
    }
    exec.step();
    for (const int v : exec.history().round(r).transmitters) {
      EXPECT_GT(probs[static_cast<std::size_t>(v)], 0.0)
          << "node " << v << " round " << r;
    }
  }
  EXPECT_TRUE(exec.solved());
}

}  // namespace
}  // namespace dualcast
