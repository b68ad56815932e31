// DecayLocalBroadcast: the static-model local broadcast baseline.

#include <gtest/gtest.h>

#include "adversary/static_adversaries.hpp"
#include "graph/generators.hpp"
#include "reference/factories.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/mathutil.hpp"
#include "util/rng.hpp"

namespace dualcast {
namespace {

using testing::run_local;

struct LocalCase {
  const char* topology;
  int n;
  int b_stride;  ///< every b_stride-th node joins B
  ScheduleKind kind;
};

class LocalDecayCorrectness : public ::testing::TestWithParam<LocalCase> {};

TEST_P(LocalDecayCorrectness, SolvesWhpInProtocolModel) {
  const auto& param = GetParam();
  Rng rng(5);
  Graph g;
  const std::string t = param.topology;
  if (t == "line") {
    g = line_graph(param.n);
  } else if (t == "star") {
    g = star_graph(param.n);
  } else if (t == "complete") {
    g = complete_graph(param.n);
  } else {
    g = random_tree(param.n, rng);
  }
  const DualGraph net = DualGraph::protocol(g);
  std::vector<int> b;
  for (int v = 0; v < param.n; v += param.b_stride) b.push_back(v);

  int solved = 0;
  const int trials = 10;
  for (int i = 0; i < trials; ++i) {
    const RunResult result = run_local(
        net, decay_local_factory(DecayLocalConfig{param.kind, 0, 0}),
        std::make_unique<NoExtraEdges>(), b,
        2000 + static_cast<std::uint64_t>(i), /*max_rounds=*/20000);
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, trials - 1) << t << " n=" << param.n;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, LocalDecayCorrectness,
    ::testing::Values(LocalCase{"line", 32, 4, ScheduleKind::fixed},
                      LocalCase{"line", 32, 1, ScheduleKind::fixed},
                      LocalCase{"star", 48, 2, ScheduleKind::fixed},
                      LocalCase{"complete", 32, 2, ScheduleKind::fixed},
                      LocalCase{"complete", 32, 2, ScheduleKind::permuted},
                      LocalCase{"tree", 64, 3, ScheduleKind::fixed},
                      LocalCase{"tree", 64, 3, ScheduleKind::permuted}));

TEST(LocalDecay, OnlyBNodesTransmit) {
  const DualGraph net = DualGraph::protocol(line_graph(16));
  const std::vector<int> b{2, 9};
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_local_factory(DecayLocalConfig{})),
                       std::make_shared<LocalBroadcastProblem>(net, b),
                       std::make_unique<NoExtraEdges>(), {3, 500, {}});
  exec.run();
  for (const auto& rec : exec.history().records()) {
    for (const int v : rec.transmitters) {
      EXPECT_TRUE(v == 2 || v == 9) << "non-B node " << v << " transmitted";
    }
  }
}

TEST(LocalDecay, LadderDefaultsToDegreeNotN) {
  // On a bounded-degree graph the ladder must track Δ, not n: that is what
  // makes the baseline O(log n log Δ) rather than O(log n log n).
  const DualGraph net = DualGraph::protocol(line_graph(256));  // Δ = 2
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_local_factory(DecayLocalConfig{})),
                       std::make_shared<LocalBroadcastProblem>(
                           net, std::vector<int>{100}),
                       std::make_unique<NoExtraEdges>(), {3, 50, {}});
  const auto* proc = dynamic_cast<const DecayLocalBroadcast*>(&exec.process(100));
  ASSERT_NE(proc, nullptr);
  EXPECT_EQ(proc->ladder(), clog2(2 * 2));
}

TEST(LocalDecay, BNodeAdjacentToBNodeStillGetsServed) {
  // Adjacent B nodes must also receive (they are in R): half-duplex means
  // they can only hear while not transmitting.
  const DualGraph net = DualGraph::protocol(line_graph(8));
  int solved = 0;
  for (int t = 0; t < 10; ++t) {
    const RunResult result = run_local(
        net, decay_local_factory(DecayLocalConfig{}),
        std::make_unique<NoExtraEdges>(), {3, 4},
        400 + static_cast<std::uint64_t>(t), 20000);
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, 9);
}

TEST(LocalDecay, SolvesUnderRandomLossObliviousAdversary) {
  Rng rng(77);
  const GeoNet geo = jittered_grid_geo(6, 6, 0.6, 0.05, 2.0, rng);
  std::vector<int> b;
  for (int v = 0; v < geo.net.n(); v += 3) b.push_back(v);
  int solved = 0;
  for (int t = 0; t < 10; ++t) {
    const RunResult result = run_local(
        geo.net, decay_local_factory(DecayLocalConfig{}),
        std::make_unique<RandomIidEdges>(0.4), b,
        500 + static_cast<std::uint64_t>(t), 40000);
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, 9);
}

TEST(LocalDecay, StrictCreditAlsoSolvableInProtocolModel) {
  const DualGraph net = DualGraph::protocol(star_graph(24));
  const RunResult result = run_local(
      net, decay_local_factory(DecayLocalConfig{}),
      std::make_unique<NoExtraEdges>(), {0, 5}, 11, 30000,
      ReceiverCredit::g_neighbor_only);
  EXPECT_TRUE(result.solved);
}

TEST(LocalDecay, InspectorMatchesLadderProbabilities) {
  const DualGraph net = DualGraph::protocol(line_graph(8));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_local_factory(DecayLocalConfig{})),
                       std::make_shared<LocalBroadcastProblem>(
                           net, std::vector<int>{4}),
                       std::make_unique<NoExtraEdges>(), {3, 50, {}});
  const auto* proc = dynamic_cast<const DecayLocalBroadcast*>(&exec.process(4));
  ASSERT_NE(proc, nullptr);
  const int ladder = proc->ladder();
  for (int r = 0; r < 3 * ladder; ++r) {
    EXPECT_DOUBLE_EQ(exec.inspector().transmit_probability(4, r),
                     pow2_neg(fixed_decay_index(r, ladder)));
    EXPECT_DOUBLE_EQ(exec.inspector().transmit_probability(0, r), 0.0);
  }
}

}  // namespace
}  // namespace dualcast
