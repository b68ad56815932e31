// DecayGlobalBroadcast: correctness in the protocol model and against
// oblivious adversaries, schedule structure, and inspector consistency.

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "adversary/static_adversaries.hpp"
#include "graph/generators.hpp"
#include "reference/factories.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"

namespace dualcast {
namespace {

using testing::median_rounds;
using testing::run_global;

// --------------------------------------------------------------------------
// Correctness sweeps (parameterized property tests).
// --------------------------------------------------------------------------

struct GlobalCase {
  const char* topology;
  int n;
  ScheduleKind kind;
};

class GlobalDecayCorrectness : public ::testing::TestWithParam<GlobalCase> {};

Graph build_topology(const char* name, int n, Rng& rng) {
  const std::string t = name;
  if (t == "line") return line_graph(n);
  if (t == "ring") return ring_graph(n);
  if (t == "star") return star_graph(n);
  if (t == "complete") return complete_graph(n);
  if (t == "tree") return random_tree(n, rng);
  if (t == "grid") {
    const int side = static_cast<int>(std::sqrt(n));
    return grid_graph(side, side);
  }
  ADD_FAILURE() << "unknown topology " << name;
  return line_graph(2);
}

TEST_P(GlobalDecayCorrectness, SolvesWhpInProtocolModel) {
  const auto& param = GetParam();
  Rng topo_rng(99);
  const Graph g = build_topology(param.topology, param.n, topo_rng);
  const DualGraph net = DualGraph::protocol(g);
  const int max_rounds = 600 * (net.g().diameter() + 20);

  int solved = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    const RunResult result =
        run_global(net, decay_global_factory(DecayGlobalConfig::fast(param.kind)),
                   std::make_unique<NoExtraEdges>(), /*source=*/0,
                   /*seed=*/1000 + static_cast<std::uint64_t>(t), max_rounds);
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, trials - 1)
      << param.topology << " n=" << param.n << " kind="
      << (param.kind == ScheduleKind::fixed ? "fixed" : "permuted");
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, GlobalDecayCorrectness,
    ::testing::Values(GlobalCase{"line", 32, ScheduleKind::permuted},
                      GlobalCase{"line", 32, ScheduleKind::fixed},
                      GlobalCase{"ring", 48, ScheduleKind::permuted},
                      GlobalCase{"star", 64, ScheduleKind::permuted},
                      GlobalCase{"complete", 64, ScheduleKind::permuted},
                      GlobalCase{"complete", 64, ScheduleKind::fixed},
                      GlobalCase{"grid", 64, ScheduleKind::permuted},
                      GlobalCase{"tree", 64, ScheduleKind::permuted}));

// --------------------------------------------------------------------------
// Oblivious dual graph model (Theorem 4.1 regime).
// --------------------------------------------------------------------------

class ObliviousAdversaryParam : public ::testing::TestWithParam<int> {};

TEST_P(ObliviousAdversaryParam, PermutedDecaySolvesOnDualClique) {
  const int adversary_id = GetParam();
  const DualCliqueNet dc = dual_clique(64, /*bridge_index=*/7);
  const auto make_adversary = [&]() -> std::unique_ptr<LinkProcess> {
    switch (adversary_id) {
      case 0: return std::make_unique<NoExtraEdges>();
      case 1: return std::make_unique<AllExtraEdges>();
      case 2: return std::make_unique<RandomIidEdges>(0.5);
      case 3: return std::make_unique<FlickerEdges>(3, 5);
    }
    return nullptr;
  };
  int solved = 0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    const RunResult result = run_global(
        dc.net, decay_global_factory(DecayGlobalConfig::fast()),
        make_adversary(), /*source=*/3,
        /*seed=*/7000 + static_cast<std::uint64_t>(t), /*max_rounds=*/20000);
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, trials - 1) << "adversary " << adversary_id;
}

INSTANTIATE_TEST_SUITE_P(AdversarySuite, ObliviousAdversaryParam,
                         ::testing::Values(0, 1, 2, 3));

TEST(GlobalDecay, RoundsGrowWithDiameter) {
  // O(D log n + log² n): on lines, rounds should scale ~linearly in D.
  const auto run_line = [&](int n) {
    const DualGraph net = DualGraph::protocol(line_graph(n));
    return median_rounds(5, 31, 200000, [&](std::uint64_t seed) {
      return run_global(net,
                        decay_global_factory(DecayGlobalConfig::fast()),
                        std::make_unique<NoExtraEdges>(), 0, seed, 200000);
    });
  };
  const double r32 = run_line(32);
  const double r128 = run_line(128);
  EXPECT_GT(r128, 2.0 * r32);
  EXPECT_LT(r128, 10.0 * r32);
}

// --------------------------------------------------------------------------
// Protocol structure.
// --------------------------------------------------------------------------

TEST(GlobalDecay, SourceTransmitsExactlyOnce) {
  const DualGraph net = DualGraph::protocol(line_graph(8));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_global_factory(DecayGlobalConfig::fast())),
                       std::make_shared<GlobalBroadcastProblem>(net, 0),
                       std::make_unique<NoExtraEdges>(), {5, 3000, {}});
  exec.run();
  int source_transmissions = 0;
  for (const auto& rec : exec.history().records()) {
    for (const int v : rec.transmitters) {
      if (v == 0) ++source_transmissions;
    }
  }
  EXPECT_EQ(source_transmissions, 1);
  // And it was in round 0.
  ASSERT_FALSE(exec.history().round(0).transmitters.empty());
  EXPECT_EQ(exec.history().round(0).transmitters[0], 0);
}

TEST(GlobalDecay, HoldersOnlyTransmitInsideAlignedWindow) {
  const DualGraph net = DualGraph::protocol(star_graph(16));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_global_factory(DecayGlobalConfig::fast())),
                       std::make_shared<GlobalBroadcastProblem>(net, 1),
                       std::make_unique<NoExtraEdges>(), {7, 5000, {}});
  exec.run();
  // Reconstruct per-node first-transmission rounds; all non-source
  // transmissions must happen at or after a gamma*L boundary following their
  // first reception.
  const auto* proc =
      dynamic_cast<const DecayGlobalBroadcast*>(&exec.process(0));
  ASSERT_NE(proc, nullptr);
  const int period = proc->call_length();
  for (int r = 0; r < exec.history().rounds(); ++r) {
    for (const int v : exec.history().round(r).transmitters) {
      if (v == 1) continue;  // source
      const int received = exec.first_receive_round()[static_cast<std::size_t>(v)];
      ASSERT_GE(received, 0);
      EXPECT_GT(r, received);
      const int window_start = ((received + 1 + period - 1) / period) * period;
      EXPECT_GE(r, window_start) << "node " << v << " round " << r;
    }
  }
}

TEST(GlobalDecay, PermutedMessageCarriesSharedBits) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_global_factory(DecayGlobalConfig::fast())),
                       std::make_shared<GlobalBroadcastProblem>(net, 0),
                       std::make_unique<NoExtraEdges>(), {9, 3000, {}});
  exec.step();
  const auto& sent = exec.history().round(0).sent;
  ASSERT_EQ(sent.size(), 1u);
  ASSERT_NE(sent[0].shared_bits, nullptr);
  EXPECT_GT(sent[0].shared_bits->size(), 0u);
}

TEST(GlobalDecay, FixedMessageCarriesNoBits) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  KernelExecution exec(
      net,
      make_scalar_kernel_adapter(
          decay_global_factory(DecayGlobalConfig::fast(ScheduleKind::fixed))),
      std::make_shared<GlobalBroadcastProblem>(net, 0),
      std::make_unique<NoExtraEdges>(), {9, 3000, {}});
  exec.step();
  const auto& sent = exec.history().round(0).sent;
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].shared_bits, nullptr);
}

TEST(GlobalDecay, InspectorNeverContradictsBehavior) {
  // Property: a node that transmits in round r must have had
  // transmit_probability(r) > 0 at the start of r.
  const DualCliqueNet dc = dual_clique(32);
  KernelExecution exec(dc.net,
                       make_scalar_kernel_adapter(
                           decay_global_factory(DecayGlobalConfig::fast())),
                       std::make_shared<GlobalBroadcastProblem>(dc.net, 1),
                       std::make_unique<RandomIidEdges>(0.3), {11, 4000, {}});
  while (!exec.done()) {
    const int r = exec.round();
    std::vector<double> probs(static_cast<std::size_t>(dc.net.n()));
    for (int v = 0; v < dc.net.n(); ++v) {
      probs[static_cast<std::size_t>(v)] =
          exec.inspector().transmit_probability(v, r);
    }
    exec.step();
    for (const int v : exec.history().round(r).transmitters) {
      EXPECT_GT(probs[static_cast<std::size_t>(v)], 0.0)
          << "node " << v << " transmitted in round " << r
          << " despite zero announced probability";
    }
  }
  EXPECT_TRUE(exec.solved());
}

TEST(GlobalDecay, UnboundedCallsKeepTransmitting) {
  DecayGlobalConfig cfg = DecayGlobalConfig::fast();
  cfg.calls = DecayGlobalConfig::kUnbounded;
  const DualGraph net = DualGraph::protocol(complete_graph(8));
  KernelExecution exec(
      net, make_scalar_kernel_adapter(decay_global_factory(cfg)),
      std::make_shared<AssignmentProblem>(8, 0, std::vector<int>{}),
      std::make_unique<NoExtraEdges>(), {13, 4000, {}});
  exec.run();
  // Transmissions should appear in the last tenth of the run.
  std::int64_t late = 0;
  for (int r = 9 * exec.history().rounds() / 10; r < exec.history().rounds();
       ++r) {
    late += static_cast<std::int64_t>(exec.history().round(r).transmitters.size());
  }
  EXPECT_GT(late, 0);
}

TEST(GlobalDecay, PaperProfileSolvesSmallInstance) {
  const DualGraph net = DualGraph::protocol(line_graph(16));
  const RunResult result = run_global(
      net, decay_global_factory(DecayGlobalConfig::paper()),
      std::make_unique<NoExtraEdges>(), 0, /*seed=*/17, /*max_rounds=*/200000);
  EXPECT_TRUE(result.solved);
}

}  // namespace
}  // namespace dualcast
