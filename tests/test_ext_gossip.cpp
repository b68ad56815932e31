// k-gossip extension: the problem monitor, the fair token scheduler, and
// end-to-end correctness across topologies, token counts, and adversaries.

#include <gtest/gtest.h>

#include <map>
#include <utility>

#include "adversary/dense_sparse.hpp"
#include "adversary/static_adversaries.hpp"
#include "core/gossip.hpp"
#include "graph/generators.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {
namespace {

RunResult run_gossip(const DualGraph& net, std::vector<int> sources,
                     std::unique_ptr<LinkProcess> adversary,
                     std::uint64_t seed, int max_rounds,
                     GossipConfig config = {}) {
  KernelExecution exec(net, gossip_factory(config),
                       std::make_shared<GossipProblem>(net, std::move(sources)),
                       std::move(adversary), {seed, max_rounds, {}});
  return exec.run();
}

TEST(GossipProblem, InitialKnowledgeAndMissingCount) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  const GossipProblem problem(net, {0, 2});
  EXPECT_EQ(problem.tokens(), 2);
  EXPECT_TRUE(problem.knows(0, 0));
  EXPECT_TRUE(problem.knows(2, 1));
  EXPECT_FALSE(problem.knows(0, 1));
  EXPECT_FALSE(problem.knows(3, 0));
  EXPECT_EQ(problem.missing(), 4 * 2 - 2);
}

TEST(GossipProblem, RejectsBadConfigurations) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  EXPECT_THROW(GossipProblem(net, {}), ContractViolation);
  EXPECT_THROW(GossipProblem(net, {4}), ContractViolation);
}

TEST(GossipProblem, SingleTokenDegeneratesToGlobalBroadcast) {
  const DualGraph net = DualGraph::protocol(star_graph(16));
  const RunResult result = run_gossip(
      net, {3}, std::make_unique<NoExtraEdges>(), 7, 20000);
  EXPECT_TRUE(result.solved);
}

struct GossipCase {
  const char* topology;
  int n;
  int k;
  ScheduleKind kind;
};

class GossipCorrectness : public ::testing::TestWithParam<GossipCase> {};

TEST_P(GossipCorrectness, AllTokensReachAllNodes) {
  const auto& param = GetParam();
  Rng rng(3);
  Graph g;
  const std::string t = param.topology;
  if (t == "line") {
    g = line_graph(param.n);
  } else if (t == "ring") {
    g = ring_graph(param.n);
  } else if (t == "complete") {
    g = complete_graph(param.n);
  } else {
    g = random_tree(param.n, rng);
  }
  const DualGraph net = DualGraph::protocol(g);
  std::vector<int> sources;
  for (int token = 0; token < param.k; ++token) {
    sources.push_back((token * param.n) / param.k);
  }
  int solved = 0;
  const int trials = 6;
  for (int i = 0; i < trials; ++i) {
    const RunResult result = run_gossip(
        net, sources, std::make_unique<NoExtraEdges>(),
        100 + static_cast<std::uint64_t>(i), 3000 * param.n,
        GossipConfig{param.kind, 0, 0});
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, trials - 1) << t << " n=" << param.n << " k=" << param.k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GossipCorrectness,
    ::testing::Values(GossipCase{"line", 16, 2, ScheduleKind::fixed},
                      GossipCase{"ring", 24, 3, ScheduleKind::fixed},
                      GossipCase{"complete", 32, 4, ScheduleKind::fixed},
                      // `permuted` = private per-node indices: correct only
                      // on bounded-degree graphs (see GossipConfig docs).
                      GossipCase{"line", 16, 2, ScheduleKind::permuted},
                      GossipCase{"tree", 32, 3, ScheduleKind::fixed},
                      GossipCase{"tree", 32, 3, ScheduleKind::permuted}));

TEST(Gossip, PrivatePermutationStallsOnHighDegreeGraphs) {
  // The coordination lesson of Lemma 4.2, observed in gossip: with private
  // per-node ladder indices on a complete graph there are no globally
  // sparse rounds, so a token held by a single node can take an order of
  // magnitude longer to first escape than under the common (fixed)
  // schedule. We compare median solve times directly.
  const DualGraph net = DualGraph::protocol(complete_graph(32));
  const std::vector<int> sources{0, 8, 16, 24};
  const auto median_for = [&](ScheduleKind kind) {
    return testing::median_rounds(5, 400, 100000, [&](std::uint64_t seed) {
      return run_gossip(net, sources, std::make_unique<NoExtraEdges>(), seed,
                        100000, GossipConfig{kind, 0, 0});
    });
  };
  const double coordinated = median_for(ScheduleKind::fixed);
  const double uncoordinated = median_for(ScheduleKind::permuted);
  EXPECT_GE(uncoordinated, 5.0 * coordinated)
      << "coordinated=" << coordinated
      << " uncoordinated=" << uncoordinated;
}

TEST(Gossip, SolvesUnderObliviousUnreliability) {
  const DualCliqueNet dc = dual_clique(32);
  int solved = 0;
  for (int i = 0; i < 6; ++i) {
    const RunResult result = run_gossip(
        dc.net, {1, 17}, std::make_unique<RandomIidEdges>(0.5),
        200 + static_cast<std::uint64_t>(i), 60000);
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, 5);
}

GossipConfig quiesce_config() {
  GossipConfig cfg;
  cfg.quiesce = true;
  return cfg;
}

TEST(GossipQuiesce, StillSolvesUnderUnreliability) {
  // Retiring tokens must not break completion: fresh receivers restart each
  // token's window, so every token keeps moving until everyone has it.
  const DualCliqueNet dc = dual_clique(32);
  int solved = 0;
  for (int i = 0; i < 6; ++i) {
    const RunResult result = run_gossip(
        dc.net, {1, 17}, std::make_unique<RandomIidEdges>(0.5),
        700 + static_cast<std::uint64_t>(i), 60000, quiesce_config());
    solved += result.solved ? 1 : 0;
  }
  EXPECT_GE(solved, 5);
}

TEST(GossipQuiesce, HoldersFallSilentAfterBudgetsDrain) {
  // Saturating gossip relays forever; quiescing gossip spends at most
  // `offer budget` transmissions per (node, token) and then goes quiet. We
  // drive past the gossip solve point with the never-solving assignment
  // problem (broadcast-set members seed distinct payloads, i.e. tokens) and
  // compare tail activity plus the per-token transmission bound.
  const DualGraph net = DualGraph::protocol(complete_graph(16));
  const int ladder = clog2(16);
  const int budget = 4 * ladder;  // the derived default
  const auto run_tail = [&](GossipConfig cfg) {
    KernelExecution exec(net, gossip_factory(cfg),
                         std::make_shared<AssignmentProblem>(
                             16, -1, std::vector<int>{0, 8}),
                         std::make_unique<NoExtraEdges>(), {21, 6000, {}});
    exec.run();
    std::int64_t tail = 0;
    std::map<std::pair<int, std::uint64_t>, int> per_node_token;
    const auto& records = exec.history().records();
    for (std::size_t r = 0; r < records.size(); ++r) {
      for (std::size_t i = 0; i < records[r].transmitters.size(); ++i) {
        const int v = records[r].transmitters[i];
        per_node_token[{v, records[r].sent[i].payload}] += 1;
      }
      if (r + 1000 >= records.size()) {
        tail += static_cast<std::int64_t>(records[r].transmitters.size());
      }
    }
    int max_per_token = 0;
    for (const auto& [key, count] : per_node_token) {
      max_per_token = std::max(max_per_token, count);
    }
    return std::pair(tail, max_per_token);
  };
  const auto [saturating_tail, saturating_max] = run_tail(GossipConfig{});
  EXPECT_GT(saturating_tail, 0);
  EXPECT_GT(saturating_max, budget);  // unbounded relaying, visibly so
  const auto [quiesce_tail, quiesce_max] = run_tail(quiesce_config());
  EXPECT_EQ(quiesce_tail, 0);  // everyone drained well before the horizon
  EXPECT_LE(quiesce_max, budget);
}

TEST(Gossip, FairSchedulerKeepsEveryTokenCirculating) {
  // A node holding several tokens must offer each of them over time.
  const DualGraph net = DualGraph::protocol(complete_graph(8));
  KernelExecution exec(
      net, gossip_factory(GossipConfig{}),
      std::make_shared<GossipProblem>(net, std::vector<int>{0, 1, 2}),
      std::make_unique<NoExtraEdges>(), {5, 2000, {}});
  exec.run();
  ASSERT_TRUE(exec.solved());
  // After completion every node holds all three tokens; count per-token
  // transmissions across the run — all three token ids must appear.
  std::set<std::uint64_t> offered;
  for (const auto& rec : exec.history().records()) {
    for (const auto& m : rec.sent) offered.insert(m.payload);
  }
  EXPECT_EQ(offered.size(), 3u);
}

TEST(Gossip, MoreTokensCostMoreRounds) {
  const DualGraph net = DualGraph::protocol(complete_graph(64));
  const auto median_for_k = [&](int k) {
    return testing::median_rounds(7, 300, 100000, [&](std::uint64_t seed) {
      std::vector<int> sources;
      for (int t = 0; t < k; ++t) sources.push_back(t * 64 / k);
      return run_gossip(net, sources, std::make_unique<NoExtraEdges>(), seed,
                        100000);
    });
  };
  const double k1 = median_for_k(1);
  const double k8 = median_for_k(8);
  EXPECT_GT(k8, k1);
}

TEST(Gossip, InspectorConsistency) {
  const DualCliqueNet dc = dual_clique(16);
  KernelExecution exec(
      dc.net, gossip_factory(GossipConfig{}),
      std::make_shared<GossipProblem>(dc.net, std::vector<int>{0, 9}),
      std::make_unique<DenseSparseOnline>(DenseSparseConfig{1.0}),
      {11, 5000, {}});
  while (!exec.done()) {
    const int r = exec.round();
    std::vector<double> probs(16);
    for (int v = 0; v < 16; ++v) {
      probs[static_cast<std::size_t>(v)] =
          exec.inspector().transmit_probability(v, r);
    }
    exec.step();
    for (const int v : exec.history().round(r).transmitters) {
      EXPECT_GT(probs[static_cast<std::size_t>(v)], 0.0);
    }
  }
}

TEST(Gossip, HeldSetGrowsMonotonically) {
  const DualGraph net = DualGraph::protocol(ring_graph(12));
  KernelExecution exec(
      net, gossip_factory(GossipConfig{}),
      std::make_shared<GossipProblem>(net, std::vector<int>{0, 6}),
      std::make_unique<NoExtraEdges>(), {13, 5000, {}});
  std::vector<std::size_t> prev(12, 0);
  while (!exec.done()) {
    exec.step();
    for (int v = 0; v < 12; ++v) {
      const auto* proc = dynamic_cast<const GossipBroadcast*>(&exec.process(v));
      ASSERT_NE(proc, nullptr);
      ASSERT_GE(proc->held().size(), prev[static_cast<std::size_t>(v)]);
      prev[static_cast<std::size_t>(v)] = proc->held().size();
    }
  }
  EXPECT_TRUE(exec.solved());
}

}  // namespace
}  // namespace dualcast
