// Engine semantics: the §2 receive rule, half-duplex, adversarial edge
// activation, the complete-topology fast path, and deterministic replay.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "adversary/static_adversaries.hpp"
#include "core/kernels.hpp"
#include "graph/generators.hpp"
#include "reference/factories.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

using testing::ScriptedProcess;
using testing::all_deliveries;
using testing::scripted_factory;

/// Builds a line dual graph 0-1-2 with one G'-only edge (0,2).
DualGraph line3_with_chord() {
  Graph g = line_graph(3);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.finalize();
  return DualGraph(std::move(g), std::move(gp));
}

std::shared_ptr<Problem> assign(int n) {
  return std::make_shared<AssignmentProblem>(n, -1, std::vector<int>{});
}

TEST(Engine, SingleTransmitterDeliversToGNeighbors) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  // Node 0 transmits in round 0; everyone else listens.
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           scripted_factory({{1}, {0}, {0}})), assign(3),
                       std::make_unique<NoExtraEdges>(), {1, 10, {}});
  exec.step();
  const auto deliveries = all_deliveries(exec.history().round(0));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].receiver, 1);
  EXPECT_EQ(deliveries[0].sender, 0);
}

TEST(Engine, TwoTransmittersCollideAtCommonNeighbor) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  // Nodes 0 and 2 transmit; node 1 neighbors both -> collision, no delivery.
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           scripted_factory({{1}, {0}, {1}})), assign(3),
                       std::make_unique<NoExtraEdges>(), {1, 10, {}});
  exec.step();
  EXPECT_TRUE(all_deliveries(exec.history().round(0)).empty());
}

TEST(Engine, CollisionIsLocalNotGlobal) {
  // Path 0-1-2-3-4: transmitters 0 and 4. Node 1 hears only 0; node 3 hears
  // only 4: both receive despite two global transmitters. Node 2 hears
  // nobody (neighbors 1,3 silent).
  const DualGraph net = DualGraph::protocol(line_graph(5));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           scripted_factory({{1}, {0}, {0}, {0}, {1}})),
                       assign(5), std::make_unique<NoExtraEdges>(),
                       {1, 10, {}});
  exec.step();
  const auto deliveries = all_deliveries(exec.history().round(0));
  ASSERT_EQ(deliveries.size(), 2u);
}

TEST(Engine, TransmitterCannotReceive) {
  // 0 and 1 adjacent, both transmit: neither receives (half-duplex).
  const DualGraph net = DualGraph::protocol(line_graph(2));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(scripted_factory({{1}, {1}})),
                       assign(2),
                       std::make_unique<NoExtraEdges>(), {1, 10, {}});
  exec.step();
  EXPECT_TRUE(all_deliveries(exec.history().round(0)).empty());
}

TEST(Engine, GPrimeOnlyEdgeInactiveByDefault) {
  const DualGraph net = line3_with_chord();
  // 0 transmits; without the chord active, only 1 receives.
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           scripted_factory({{1}, {0}, {0}})), assign(3),
                       std::make_unique<NoExtraEdges>(), {1, 10, {}});
  exec.step();
  const auto deliveries = all_deliveries(exec.history().round(0));
  ASSERT_EQ(deliveries.size(), 1u);
  EXPECT_EQ(deliveries[0].receiver, 1);
}

TEST(Engine, ActivatedGPrimeEdgeDelivers) {
  const DualGraph net = line3_with_chord();
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           scripted_factory({{1}, {0}, {0}})), assign(3),
                       std::make_unique<AllExtraEdges>(), {1, 10, {}});
  exec.step();
  // Now node 2 also hears node 0 over the activated chord.
  EXPECT_EQ(all_deliveries(exec.history().round(0)).size(), 2u);
}

TEST(Engine, ActivatedGPrimeEdgeCanCauseCollision) {
  const DualGraph net = line3_with_chord();
  // 0 and 1 transmit. Without the chord, 2 hears only 1 -> delivery. With the
  // chord active, 2 hears both -> collision.
  {
    KernelExecution exec(net,
                         make_scalar_kernel_adapter(
                             scripted_factory({{1}, {1}, {0}})), assign(3),
                         std::make_unique<NoExtraEdges>(), {1, 10, {}});
    exec.step();
    const auto deliveries = all_deliveries(exec.history().round(0));
    ASSERT_EQ(deliveries.size(), 1u);
    EXPECT_EQ(deliveries[0].receiver, 2);
  }
  {
    KernelExecution exec(net,
                         make_scalar_kernel_adapter(
                             scripted_factory({{1}, {1}, {0}})), assign(3),
                         std::make_unique<AllExtraEdges>(), {1, 10, {}});
    exec.step();
    EXPECT_TRUE(all_deliveries(exec.history().round(0)).empty());
  }
}

/// Oblivious adversary activating an explicit set of edge indices.
class SelectedEdges final : public LinkProcess {
 public:
  explicit SelectedEdges(std::vector<std::int32_t> indices)
      : indices_(std::move(indices)) {}
  AdversaryClass adversary_class() const override {
    return AdversaryClass::oblivious;
  }
  void choose_oblivious(int /*round*/, Rng& /*rng*/, EdgeSet& out) override {
    out = EdgeSet::some(indices_);
  }

 private:
  std::vector<std::int32_t> indices_;
};

TEST(Engine, SelectiveEdgeActivation) {
  // Star-of-chords: G is a line 0-1-2-3; G' adds (0,2) and (0,3).
  Graph g = line_graph(4);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.add_edge(0, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  ASSERT_EQ(net.gp_only_edges().size(), 2u);
  // Find the index of (0,3).
  std::int32_t idx03 = -1;
  for (std::size_t i = 0; i < net.gp_only_edges().size(); ++i) {
    if (net.gp_only_edges()[i] == std::make_pair(0, 3)) {
      idx03 = static_cast<std::int32_t>(i);
    }
  }
  ASSERT_GE(idx03, 0);
  // 0 transmits. With only (0,3) active: 1 (G) and 3 (selected) receive; 2
  // does not.
  KernelExecution exec(
      net, make_scalar_kernel_adapter(scripted_factory({{1}, {0}, {0}, {0}})),
      assign(4),
      std::make_unique<SelectedEdges>(std::vector<std::int32_t>{idx03}),
      {1, 10, {}});
  exec.step();
  const auto deliveries = all_deliveries(exec.history().round(0));
  ASSERT_EQ(deliveries.size(), 2u);
  std::set<int> receivers;
  for (const auto& d : deliveries) receivers.insert(d.receiver);
  EXPECT_TRUE(receivers.count(1));
  EXPECT_TRUE(receivers.count(3));
  EXPECT_FALSE(receivers.count(2));
}

TEST(Engine, FastPathMatchesGeneralPathOnCompleteGPrime) {
  // Dual clique: all-on + k transmitters. The fast path (complete G') must
  // agree with first principles: 1 transmitter -> n-1 deliveries; >=2 -> 0.
  const DualCliqueNet dc = dual_clique(8);
  {
    KernelExecution exec(
        dc.net,
        make_scalar_kernel_adapter(
            scripted_factory({{1}, {0}, {0}, {0}, {0}, {0}, {0}, {0}})),
        assign(8), std::make_unique<AllExtraEdges>(), {1, 10, {}});
    exec.step();
    EXPECT_EQ(all_deliveries(exec.history().round(0)).size(), 7u);
  }
  {
    KernelExecution exec(
        dc.net,
        make_scalar_kernel_adapter(
            scripted_factory({{1}, {1}, {0}, {0}, {0}, {0}, {0}, {0}})),
        assign(8), std::make_unique<AllExtraEdges>(), {1, 10, {}});
    exec.step();
    EXPECT_TRUE(all_deliveries(exec.history().round(0)).empty());
  }
}

TEST(Engine, RunBookkeepingMatchesExpandedDeliveries) {
  // A lone sender's clique side, or all of K_n, is one run, which the
  // engine applies a 64-node word at a time. First receipts and the holder
  // count must match the deliveries expanded one by one: on sides that
  // straddle words (n = 130 and 200: side B starts at node 65 or 100), on
  // K_n rounds (every G'-only edge on), and with i.i.d. mask edges and the
  // bridge bumping run listeners into skips.
  DecayGlobalConfig config = DecayGlobalConfig::fast(ScheduleKind::fixed);
  config.calls = DecayGlobalConfig::kUnbounded;
  for (const int n : {130, 200}) {
    const DualCliqueNet dc = dual_clique(n, 3);
    for (const int adversary : {0, 1, 2}) {
      SCOPED_TRACE("n=" + std::to_string(n) +
                   " adversary=" + std::to_string(adversary));
      std::unique_ptr<LinkProcess> links;
      if (adversary == 0) links = std::make_unique<NoExtraEdges>();
      if (adversary == 1) links = std::make_unique<AllExtraEdges>();
      if (adversary == 2) links = std::make_unique<RandomIidEdges>(0.02);
      KernelExecution exec(
          dc.net, decay_global_factory(config),
          decay_global_kernel_factory(config)(),
          std::make_shared<GlobalBroadcastProblem>(dc.net, 1),
          std::move(links),
          ExecutionConfig{}.with_seed(5).with_max_rounds(600));
      std::vector<int> first(static_cast<std::size_t>(n), -1);
      int runs = 0;
      int skips = 0;
      while (!exec.done()) {
        exec.step();
        const RoundRecord& record = exec.history().last();
        runs += static_cast<int>(record.runs.size());
        skips += static_cast<int>(record.run_skips.size());
        for (const Delivery& d : all_deliveries(record)) {
          int& r = first[static_cast<std::size_t>(d.receiver)];
          if (r < 0) r = exec.round() - 1;
        }
        ASSERT_EQ(exec.first_receive_round(), first)
            << "round " << exec.round() - 1;
        int holders = 0;
        for (int v = 0; v < n; ++v) {
          holders += exec.kernel().has_message(v) ? 1 : 0;
        }
        ASSERT_EQ(exec.message_holders(), holders);
      }
      EXPECT_TRUE(exec.solved());
      EXPECT_GT(runs, 0);
      if (adversary == 2) {
        EXPECT_GT(skips, 0);
      }
    }
  }
}

TEST(Engine, FeedbackReportsTransmissionAndReception) {
  const DualGraph net = DualGraph::protocol(line_graph(2));
  auto scripts = std::make_shared<std::vector<ScriptedProcess*>>();
  ProcessFactory factory = [scripts](const ProcessEnv& env) {
    auto proc = std::make_unique<ScriptedProcess>(
        env.id == 0 ? std::vector<char>{1} : std::vector<char>{0});
    scripts->push_back(proc.get());
    return proc;
  };
  KernelExecution exec(net, make_scalar_kernel_adapter(factory), assign(2),
                       std::make_unique<NoExtraEdges>(), {1, 10, {}});
  exec.step();
  ASSERT_EQ(scripts->size(), 2u);
  const auto& fb0 = (*scripts)[0]->feedback();
  const auto& fb1 = (*scripts)[1]->feedback();
  ASSERT_EQ(fb0.size(), 1u);
  ASSERT_EQ(fb1.size(), 1u);
  EXPECT_TRUE(fb0[0].transmitted);
  EXPECT_FALSE(fb0[0].received.has_value());
  EXPECT_FALSE(fb1[0].transmitted);
  ASSERT_TRUE(fb1[0].received.has_value());
  EXPECT_EQ(fb1[0].sender, 0);
  EXPECT_EQ(fb1[0].received->source, 0);
}

TEST(Engine, FirstReceiveRoundTracked) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  // 0 transmits in rounds 0 and 1; 1 relays nothing.
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           scripted_factory({{1, 1}, {0, 0}, {0, 0}})),
                       assign(3), std::make_unique<NoExtraEdges>(), {1, 2, {}});
  exec.run();
  EXPECT_EQ(exec.first_receive_round()[1], 0);
  EXPECT_EQ(exec.first_receive_round()[0], -1);
  EXPECT_EQ(exec.first_receive_round()[2], -1);
}

TEST(Engine, DeterministicReplay) {
  const DualCliqueNet dc = dual_clique(16);
  const auto run_once = [&](std::uint64_t seed) {
    KernelExecution exec(dc.net,
                         make_scalar_kernel_adapter(
                             decay_global_factory(DecayGlobalConfig::fast())),
                         std::make_shared<GlobalBroadcastProblem>(dc.net, 2),
                         std::make_unique<RandomIidEdges>(0.3),
                         {seed, 2000, {}});
    exec.run();
    std::vector<std::vector<int>> transmissions;
    for (const auto& rec : exec.history().records()) {
      transmissions.push_back(rec.transmitters);
    }
    return transmissions;
  };
  EXPECT_EQ(run_once(7), run_once(7));
  EXPECT_NE(run_once(7), run_once(8));
}

TEST(Engine, RunStopsWhenSolved) {
  const DualGraph net = DualGraph::protocol(complete_graph(4));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_global_factory(DecayGlobalConfig::fast())),
                       std::make_shared<GlobalBroadcastProblem>(net, 0),
                       std::make_unique<NoExtraEdges>(), {1, 5000, {}});
  const RunResult result = exec.run();
  ASSERT_TRUE(result.solved);
  EXPECT_LT(result.rounds, 5000);
  EXPECT_TRUE(exec.done());
  EXPECT_THROW(exec.step(), ContractViolation);
}

TEST(Engine, MaxRoundsCensorsUnsolvedRun) {
  // Nobody ever transmits: global broadcast cannot complete.
  const DualGraph net = DualGraph::protocol(line_graph(4));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           scripted_factory({{}, {}, {}, {}})),
                       std::make_shared<GlobalBroadcastProblem>(net, 0),
                       std::make_unique<NoExtraEdges>(), {1, 50, {}});
  const RunResult result = exec.run();
  EXPECT_FALSE(result.solved);
  EXPECT_EQ(result.rounds, 50);
}

TEST(Engine, EnvOverrideRewritesIdentity) {
  const DualGraph net = DualGraph::protocol(line_graph(2));
  std::vector<ProcessEnv> seen;
  ProcessFactory factory = [&seen](const ProcessEnv& env) {
    seen.push_back(env);
    return std::make_unique<ScriptedProcess>(std::vector<char>{});
  };
  ExecutionConfig cfg{1, 10, {}};
  cfg.env_override = [](ProcessEnv env) {
    env.id += 100;
    env.n = 1000;
    return env;
  };
  KernelExecution exec(net, make_scalar_kernel_adapter(factory), assign(2),
                       std::make_unique<NoExtraEdges>(), cfg);
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].id, 100);
  EXPECT_EQ(seen[1].id, 101);
  EXPECT_EQ(seen[0].n, 1000);
}

}  // namespace
}  // namespace dualcast
