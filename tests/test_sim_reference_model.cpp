// Reference-model fuzzing: replay randomized executions and recompute every
// round's outcome from first principles (the §2 receive rule applied naively
// in O(n²)), comparing against the engine — through the scalar adapter on
// random scripts and through native kernels on registered algorithms,
// including the engine's complete-topology fast path. Also covers the
// collision-detection model variant and the adapter's InspectableProcess
// contract for adaptive adversaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "adversary/offline_collider.hpp"
#include "adversary/static_adversaries.hpp"
#include "adversary/dense_sparse.hpp"
#include "graph/generators.hpp"
#include "scenario/registries.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

using testing::scripted_factory;

/// Recomputes the deliveries of one recorded round per the §2 rule.
std::set<std::pair<int, int>> reference_deliveries(const DualGraph& net,
                                                   const RoundRecord& record) {
  // Build the round's topology adjacency test (through the LayerView /
  // indexed-edge surface, so implicit networks replay too).
  std::set<std::pair<int, int>> extra;
  if (record.activated == EdgeSet::Kind::all) {
    for (std::int64_t e = 0; e < net.gp_only_edge_count(); ++e) {
      extra.insert(net.gp_only_edge(e));
    }
  } else if (record.activated == EdgeSet::Kind::mask) {
    for_each_mask_bit(record.activated_mask, [&](std::int64_t idx) {
      extra.insert(net.gp_only_edge(idx));
    });
  }
  const LayerView g_view = net.g_layer();
  const auto connected = [&](int u, int v) {
    if (g_view.has_edge(u, v)) return true;
    return extra.count({std::min(u, v), std::max(u, v)}) > 0;
  };

  std::set<int> transmitting(record.transmitters.begin(),
                             record.transmitters.end());
  std::set<std::pair<int, int>> out;  // (receiver, sender)
  for (int u = 0; u < net.n(); ++u) {
    if (transmitting.count(u)) continue;  // half-duplex
    int heard = 0;
    int sender = -1;
    for (const int v : record.transmitters) {
      if (connected(u, v)) {
        ++heard;
        sender = v;
      }
    }
    if (heard == 1) out.insert({u, sender});
  }
  return out;
}

/// Checks every recorded round of `history` against the reference model.
void expect_reference_rounds(const DualGraph& net,
                             const ExecutionHistory& history) {
  for (int r = 0; r < history.rounds(); ++r) {
    const RoundRecord& record = history.round(r);
    const auto expected = reference_deliveries(net, record);
    std::set<std::pair<int, int>> actual;
    std::int64_t listed = 0;
    for_each_delivery(record, [&](const Delivery& d) {
      actual.insert({d.receiver, d.sender});
      ++listed;
      // Delivery metadata must be internally consistent.
      ASSERT_GE(d.transmitter_index, 0);
      ASSERT_LT(d.transmitter_index,
                static_cast<int>(record.transmitters.size()));
      ASSERT_EQ(record.transmitters[static_cast<std::size_t>(
                    d.transmitter_index)],
                d.sender);
    });
    ASSERT_EQ(actual, expected) << "round " << r;
    // Each receiver once, and a run's count is what it expands to.
    ASSERT_EQ(listed, static_cast<std::int64_t>(actual.size()));
    ASSERT_EQ(delivery_count(record), listed) << "round " << r;
  }
}

/// Random-script fuzz over a given network + adversary; checks every round.
/// Each node transmits in each round with probability `p_tx`. When given,
/// `skipped_run_rounds` counts the rounds with a run that has skips.
void fuzz_network(const DualGraph& net, std::unique_ptr<LinkProcess> adversary,
                  std::uint64_t seed, int rounds, double p_tx = 0.35,
                  int* skipped_run_rounds = nullptr) {
  Rng rng(seed);
  std::vector<std::vector<char>> scripts(static_cast<std::size_t>(net.n()));
  for (auto& script : scripts) {
    script.resize(static_cast<std::size_t>(rounds));
    for (auto& bit : script) bit = rng.bernoulli(p_tx) ? 1 : 0;
  }
  KernelExecution exec(net, scripted_factory(scripts),
                       std::make_shared<AssignmentProblem>(
                           net.n(), -1, std::vector<int>{}),
                       std::move(adversary), {seed, rounds, {}});
  exec.run();
  ASSERT_EQ(exec.history().rounds(), rounds);
  expect_reference_rounds(net, exec.history());
  if (skipped_run_rounds == nullptr) return;
  for (const RoundRecord& record : exec.history().records()) {
    *skipped_run_rounds += record.run_skips.empty() ? 0 : 1;
  }
}

/// A registered algorithm on its native kernel, built from the scenario
/// registries; checks every round it runs.
void fuzz_native_kernel(const std::string& topology,
                        const std::string& algorithm,
                        const std::string& adversary,
                        const std::string& problem, std::uint64_t seed,
                        int max_rounds) {
  SCOPED_TRACE(topology + " | " + algorithm + " | " + adversary);
  const scenario::Topology topo = scenario::topologies().build(topology, seed);
  const KernelFactory kernel = scenario::build_kernel_or_null(algorithm);
  ASSERT_TRUE(kernel) << "no kernel registered for " << algorithm;
  KernelExecution exec(topo.net(), scenario::algorithms().build(algorithm),
                       kernel(), scenario::problems().build(problem, topo)(),
                       scenario::adversaries().build(adversary, topo)(),
                       ExecutionConfig{}
                           .with_seed(seed)
                           .with_max_rounds(max_rounds)
                           .with_history_policy(HistoryPolicy::full));
  ASSERT_EQ(exec.kernel().processes(), nullptr);
  exec.run();
  ASSERT_GT(exec.history().total_deliveries(), 0);
  expect_reference_rounds(topo.net(), exec.history());
}

class FuzzSeedParam : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedParam, RandomGeoNetworkWithIidAdversary) {
  Rng rng(GetParam());
  const GeoNet geo = jittered_grid_geo(5, 5, 0.7, 0.05, 2.0, rng);
  fuzz_network(geo.net, std::make_unique<RandomIidEdges>(0.4), GetParam(), 40);
}

TEST_P(FuzzSeedParam, DualCliqueWithCollider) {
  const DualCliqueNet dc = dual_clique(12, 3);
  fuzz_network(dc.net, std::make_unique<GreedyColliderOffline>(),
               GetParam() + 500, 40);
}

TEST_P(FuzzSeedParam, DualCliqueWithAllEdges) {
  // Exercises the complete-topology fast path against the reference model.
  const DualCliqueNet dc = dual_clique(10);
  fuzz_network(dc.net, std::make_unique<AllExtraEdges>(), GetParam() + 900,
               40);
}

TEST_P(FuzzSeedParam, DualCliqueRunsWithMaskSkips) {
  // Sparse scripts leave a side with one transmitter, whose listeners are
  // one run; i.i.d. mask edges and the bridge bump some of them into the
  // run's skips. The sides of n = 200 straddle 64-node words.
  const DualCliqueNet dc = dual_clique(200, 7);
  int skipped_run_rounds = 0;
  fuzz_network(dc.net, std::make_unique<RandomIidEdges>(0.05),
               GetParam() + 1700, 60, 0.01, &skipped_run_rounds);
  EXPECT_GT(skipped_run_rounds, 0);
}

TEST_P(FuzzSeedParam, BraceletWithFlicker) {
  const BraceletNet br = bracelet(32);
  fuzz_network(br.net, std::make_unique<FlickerEdges>(2, 3), GetParam() + 1300,
               40);
}

TEST_P(FuzzSeedParam, NativeDecayGlobalWithColliderOnDualClique) {
  fuzz_native_kernel("dual_clique(24)", "decay_global(fixed,persistent)",
                     "collider", "global(1)", GetParam(), 300);
}

TEST_P(FuzzSeedParam, NativeDecayGlobalWithAllEdgesOnProtocolDualClique) {
  // G' = G: "all" activates no edge, so the structured path must keep the
  // two sides apart.
  fuzz_native_kernel("dual_clique_g(24)", "decay_global(permuted)", "all",
                     "global(1)", GetParam() + 300, 300);
}

TEST_P(FuzzSeedParam, NativeDecayLocalWithFlickerOnBracelet) {
  fuzz_native_kernel("bracelet(72)", "decay_local", "flicker(2,3)",
                     "local(heads_a)", GetParam() + 100, 200);
}

TEST_P(FuzzSeedParam, NativeGeoLocalWithIidOnJgrid) {
  fuzz_native_kernel("jgrid(6,6,0.5,0.05,2.0)", "geo_local", "iid(0.4)",
                     "local(every(3))", GetParam() + 200, 300);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedParam,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------------------------------------------------------------------
// Adaptive adversaries condition on InspectableProcess state.
// ---------------------------------------------------------------------------

TEST(InspectorContract, OnlineAdversaryRejectsOpaqueProcess) {
  // The scalar adapter forwards transmit_probability to its processes; a
  // process that cannot state it must fail loudly, not read as 0.
  class OpaqueProcess final : public Process {
   public:
    Action on_round(int, Rng&) override { return Action::listen(); }
  };
  const DualCliqueNet dc = dual_clique(8);
  KernelExecution exec(
      dc.net,
      [](const ProcessEnv&) { return std::make_unique<OpaqueProcess>(); },
      std::make_shared<AssignmentProblem>(8, -1, std::vector<int>{}),
      std::make_unique<DenseSparseOnline>(), {1, 4, {}});
  EXPECT_THROW(exec.step(), ContractViolation);
}

// ---------------------------------------------------------------------------
// Collision-detection model variant.
// ---------------------------------------------------------------------------

class CollisionProbe final : public InspectableProcess {
 public:
  explicit CollisionProbe(std::vector<char> script)
      : script_(std::move(script)) {}
  Action on_round(int round, Rng&) override {
    if (round < static_cast<int>(script_.size()) &&
        script_[static_cast<std::size_t>(round)]) {
      Message m;
      m.source = env_.id;
      return Action::send(m);
    }
    return Action::listen();
  }
  void on_feedback(int, const RoundFeedback& fb, Rng&) override {
    collisions_.push_back(fb.collision);
    receptions_.push_back(fb.received.has_value());
  }
  double transmit_probability(int round) const override {
    return (round < static_cast<int>(script_.size()) &&
            script_[static_cast<std::size_t>(round)])
               ? 1.0
               : 0.0;
  }
  std::vector<bool> collisions_;
  std::vector<bool> receptions_;

 private:
  std::vector<char> script_;
};

TEST(CollisionDetection, ListenersLearnOfCollisionsWhenEnabled) {
  // Star: both leaves transmit; the center hears a collision.
  const DualGraph net = DualGraph::protocol(star_graph(3));
  std::vector<CollisionProbe*> probes;
  ProcessFactory factory = [&probes](const ProcessEnv& env) {
    auto proc = std::make_unique<CollisionProbe>(
        env.id == 0 ? std::vector<char>{0} : std::vector<char>{1});
    probes.push_back(proc.get());
    return proc;
  };
  ExecutionConfig cfg{1, 1, {}};
  cfg.collision_detection = true;
  KernelExecution exec(
      net, factory,
      std::make_shared<AssignmentProblem>(3, -1, std::vector<int>{}),
      std::make_unique<NoExtraEdges>(), cfg);
  exec.run();
  ASSERT_EQ(probes.size(), 3u);
  EXPECT_TRUE(probes[0]->collisions_[0]);   // center: two neighbors collided
  EXPECT_FALSE(probes[0]->receptions_[0]);
  EXPECT_FALSE(probes[1]->collisions_[0]);  // transmitters learn nothing
  EXPECT_FALSE(probes[2]->collisions_[0]);
}

TEST(CollisionDetection, DisabledByDefaultPerThePaperModel) {
  const DualGraph net = DualGraph::protocol(star_graph(3));
  std::vector<CollisionProbe*> probes;
  ProcessFactory factory = [&probes](const ProcessEnv& env) {
    auto proc = std::make_unique<CollisionProbe>(
        env.id == 0 ? std::vector<char>{0} : std::vector<char>{1});
    probes.push_back(proc.get());
    return proc;
  };
  KernelExecution exec(
      net, factory,
      std::make_shared<AssignmentProblem>(3, -1, std::vector<int>{}),
      std::make_unique<NoExtraEdges>(), {1, 1, {}});
  exec.run();
  EXPECT_FALSE(probes[0]->collisions_[0]);  // silence == collision
}

TEST(CollisionDetection, FastPathReportsCollisionsToo) {
  // Complete G' + all edges on + two transmitters: with detection enabled,
  // every listener must see the collision flag (fast path branch).
  const DualCliqueNet dc = dual_clique(8);
  std::vector<CollisionProbe*> probes;
  ProcessFactory factory = [&probes](const ProcessEnv& env) {
    auto proc = std::make_unique<CollisionProbe>(
        env.id <= 1 ? std::vector<char>{1} : std::vector<char>{0});
    probes.push_back(proc.get());
    return proc;
  };
  ExecutionConfig cfg{1, 1, {}};
  cfg.collision_detection = true;
  KernelExecution exec(
      dc.net, factory,
      std::make_shared<AssignmentProblem>(8, -1, std::vector<int>{}),
      std::make_unique<AllExtraEdges>(), cfg);
  exec.run();
  for (int v = 2; v < 8; ++v) {
    EXPECT_TRUE(probes[static_cast<std::size_t>(v)]->collisions_[0])
        << "listener " << v;
  }
  EXPECT_FALSE(probes[0]->collisions_[0]);
  EXPECT_FALSE(probes[1]->collisions_[0]);
}

TEST(CollisionDetection, SingleTransmitterNeverFlagsCollision) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  std::vector<CollisionProbe*> probes;
  ProcessFactory factory = [&probes](const ProcessEnv& env) {
    auto proc = std::make_unique<CollisionProbe>(
        env.id == 0 ? std::vector<char>{1} : std::vector<char>{0});
    probes.push_back(proc.get());
    return proc;
  };
  ExecutionConfig cfg{1, 1, {}};
  cfg.collision_detection = true;
  KernelExecution exec(
      net, factory,
      std::make_shared<AssignmentProblem>(4, -1, std::vector<int>{}),
      std::make_unique<NoExtraEdges>(), cfg);
  exec.run();
  for (const auto* probe : probes) {
    EXPECT_FALSE(probe->collisions_[0]);
  }
  EXPECT_TRUE(probes[1]->receptions_[0]);
}

}  // namespace
}  // namespace dualcast
