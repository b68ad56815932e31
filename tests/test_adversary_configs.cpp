// Adversary construction contracts and determinism guarantees.

#include <gtest/gtest.h>

#include "adversary/bracelet_presim.hpp"
#include "adversary/dense_sparse.hpp"
#include "adversary/schedule_attack.hpp"
#include "adversary/static_adversaries.hpp"
#include "core/kernels.hpp"
#include "graph/generators.hpp"
#include "reference/factories.hpp"
#include "sim/kernel_execution.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {
namespace {

TEST(AdversaryConfig, RandomIidRejectsBadProbability) {
  EXPECT_THROW(RandomIidEdges(-0.1), ContractViolation);
  EXPECT_THROW(RandomIidEdges(1.1), ContractViolation);
  EXPECT_NO_THROW(RandomIidEdges(0.0));
  EXPECT_NO_THROW(RandomIidEdges(1.0));
}

TEST(AdversaryConfig, FlickerRejectsEmptyPhases) {
  EXPECT_THROW(FlickerEdges(0, 3), ContractViolation);
  EXPECT_THROW(FlickerEdges(3, 0), ContractViolation);
}

TEST(AdversaryConfig, DenseSparseRejectsNonPositiveThreshold) {
  EXPECT_THROW(DenseSparseOnline(DenseSparseConfig{0.0}), ContractViolation);
  EXPECT_THROW(DenseSparseOnline(DenseSparseConfig{-1.0}), ContractViolation);
}

TEST(AdversaryConfig, ScheduleAttackRequiresPredictor) {
  ScheduleAttackConfig cfg;
  EXPECT_THROW(ScheduleAttackOblivious{cfg}, ContractViolation);
  cfg.predicted_transmitters = [](int) { return 1.0; };
  cfg.threshold_factor = 0.0;
  EXPECT_THROW(ScheduleAttackOblivious{cfg}, ContractViolation);
}

TEST(AdversaryConfig, BraceletPresimWrongNetworkThrows) {
  // Adversary built for one bracelet but executed on another: refused at
  // execution start (its pre-simulation would be meaningless).
  const BraceletNet a = bracelet(32);
  const BraceletNet b = bracelet(32);
  const KernelFactory algorithm = decay_local_kernel_factory({});
  EXPECT_THROW(
      KernelExecution(b.net, algorithm(),
                      std::make_shared<LocalBroadcastProblem>(b.net, b.heads_a),
                      std::make_unique<BraceletPresimOblivious>(a, algorithm),
                      {1, 10, {}}),
      ContractViolation);
}

TEST(AdversaryDeterminism, ObliviousChoicesReplayPerSeed) {
  // Same engine seed -> same adversary stream -> identical iid edge draws.
  Rng grng(5);
  const DualGraph net = with_random_gprime(ring_graph(12), 0.3, grng);
  const auto run_pattern = [&](std::uint64_t seed) {
    KernelExecution exec(net,
                         make_scalar_kernel_adapter(
                             decay_local_factory(DecayLocalConfig{})),
                         std::make_shared<AssignmentProblem>(
                             net.n(), -1, std::vector<int>{0}),
                         std::make_unique<RandomIidEdges>(0.5), {seed, 20, {}});
    exec.run();
    std::vector<std::int64_t> counts;
    for (const auto& rec : exec.history().records()) {
      counts.push_back(rec.activated_count);
    }
    return counts;
  };
  EXPECT_EQ(run_pattern(9), run_pattern(9));
  EXPECT_NE(run_pattern(9), run_pattern(10));
}

TEST(AdversaryDeterminism, DenseSparseThresholdResolvesFromNetworkSize) {
  const DualCliqueNet dc = dual_clique(64);
  auto adversary = std::make_unique<DenseSparseOnline>(DenseSparseConfig{2.0});
  auto* ptr = adversary.get();
  KernelExecution exec(dc.net,
                       make_scalar_kernel_adapter(
                           decay_global_factory(DecayGlobalConfig::fast())),
                       std::make_shared<GlobalBroadcastProblem>(dc.net, 0),
                       std::move(adversary), {1, 5, {}});
  EXPECT_DOUBLE_EQ(ptr->threshold(), 2.0 * clog2(64));
}

TEST(AdversaryDeterminism, FlickerPhasePattern) {
  Graph g = line_graph(3);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  KernelExecution exec(net,
                       make_scalar_kernel_adapter(
                           decay_local_factory(DecayLocalConfig{})),
                       std::make_shared<AssignmentProblem>(
                           3, -1, std::vector<int>{0}),
                       std::make_unique<FlickerEdges>(2, 3), {1, 10, {}});
  exec.run();
  const std::vector<EdgeSet::Kind> expected{
      EdgeSet::Kind::all, EdgeSet::Kind::all, EdgeSet::Kind::none,
      EdgeSet::Kind::none, EdgeSet::Kind::none, EdgeSet::Kind::all,
      EdgeSet::Kind::all, EdgeSet::Kind::none, EdgeSet::Kind::none,
      EdgeSet::Kind::none};
  for (int r = 0; r < 10; ++r) {
    EXPECT_EQ(exec.history().round(r).activated,
              expected[static_cast<std::size_t>(r)])
        << "round " << r;
  }
}

TEST(AdversaryDeterminism, BraceletPresimScheduleIsCommittedUpFront) {
  const BraceletNet br = bracelet(128);
  const KernelFactory algorithm = decay_local_kernel_factory({});
  auto adversary = std::make_unique<BraceletPresimOblivious>(
      br, algorithm, BraceletPresimConfig{0.3, true});
  auto* ptr = adversary.get();
  KernelExecution exec(
      br.net, algorithm(),
      std::make_shared<LocalBroadcastProblem>(br.net, br.heads_a),
      std::move(adversary), {1, 1, {}});
  // Schedule exists before any round executes.
  EXPECT_EQ(static_cast<int>(ptr->dense_schedule().size()), br.band_len);
  const std::vector<char> before = ptr->dense_schedule();
  exec.run();
  EXPECT_EQ(ptr->dense_schedule(), before);
}

}  // namespace
}  // namespace dualcast
