// Information-access enforcement: the engine must invoke exactly the hook
// matching the adversary's declared class, with online adaptive choices made
// *before* the round's coins are drawn, and offline adaptive ones after.

#include <gtest/gtest.h>

#include "adversary/dense_sparse.hpp"
#include "adversary/offline_collider.hpp"
#include "graph/generators.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

using testing::scripted_factory;

struct HookLog {
  int oblivious = 0;
  int online = 0;
  int offline = 0;
};

class ProbeAdversary final : public LinkProcess {
 public:
  ProbeAdversary(AdversaryClass cls, HookLog* log) : cls_(cls), log_(log) {}

  AdversaryClass adversary_class() const override { return cls_; }

  void choose_oblivious(int /*round*/, Rng& /*rng*/, EdgeSet& out) override {
    ++log_->oblivious;
    out.set_none();
  }
  void choose_online(int /*round*/, const ExecutionHistory& history,
                     const StateInspector& /*inspector*/, Rng& /*rng*/,
                     EdgeSet& out) override {
    ++log_->online;
    history_rounds_seen_ = history.rounds();
    out.set_none();
  }
  void choose_offline(int /*round*/, const ExecutionHistory& /*history*/,
                      const StateInspector& /*inspector*/,
                      const RoundActions& actions, Rng& /*rng*/,
                      EdgeSet& out) override {
    ++log_->offline;
    last_seen_transmitters_ = *actions.transmitters;
    out.set_none();
  }

  int history_rounds_seen_ = -1;
  std::vector<int> last_seen_transmitters_;

 private:
  AdversaryClass cls_;
  HookLog* log_;
};

std::shared_ptr<Problem> assign(int n) {
  return std::make_shared<AssignmentProblem>(n, -1, std::vector<int>{});
}

TEST(Dispatch, ObliviousOnlyGetsObliviousHook) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  HookLog log;
  KernelExecution exec(
      net, scripted_factory({{1, 0}, {0, 1}, {0, 0}}), assign(3),
      std::make_unique<ProbeAdversary>(AdversaryClass::oblivious, &log),
      {1, 2, {}});
  exec.run();
  EXPECT_EQ(log.oblivious, 2);
  EXPECT_EQ(log.online, 0);
  EXPECT_EQ(log.offline, 0);
}

TEST(Dispatch, OnlineOnlyGetsOnlineHook) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  HookLog log;
  KernelExecution exec(
      net, scripted_factory({{1, 0}, {0, 1}, {0, 0}}), assign(3),
      std::make_unique<ProbeAdversary>( AdversaryClass::online_adaptive, &log),
      {1, 2, {}});
  exec.run();
  EXPECT_EQ(log.oblivious, 0);
  EXPECT_EQ(log.online, 2);
  EXPECT_EQ(log.offline, 0);
}

TEST(Dispatch, OfflineOnlyGetsOfflineHook) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  HookLog log;
  KernelExecution exec(
      net, scripted_factory({{1, 0}, {0, 1}, {0, 0}}), assign(3),
      std::make_unique<ProbeAdversary>( AdversaryClass::offline_adaptive, &log),
      {1, 2, {}});
  exec.run();
  EXPECT_EQ(log.offline, 2);
  EXPECT_EQ(log.online, 0);
  EXPECT_EQ(log.oblivious, 0);
}

TEST(Dispatch, OnlineSeesHistoryOnlyThroughPreviousRound) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  HookLog log;
  auto probe = std::make_unique<ProbeAdversary>(AdversaryClass::online_adaptive,
                                                &log);
  auto* probe_ptr = probe.get();
  KernelExecution exec(net, scripted_factory({{1, 0, 1}, {0, 0, 0}, {0, 0, 0}}),
                       assign(3), std::move(probe), {1, 3, {}});
  exec.step();
  EXPECT_EQ(probe_ptr->history_rounds_seen_, 0);  // round 0: empty history
  exec.step();
  EXPECT_EQ(probe_ptr->history_rounds_seen_, 1);  // round 1: one round back
  exec.step();
  EXPECT_EQ(probe_ptr->history_rounds_seen_, 2);
}

TEST(Dispatch, OfflineSeesTheRoundsActualTransmitters) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  HookLog log;
  auto probe = std::make_unique<ProbeAdversary>(
      AdversaryClass::offline_adaptive, &log);
  auto* probe_ptr = probe.get();
  KernelExecution exec(net, scripted_factory({{1}, {0}, {1}}), assign(3),
                       std::move(probe), {1, 1, {}});
  exec.step();
  EXPECT_EQ(probe_ptr->last_seen_transmitters_, (std::vector<int>{0, 2}));
}

TEST(Dispatch, BaseHooksThrowIfNotOverridden) {
  // An adversary claiming a class but not implementing its hook is a bug;
  // the base class traps it.
  class Lazy final : public LinkProcess {
   public:
    AdversaryClass adversary_class() const override {
      return AdversaryClass::oblivious;
    }
  };
  const DualGraph net = DualGraph::protocol(line_graph(2));
  KernelExecution exec(net, scripted_factory({{1}, {0}}), assign(2),
                       std::make_unique<Lazy>(), {1, 1, {}});
  EXPECT_THROW(exec.step(), ContractViolation);
}

TEST(Dispatch, InspectorReflectsPreRoundState) {
  // The dense/sparse adversary conditions on E[|X| | S] *before* coins are
  // drawn. With scripted (deterministic) processes the expectation equals
  // the actual transmitter count, evaluated for the same round.
  const DualGraph net = DualGraph::protocol(complete_graph(4));
  auto adversary = std::make_unique<DenseSparseOnline>(
      DenseSparseConfig{/*threshold_factor=*/0.5});
  auto* adv = adversary.get();
  // Round 0: three transmitters (dense: 3 > 0.5*log2(4)=1). Round 1: one
  // (sparse).
  KernelExecution exec(net, scripted_factory({{1, 1}, {1, 0}, {1, 0}, {0, 0}}),
                       assign(4), std::move(adversary), {1, 2, {}});
  exec.run();
  ASSERT_EQ(adv->labels().size(), 2u);
  EXPECT_EQ(adv->labels()[0], 1);
  EXPECT_EQ(adv->labels()[1], 0);
}

TEST(Dispatch, GreedyColliderFloodsOnlyMultiTransmitterRounds) {
  Graph g = line_graph(3);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  KernelExecution exec(net, scripted_factory({{1, 1}, {0, 1}, {0, 0}}),
                       assign(3), std::make_unique<GreedyColliderOffline>(),
                       {1, 2, {}});
  exec.run();
  EXPECT_EQ(exec.history().round(0).activated, EdgeSet::Kind::none);
  EXPECT_EQ(exec.history().round(1).activated, EdgeSet::Kind::all);
}

}  // namespace
}  // namespace dualcast
