// ExecutionHistory bookkeeping: totals, per-round records, adversary-choice
// accounting, bounds checking, and the lean (aggregates-only) retention
// policy including its O(n)-memory guarantee.

#include <gtest/gtest.h>

#include "adversary/dense_sparse.hpp"
#include "adversary/static_adversaries.hpp"
#include "graph/generators.hpp"
#include "sim/kernel_execution.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

using testing::scripted_factory;

std::shared_ptr<Problem> assign(int n) {
  return std::make_shared<AssignmentProblem>(n, -1, std::vector<int>{});
}

/// Transmits every `period` rounds, forever. Keeps long-horizon executions
/// cheap (no per-round state accumulation, unlike ScriptedProcess).
ProcessFactory periodic_factory(int period) {
  return [period](const ProcessEnv&) {
    class Periodic final : public InspectableProcess {
     public:
      explicit Periodic(int period) : period_(period) {}
      bool transmits(int round) const {
        return (round + env_.id) % period_ == 0;
      }
      Action on_round(int round, Rng&) override {
        if (!transmits(round)) return Action::listen();
        Message m;
        m.source = env_.id;
        return Action::send(m);
      }
      double transmit_probability(int round) const override {
        return transmits(round) ? 1.0 : 0.0;
      }

     private:
      int period_;
    };
    return std::make_unique<Periodic>(period);
  };
}

DualGraph ring_with_chords(int n) {
  Graph g = ring_graph(n);
  Graph gp = ring_graph(n);
  for (int v = 0; v + 2 < n; v += 2) gp.add_edge(v, v + 2);
  gp.finalize();
  return DualGraph(std::move(g), std::move(gp));
}

TEST(History, TotalsMatchRecords) {
  const DualGraph net = DualGraph::protocol(line_graph(4));
  // Rounds: r0 nodes {0}, r1 {0,2}, r2 {} transmit.
  KernelExecution exec(
      net, scripted_factory({{1, 1, 0}, {0, 0, 0}, {0, 1, 0}, {0, 0, 0}}),
      assign(4), std::make_unique<NoExtraEdges>(), {1, 3, {}});
  exec.run();
  EXPECT_EQ(exec.history().rounds(), 3);
  EXPECT_EQ(exec.history().total_transmissions(), 3);
  // r0: 0 -> 1 delivered. r1: 0 and 2 collide at 1, but 3 hears only 2.
  EXPECT_EQ(exec.history().total_deliveries(), 2);
}

TEST(History, RoundAccessorBoundsChecked) {
  const DualGraph net = DualGraph::protocol(line_graph(2));
  KernelExecution exec(net, scripted_factory({{1}, {0}}), assign(2),
                       std::make_unique<NoExtraEdges>(), {1, 1, {}});
  exec.run();
  EXPECT_NO_THROW(exec.history().round(0));
  EXPECT_THROW(exec.history().round(1), ContractViolation);
  EXPECT_THROW(exec.history().round(-1), ContractViolation);
}

TEST(History, SentMessagesParallelTransmitters) {
  const DualGraph net = DualGraph::protocol(line_graph(3));
  KernelExecution exec(net, scripted_factory({{1}, {0}, {1}}), assign(3),
                       std::make_unique<NoExtraEdges>(), {1, 1, {}});
  exec.run();
  const RoundRecord& rec = exec.history().round(0);
  ASSERT_EQ(rec.transmitters.size(), rec.sent.size());
  for (std::size_t i = 0; i < rec.transmitters.size(); ++i) {
    EXPECT_EQ(rec.sent[i].source, rec.transmitters[i]);
  }
}

TEST(History, ActivatedAccountingPerKind) {
  Graph g = line_graph(3);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  {
    KernelExecution exec(net, scripted_factory({{1}, {0}, {0}}), assign(3),
                         std::make_unique<NoExtraEdges>(), {1, 1, {}});
    exec.run();
    EXPECT_EQ(exec.history().round(0).activated, EdgeSet::Kind::none);
    EXPECT_EQ(exec.history().round(0).activated_count, 0);
    EXPECT_TRUE(exec.history().round(0).activated_mask.empty());
  }
  {
    KernelExecution exec(net, scripted_factory({{1}, {0}, {0}}), assign(3),
                         std::make_unique<AllExtraEdges>(), {1, 1, {}});
    exec.run();
    EXPECT_EQ(exec.history().round(0).activated, EdgeSet::Kind::all);
    EXPECT_EQ(exec.history().round(0).activated_count, 1);
  }
  {
    KernelExecution exec(net, scripted_factory({{1}, {0}, {0}}), assign(3),
                         std::make_unique<RandomIidEdges>(1.0), {1, 1, {}});
    exec.run();
    // p=1.0 short-circuits to Kind::all inside RandomIidEdges.
    EXPECT_EQ(exec.history().round(0).activated, EdgeSet::Kind::all);
  }
}

TEST(History, MaskKindRecordsExactEdgeSet) {
  Graph g = line_graph(4);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.add_edge(1, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));

  class PickFirst final : public LinkProcess {
   public:
    AdversaryClass adversary_class() const override {
      return AdversaryClass::oblivious;
    }
    void choose_oblivious(int, Rng&, EdgeSet& out) override {
      out = EdgeSet::some({0});
    }
  };
  KernelExecution exec(net, scripted_factory({{1}, {0}, {0}, {0}}), assign(4),
                       std::make_unique<PickFirst>(), {1, 1, {}});
  exec.run();
  const RoundRecord& rec = exec.history().round(0);
  EXPECT_EQ(rec.activated, EdgeSet::Kind::mask);
  EXPECT_EQ(rec.activated_count, 1);
  std::vector<std::int64_t> bits;
  for_each_mask_bit(rec.activated_mask, [&](std::int64_t e) {
    bits.push_back(e);
  });
  EXPECT_EQ(bits, (std::vector<std::int64_t>{0}));
}

TEST(History, EmptySelectionCollapsesToNone) {
  // EdgeSet::some({}) — and any all-zero mask — must normalize to
  // Kind::none, so no-op rounds take the resolver's no-overlay fast path.
  Graph g = line_graph(4);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));

  class EmptySome final : public LinkProcess {
   public:
    AdversaryClass adversary_class() const override {
      return AdversaryClass::oblivious;
    }
    void choose_oblivious(int, Rng&, EdgeSet& out) override {
      out = EdgeSet::some({});
    }
  };
  KernelExecution exec(net, scripted_factory({{1}, {0}, {0}, {0}}), assign(4),
                       std::make_unique<EmptySome>(), {1, 1, {}});
  exec.run();
  const RoundRecord& rec = exec.history().round(0);
  EXPECT_EQ(rec.activated, EdgeSet::Kind::none);
  EXPECT_EQ(rec.activated_count, 0);
  EXPECT_TRUE(rec.activated_mask.empty());
}

TEST(History, EngineRejectsOutOfRangeEdgeIndices) {
  Graph g = line_graph(3);
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));

  class BadIndices final : public LinkProcess {
   public:
    AdversaryClass adversary_class() const override {
      return AdversaryClass::oblivious;
    }
    void choose_oblivious(int, Rng&, EdgeSet& out) override {
      out = EdgeSet::some({5});  // only index 0 exists
    }
  };
  KernelExecution exec(net, scripted_factory({{1}, {0}, {0}}), assign(3),
                       std::make_unique<BadIndices>(), {1, 1, {}});
  EXPECT_THROW(exec.step(), ContractViolation);
}

// ---------------------------------------------------------------------------
// HistoryPolicy::lean
// ---------------------------------------------------------------------------

TEST(HistoryPolicyTest, LeanKeepsAggregatesDropsTrace) {
  // Two executions with the same seed replay identically, so lean must
  // reproduce every aggregate the full policy computes.
  const DualGraph net = ring_with_chords(8);
  const auto make = [&](HistoryPolicy policy) {
    return std::make_unique<KernelExecution>(
        net, periodic_factory(3), assign(8),
        std::make_unique<RandomIidEdges>(0.5),
        ExecutionConfig{}
            .with_seed(21)
            .with_max_rounds(40)
            .with_history_policy(policy));
  };
  const auto full = make(HistoryPolicy::full);
  const auto lean = make(HistoryPolicy::lean);
  full->run();
  lean->run();
  EXPECT_EQ(full->history_policy(), HistoryPolicy::full);
  EXPECT_EQ(lean->history_policy(), HistoryPolicy::lean);
  EXPECT_EQ(lean->history().rounds(), full->history().rounds());
  EXPECT_EQ(lean->history().total_transmissions(),
            full->history().total_transmissions());
  EXPECT_EQ(lean->history().total_deliveries(),
            full->history().total_deliveries());
  EXPECT_EQ(lean->first_receive_round(), full->first_receive_round());
  // The per-round trace is gone under lean — accessing it is a contract
  // violation, not a silent empty read...
  EXPECT_THROW(lean->history().round(0), ContractViolation);
  EXPECT_THROW(lean->history().records(), ContractViolation);
  // ...but the most recent record stays available under both policies.
  EXPECT_EQ(lean->history().last().transmitters,
            full->history().last().transmitters);
  EXPECT_EQ(lean->history().last().activated,
            full->history().last().activated);
}

TEST(HistoryPolicyTest, LeanMemoryIsIndependentOfRoundCountOver50kRounds) {
  // The history_cap guard: under lean the trace must not grow with the
  // round count. Run 50k rounds (with a `some`-kind adversary so record
  // buffers are exercised every round) and assert the history footprint is
  // O(n) — identical to a 1k-round run and far below the full trace.
  const DualGraph net = ring_with_chords(16);
  const auto footprint_after = [&](int rounds) {
    KernelExecution exec(net, periodic_factory(4), assign(16),
                         std::make_unique<RandomIidEdges>(0.5),
                         ExecutionConfig{}
                             .with_seed(5)
                             .with_max_rounds(rounds)
                             .with_history_policy(HistoryPolicy::lean));
    exec.run();
    EXPECT_EQ(exec.history().rounds(), rounds);
    return exec.history().approx_bytes();
  };
  const std::size_t small = footprint_after(1000);
  const std::size_t large = footprint_after(50000);
  // 50x the rounds, same O(n) footprint. (Buffer capacities track the
  // largest single round seen, never the round count, so allow only the
  // slack of one doubling.)
  EXPECT_LE(large, 2 * small);
  EXPECT_LT(large, 64u * 1024u);
}

TEST(HistoryPolicyTest, AdaptiveAdversaryForcesFullFallback) {
  // An adaptive adversary that does not override needs_history() claims the
  // trace, so a lean request silently falls back to full.
  class TraceReader final : public LinkProcess {
   public:
    AdversaryClass adversary_class() const override {
      return AdversaryClass::online_adaptive;
    }
    void choose_online(int, const ExecutionHistory&, const StateInspector&,
                       Rng&, EdgeSet& out) override {
      out.set_none();
    }
  };
  const DualGraph net = ring_with_chords(6);
  KernelExecution exec(net, periodic_factory(2), assign(6),
                       std::make_unique<TraceReader>(),
                       ExecutionConfig{}
                           .with_seed(3)
                           .with_max_rounds(10)
                           .with_history_policy(HistoryPolicy::lean));
  exec.run();
  EXPECT_EQ(exec.history_policy(), HistoryPolicy::full);
  EXPECT_NO_THROW(exec.history().round(9));
}

TEST(HistoryPolicyTest, DeclaredNonReadersHonorLean) {
  // DenseSparseOnline is adaptive but declares needs_history() == false
  // (it reads only the StateInspector), so lean is honored.
  const DualGraph net = ring_with_chords(8);
  KernelExecution exec(net, periodic_factory(2), assign(8),
                       std::make_unique<DenseSparseOnline>(DenseSparseConfig{}),
                       ExecutionConfig{}
                           .with_seed(3)
                           .with_max_rounds(10)
                           .with_history_policy(HistoryPolicy::lean));
  exec.run();
  EXPECT_EQ(exec.history_policy(), HistoryPolicy::lean);
}

}  // namespace
}  // namespace dualcast
