// Kernel equivalence: every native kernel must replay bit-identically
// against the scalar adapter over its algorithm on the one engine — same
// transmitters, messages, deliveries, solve round, and E[|X| | S] in every
// round — across topologies, adversary classes (including adaptive ones,
// which read state through the kernel-backed StateInspector), and
// problems. Plus the batch-compatibility contract for problems, the
// engine's incremental holder count against a full scan, env_override on
// both kernel paths, and the blank kernel copies adversaries are handed.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "adversary/static_adversaries.hpp"
#include "scenario/registries.hpp"
#include "sim/kernel_execution.hpp"
#include "util/assert.hpp"
#include "util/simd.hpp"

namespace dualcast {
namespace {

using scenario::Topology;

struct Combo {
  std::string topology;
  std::string algorithm;
  std::string adversary;
  std::string problem;
  int max_rounds;
};

/// Runs `max_rounds` (or to solve) with the native kernel and with the
/// scalar adapter, and compares the full observable trace and, before every
/// round, the expected transmitter count.
void expect_engines_agree(
    const Combo& combo, std::uint64_t seed,
    const std::function<ProcessEnv(ProcessEnv)>& env_override = {}) {
  SCOPED_TRACE(combo.topology + " | " + combo.algorithm + " | " +
               combo.adversary + " | " + combo.problem);
  const Topology topo = scenario::topologies().build(combo.topology, 5);
  const ProcessFactory factory =
      scenario::algorithms().build(combo.algorithm);
  const KernelFactory kernel_factory =
      scenario::build_kernel_or_null(combo.algorithm);
  ASSERT_TRUE(kernel_factory) << "no kernel registered for "
                              << combo.algorithm;
  const auto adversary = [&] {
    return scenario::adversaries().build(combo.adversary, topo)();
  };
  const auto problem = [&] {
    return scenario::problems().build(combo.problem, topo)();
  };
  const auto config = [&] {
    return ExecutionConfig{}
        .with_seed(seed)
        .with_max_rounds(combo.max_rounds)
        .with_history_policy(HistoryPolicy::full)
        .with_env_override(env_override);
  };

  KernelExecution scalar(topo.net(), factory, problem(), adversary(),
                         config());
  KernelExecution kernel(topo.net(), factory, kernel_factory(), problem(),
                         adversary(), config());
  const StateInspector scalar_state(&scalar.kernel(), topo.net().n());
  const StateInspector kernel_state(&kernel.kernel(), topo.net().n());
  while (!scalar.done() && !kernel.done()) {
    // Exact: a kernel's sum must be the adapter's ascending per-node sum.
    ASSERT_EQ(scalar_state.expected_transmitters(scalar.round()),
              kernel_state.expected_transmitters(kernel.round()))
        << "round " << scalar.round();
    scalar.step();
    kernel.step();
  }

  ASSERT_EQ(scalar.solved(), kernel.solved());
  ASSERT_EQ(scalar.round(), kernel.round());
  EXPECT_EQ(scalar.first_receive_round(), kernel.first_receive_round());

  const auto& s_records = scalar.history().records();
  const auto& k_records = kernel.history().records();
  ASSERT_EQ(s_records.size(), k_records.size());
  for (std::size_t r = 0; r < s_records.size(); ++r) {
    const RoundRecord& a = s_records[r];
    const RoundRecord& b = k_records[r];
    ASSERT_EQ(a.transmitters, b.transmitters) << "round " << r;
    ASSERT_EQ(a.sent.size(), b.sent.size()) << "round " << r;
    for (std::size_t i = 0; i < a.sent.size(); ++i) {
      ASSERT_TRUE(a.sent[i] == b.sent[i]) << "round " << r << " tx " << i;
    }
    ASSERT_EQ(a.activated, b.activated) << "round " << r;
    ASSERT_EQ(a.activated_count, b.activated_count) << "round " << r;
    // activated_mask contents are unspecified scratch unless the round's
    // kind is mask (see RoundRecord).
    if (a.activated == EdgeSet::Kind::mask) {
      ASSERT_EQ(a.activated_mask, b.activated_mask) << "round " << r;
    }
    // The delivery *set* is engine-invariant; the emission order depends on
    // the resolver strategy.
    const auto key = [](const Delivery& d) {
      return std::tuple(d.receiver, d.sender, d.transmitter_index);
    };
    std::vector<std::tuple<int, int, int>> da;
    std::vector<std::tuple<int, int, int>> db;
    for_each_delivery(a, [&](const Delivery& d) { da.push_back(key(d)); });
    for_each_delivery(b, [&](const Delivery& d) { db.push_back(key(d)); });
    std::sort(da.begin(), da.end());
    std::sort(db.begin(), db.end());
    ASSERT_EQ(da, db) << "round " << r;
  }
}

TEST(KernelEngineEquivalence, DecayGlobalAcrossAdversaryClasses) {
  for (const char* adversary :
       {"none", "all", "iid(0.4)", "flicker(3,2)", "anti_schedule",
        "dense_sparse", "collider"}) {
    expect_engines_agree({"dual_clique(32)", "decay_global(fixed,persistent)",
                          adversary, "global(1)", 600},
                         11);
    expect_engines_agree({"dual_clique(32)",
                          "decay_global(permuted,persistent)", adversary,
                          "global(1)", 600},
                         12);
  }
  expect_engines_agree(
      {"line_overlay(48,4)", "decay_global(permuted)", "iid(0.5)",
       "global(0)", 800},
      13);
}

TEST(KernelEngineEquivalence, PermutedDecayWithTwoBitStrings) {
  // A second global source on the other side draws its own permuted bit
  // string, so holders carry two strings and no round has one shared ladder
  // index: every holder reads its own (a fallback no catalog problem
  // reaches). Both kernels that run the global decay schedule must still
  // replay the adapter, E[|X| | S] included.
  Message second;
  second.source = 30;
  second.payload = 0x30;
  const auto two_sources = [second](ProcessEnv env) {
    if (env.id == 30) {
      env.is_global_source = true;
      env.initial_message = second;
    }
    return env;
  };
  for (const char* adversary : {"none", "iid(0.4)", "dense_sparse"}) {
    expect_engines_agree({"dual_clique(48)",
                          "decay_global(permuted,persistent)", adversary,
                          "global(1)", 600},
                         61, two_sources);
    expect_engines_agree(
        {"dual_clique(48)", "robust_mix", adversary, "global(1)", 700}, 62,
        two_sources);
  }
}

TEST(KernelEngineEquivalence, LocalDecayAndRoundRobin) {
  for (const char* adversary : {"none", "iid(0.3)", "dense_sparse"}) {
    expect_engines_agree({"dual_clique(24)", "decay_local", adversary,
                          "local(side_a)", 400},
                         21);
    expect_engines_agree({"dual_clique(24)", "decay_local(permuted)",
                          adversary, "local(side_a)", 400},
                         22);
    expect_engines_agree({"dual_clique(24)", "round_robin", adversary,
                          "global(1)", 400},
                         23);
    expect_engines_agree({"dual_clique(24)", "round_robin(norelay)",
                          adversary, "local(side_a)", 400},
                         24);
  }
}

TEST(KernelEngineEquivalence, RobustMixAndGossip) {
  for (const char* adversary : {"none", "iid(0.4)", "collider"}) {
    expect_engines_agree({"dual_clique(24)", "robust_mix", adversary,
                          "global(1)", 700},
                         31);
    expect_engines_agree(
        {"line_overlay(32,3)", "gossip", adversary, "gossip(4)", 2500}, 32);
    // Quiescing gossip: the expiry windows gate both the coins and the
    // offer rotation, so the parity contract covers them too.
    expect_engines_agree(
        {"dual_clique(32)", "gossip(quiesce)", adversary, "gossip(2)", 2500},
        33);
  }
}

TEST(KernelEngineEquivalence, GeoLocalBothSeedModes) {
  for (const char* adversary : {"none", "iid(0.3)", "flicker(2,2)"}) {
    expect_engines_agree({"jgrid(8,8,0.5,0.05,2.0)", "geo_local", adversary,
                          "local(every(3))", 2000},
                         41);
    expect_engines_agree({"jgrid(8,8,0.5,0.05,2.0)", "geo_local(private)",
                          adversary, "local(every(3))", 2000},
                         42);
  }
  // Bracelet pre-simulation: construction-aware oblivious attack. The
  // native engine runs the bands on fresh() kernel copies under the
  // presim's id-rewriting env override, the adapter on the adapter.
  for (const char* algorithm :
       {"decay_local", "decay_global(permuted)", "geo_local"}) {
    expect_engines_agree({"bracelet(96)", algorithm, "bracelet_presim(0.3)",
                          "local(heads_a)", 600},
                         43);
  }
}

TEST(KernelEngineEquivalence, MultipleSeedsSpotCheck) {
  for (std::uint64_t seed = 100; seed < 106; ++seed) {
    expect_engines_agree({"jgrid(6,6,0.5,0.05,2.0)", "geo_local", "iid(0.5)",
                          "local(every(2))", 1500},
                         seed);
    expect_engines_agree({"dual_clique(48)",
                          "decay_global(permuted,persistent)", "dense_sparse",
                          "global(1)", 800},
                         seed);
  }
}

TEST(KernelEngineEquivalence, MultiBlockBothCoinPaths) {
  // dual_clique(200) spans three full 64-node blocks plus an 8-lane tail,
  // so the per-node coins run on dense 4-groups, single-lane groups and a
  // span that ends inside a block; once on the scalar twin, once
  // dispatched (AVX2 where the host has it).
  for (const bool scalar : {true, false}) {
    SCOPED_TRACE(scalar ? "force_scalar" : "dispatched");
    simd::force_scalar(scalar);
    for (const char* adversary : {"none", "dense_sparse"}) {
      expect_engines_agree({"dual_clique(200)",
                            "decay_global(fixed,persistent)", adversary,
                            "global(1)", 600},
                           51);
      expect_engines_agree({"dual_clique(200)",
                            "decay_global(permuted,persistent)", adversary,
                            "global(1)", 600},
                           52);
      expect_engines_agree({"dual_clique(200)", "decay_local", adversary,
                            "local(side_a)", 400},
                           53);
      expect_engines_agree({"dual_clique(200)", "decay_local(permuted)",
                            adversary, "local(side_a)", 400},
                           54);
      expect_engines_agree({"dual_clique(200)", "robust_mix", adversary,
                            "global(1)", 700},
                           55);
      expect_engines_agree({"dual_clique(200)", "gossip(quiesce)", adversary,
                            "gossip(2)", 2500},
                           56);
    }
  }
  simd::force_scalar(false);
}

TEST(KernelEngineContract, NonBatchProblemRequiresAdapter) {
  // A problem that does not declare batch_compatible() cannot run on a
  // process-less kernel...
  class OpaqueProblem final : public Problem {
   public:
    std::string name() const override { return "opaque"; }
    bool is_source(int v) const override { return v == 0; }
    bool solved(
        const std::vector<std::unique_ptr<Process>>& procs) const override {
      return !procs.empty() && procs[0]->has_message();
    }
  };
  const Topology topo = scenario::topologies().build("dual_clique(8)", 5);
  const ProcessFactory factory = scenario::algorithms().build("round_robin");
  const KernelFactory kernel = scenario::build_kernel_or_null("round_robin");
  const auto adversary = scenario::adversaries().build("none", topo);
  EXPECT_THROW(KernelExecution(topo.net(), factory, kernel(),
                               std::make_shared<OpaqueProblem>(), adversary(),
                               ExecutionConfig{}.with_seed(1)),
               ContractViolation);
  // ...and runs fine through the scalar adapter.
  KernelExecution exec(topo.net(), factory,
                       make_scalar_kernel_adapter(factory),
                       std::make_shared<OpaqueProblem>(), adversary(),
                       ExecutionConfig{}.with_seed(1).with_max_rounds(4));
  exec.run();
  EXPECT_TRUE(exec.solved());
}

TEST(KernelEngineContract, AdversariesGetBlankCopiesOfTheKernel) {
  // The engine hands adversaries a factory of fresh() copies of its kernel
  // — new objects, never the live one — when the kernel offers them, and an
  // empty factory otherwise: the scalar adapter, and the kernels whose
  // slots and token sources key on node indices.
  class SetupProbe final : public LinkProcess {
   public:
    explicit SetupProbe(std::vector<std::unique_ptr<AlgorithmKernel>>& made)
        : made_(&made) {}
    AdversaryClass adversary_class() const override {
      return AdversaryClass::oblivious;
    }
    void on_execution_start(const ExecutionSetup& setup, Rng&) override {
      if (!setup.kernel) return;
      made_->push_back(setup.kernel());
      made_->push_back(setup.kernel());
    }

   private:
    std::vector<std::unique_ptr<AlgorithmKernel>>* made_;
  };
  const std::map<std::string, std::pair<std::string, bool>> cases = {
      {"decay_global", {"global(1)", true}},
      {"decay_local", {"local(every(3))", true}},
      {"geo_local", {"local(every(3))", true}},
      {"round_robin", {"global(1)", false}},
      {"robust_mix", {"global(1)", false}},
      {"gossip", {"gossip(3)", false}},
  };
  const Topology topo = scenario::topologies().build("dual_clique(16)", 5);
  for (const auto* entry : scenario::kernels().entries()) {
    const auto found = cases.find(entry->name);
    ASSERT_NE(found, cases.end()) << "no case for kernel " << entry->name;
    const auto& [problem, offers] = found->second;
    const ProcessFactory factory = scenario::algorithms().build(entry->name);
    for (const bool adapter : {false, true}) {
      SCOPED_TRACE(entry->name + (adapter ? " | adapter" : ""));
      std::vector<std::unique_ptr<AlgorithmKernel>> made;
      const KernelExecution exec(
          topo.net(), factory,
          adapter ? make_scalar_kernel_adapter(factory)
                  : scenario::build_kernel_or_null(entry->name)(),
          scenario::problems().build(problem, topo)(),
          std::make_unique<SetupProbe>(made), ExecutionConfig{}.with_seed(3));
      if (adapter || !offers) {
        EXPECT_TRUE(made.empty());
        continue;
      }
      ASSERT_EQ(made.size(), 2u);
      ASSERT_NE(made[0], nullptr);
      ASSERT_NE(made[1], nullptr);
      EXPECT_NE(made[0].get(), made[1].get());
      EXPECT_NE(made[0].get(), &exec.kernel());
      EXPECT_EQ(made[0]->processes(), nullptr);
    }
  }
}

/// The scan-based rule the engine's holder count must agree with: the
/// NodeStateView default message_holders() asks every node.
class ScanView final : public NodeStateView {
 public:
  explicit ScanView(const KernelExecution& exec) : exec_(&exec) {}
  int n() const override { return exec_->net().n(); }
  bool has_message(int v) const override {
    return exec_->kernel().has_message(v);
  }

 private:
  const KernelExecution* exec_;
};

TEST(KernelEngineCompletion, HolderCountMatchesScanEveryRound) {
  // Every registered kernel with a problem it can solve, on a dual clique
  // and a jittered grid, under one adversary per class (oblivious, online
  // adaptive, offline adaptive) — and the scalar adapter over the same
  // algorithm, which keeps no count and answers by scanning its processes.
  const std::map<std::string, std::string> problem_of = {
      {"decay_global", "global(1)"},     {"robust_mix", "global(1)"},
      {"round_robin", "global(1)"},      {"gossip", "gossip(3)"},
      {"decay_local", "local(every(3))"}, {"geo_local", "local(every(3))"},
  };
  for (const auto* entry : scenario::kernels().entries()) {
    const auto problem = problem_of.find(entry->name);
    ASSERT_NE(problem, problem_of.end())
        << "no problem chosen for kernel " << entry->name;
    for (const char* topology :
         {"dual_clique(32)", "jgrid(6,6,0.5,0.05,2.0)"}) {
      const Topology topo = scenario::topologies().build(topology, 5);
      for (const char* adversary : {"iid(0.3)", "dense_sparse", "collider"}) {
        for (const bool adapter : {false, true}) {
          SCOPED_TRACE(entry->name + " | " + topology + " | " + adversary +
                       (adapter ? " | adapter" : ""));
          const ProcessFactory factory =
              scenario::algorithms().build(entry->name);
          KernelExecution exec(
              topo.net(), factory,
              adapter ? make_scalar_kernel_adapter(factory)
                      : scenario::build_kernel_or_null(entry->name)(),
              scenario::problems().build(problem->second, topo)(),
              scenario::adversaries().build(adversary, topo)(),
              ExecutionConfig{}.with_seed(9).with_max_rounds(400));
          const ScanView scan(exec);
          while (true) {
            ASSERT_EQ(exec.message_holders(), scan.message_holders())
                << "round " << exec.round();
            ASSERT_EQ(exec.solved(), exec.problem().solved_batch(scan))
                << "round " << exec.round();
            if (exec.done()) break;
            exec.step();
          }
        }
      }
    }
  }
}

TEST(KernelEngineEnvOverride, MovedSourceRoleTransmitsFirst) {
  // The problem makes node 1 the source; the override hands the role (and
  // the message) to node 5. Global decay's round 0 is the source's
  // transmission, so round 0's only transmitter must be node 5 — through
  // the scalar adapter and through the native kernel alike.
  const Topology topo = scenario::topologies().build("dual_clique(8)", 5);
  const std::string algo = "decay_global(fixed,persistent)";
  const ProcessFactory factory = scenario::algorithms().build(algo);
  Message moved;
  moved.source = 5;
  moved.payload = 0x5;
  const ExecutionConfig config =
      ExecutionConfig{}
          .with_seed(4)
          .with_max_rounds(3)
          .with_history_policy(HistoryPolicy::full)
          .with_env_override([moved](ProcessEnv env) {
            env.is_global_source = env.id == 5;
            env.initial_message = env.id == 5 ? moved : Message{};
            return env;
          });
  const auto problem = [&] {
    return std::make_shared<GlobalBroadcastProblem>(topo.net(), 1);
  };
  const auto expect_round0 = [&](const RoundRecord& round0) {
    ASSERT_EQ(round0.transmitters, std::vector<int>{5});
    EXPECT_TRUE(round0.sent[0] == moved);
  };
  for (const bool adapter : {true, false}) {
    SCOPED_TRACE(adapter ? "scalar adapter" : "native kernel");
    KernelExecution exec(topo.net(), factory,
                         adapter ? make_scalar_kernel_adapter(factory)
                                 : scenario::build_kernel_or_null(algo)(),
                         problem(), std::make_unique<NoExtraEdges>(), config);
    exec.step();
    expect_round0(exec.history().round(0));
  }
}

}  // namespace
}  // namespace dualcast
