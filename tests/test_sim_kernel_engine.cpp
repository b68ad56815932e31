// Kernel equivalence: every built-in kernel must replay bit-identically
// against the scalar adapter over its algorithm's reference Process
// (tests/reference/) on the one engine — same transmitters, messages,
// deliveries, solve round, and E[|X| | S] in every round — across
// topologies, adversary classes (including adaptive ones, which read state
// through the kernel-backed StateInspector, and the bracelet
// pre-simulation, which re-runs the algorithm it is built with), and
// problems. Plus the batch-compatibility contract for problems, the
// engine's incremental holder count against a full scan, and env_override
// ids and sizes on both sides.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "adversary/static_adversaries.hpp"
#include "reference/factories.hpp"
#include "scenario/registries.hpp"
#include "scenario/scenario.hpp"
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

/// Runs `max_rounds` (or to solve) with the built-in kernel and with the
/// scalar adapter over the reference, and compares the full observable
/// trace and, before every round, the expected transmitter count. Each
/// side's adversary is built with that side's algorithm.
void expect_engines_agree(
    const Combo& combo, std::uint64_t seed,
    const std::function<ProcessEnv(ProcessEnv)>& env_override = {}) {
  SCOPED_TRACE(combo.topology + " | " + combo.algorithm + " | " +
               combo.adversary + " | " + combo.problem);
  const Topology topo = scenario::topologies().build(combo.topology, 5);
  const KernelFactory reference = reference_kernel(combo.algorithm);
  const KernelFactory kernel_factory =
      scenario::algorithms().build(combo.algorithm);
  const auto adversary = [&](const KernelFactory& algorithm) {
    return scenario::adversaries().build(combo.adversary, topo, algorithm)();
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

  KernelExecution scalar(topo.net(), reference(), problem(),
                         adversary(reference), config());
  KernelExecution kernel(topo.net(), kernel_factory(), problem(),
                         adversary(kernel_factory), config());
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
  // Bracelet pre-simulation: construction-aware oblivious attack. Each
  // side's adversary runs the bands on its own algorithm — the built-in
  // kernel or the reference on the adapter — under the presim's
  // id-rewriting env override, for every built-in.
  const std::map<std::string, std::string> problem_of = {
      {"decay_local", "local(heads_a)"},
      {"decay_global(permuted)", "global(clasp_a)"},
      {"geo_local", "local(heads_a)"},
      {"round_robin", "local(heads_a)"},
      {"robust_mix", "global(clasp_a)"},
      {"gossip", "gossip(4)"},
  };
  for (const auto& [algorithm, problem] : problem_of) {
    expect_engines_agree(
        {"bracelet(96)", algorithm, "bracelet_presim(0.3)", problem, 600}, 43);
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

/// A problem that reads Process objects: not batch_compatible().
class OpaqueProblem final : public Problem {
 public:
  std::string name() const override { return "opaque"; }
  bool is_source(int v) const override { return v == 0; }
  bool solved(
      const std::vector<std::unique_ptr<Process>>& procs) const override {
    return !procs.empty() && procs[0]->has_message();
  }
};

TEST(KernelEngineContract, NonBatchProblemRequiresAdapter) {
  // A problem that does not declare batch_compatible() cannot run on a
  // process-less kernel...
  const Topology topo = scenario::topologies().build("dual_clique(8)", 5);
  const KernelFactory kernel = scenario::algorithms().build("round_robin");
  const auto adversary = scenario::adversaries().build("none", topo, kernel);
  EXPECT_THROW(KernelExecution(topo.net(), kernel(),
                               std::make_shared<OpaqueProblem>(), adversary(),
                               ExecutionConfig{}.with_seed(1)),
               ContractViolation);
  // ...runs fine on the scalar adapter around a Process...
  KernelExecution exec(topo.net(), reference_kernel("round_robin")(),
                       std::make_shared<OpaqueProblem>(), adversary(),
                       ExecutionConfig{}.with_seed(1).with_max_rounds(4));
  exec.run();
  EXPECT_TRUE(exec.solved());

  // ...and a scenario that pairs it with a built-in fails with an error
  // naming both.
  if (!scenario::problems().contains("opaque_test")) {
    scenario::problems().add(
        "opaque_test", "a problem that reads Process objects",
        [](const scenario::SpecArgs&, const Topology&) {
          return scenario::ProblemFactory(
              [] { return std::make_shared<OpaqueProblem>(); });
        });
  }
  scenario::ScenarioSpec spec;
  spec.name = "test/opaque";
  spec.topology = "dual_clique({x})";
  spec.problem = "opaque_test";
  spec.sweep = {8};
  spec.trials = 1;
  spec.max_rounds = "4";
  spec.columns = {{"robin", "round_robin(relay)", "none", ""}};
  try {
    scenario::run_scenario(spec);
    ADD_FAILURE() << "a built-in paired with a Process-reading problem ran";
  } catch (const scenario::ScenarioError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("\"opaque_test\""), std::string::npos) << what;
    EXPECT_NE(what.find("\"round_robin(relay)\""), std::string::npos) << what;
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
  // Every registered algorithm with a problem it can solve, on a dual clique
  // and a jittered grid, under one adversary per class (oblivious, online
  // adaptive, offline adaptive) — and the scalar adapter over the same
  // algorithm, which keeps no count and answers by scanning its processes.
  const std::map<std::string, std::string> problem_of = {
      {"decay_global", "global(1)"},     {"robust_mix", "global(1)"},
      {"round_robin", "global(1)"},      {"gossip", "gossip(3)"},
      {"decay_local", "local(every(3))"}, {"geo_local", "local(every(3))"},
  };
  for (const auto* entry : scenario::algorithms().entries()) {
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
          const KernelFactory algorithm =
              adapter ? reference_kernel(entry->name)
                      : scenario::algorithms().build(entry->name);
          KernelExecution exec(
              topo.net(), algorithm(),
              scenario::problems().build(problem->second, topo)(),
              scenario::adversaries().build(adversary, topo, algorithm)(),
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
  // the reference on the scalar adapter and through the kernel alike.
  const Topology topo = scenario::topologies().build("dual_clique(8)", 5);
  const std::string algo = "decay_global(fixed,persistent)";
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
    SCOPED_TRACE(adapter ? "reference" : "kernel");
    KernelExecution exec(topo.net(),
                         adapter ? reference_kernel(algo)()
                                 : scenario::algorithms().build(algo)(),
                         problem(), std::make_unique<NoExtraEdges>(), config);
    exec.step();
    expect_round0(exec.history().round(0));
  }
}

TEST(KernelEngineEnvOverride, EveryKernelFollowsRewrittenIdsAndSize) {
  // The override reverses the ids, presents a network three nodes larger
  // than the real one, and has each message source name its holder's new
  // id, as the bracelet pre-simulation's bands present their nodes.
  // Round robin's slots (three of them owned by no node), relayed gossip
  // tokens and geo seeds carry the rewritten ids; the decay ladders follow
  // the larger n. Every kernel must still replay its reference.
  const auto rewrite = [](ProcessEnv env) {
    env.id = env.n - 1 - env.id;
    env.n += 3;
    if (env.initial_message.source >= 0) {
      env.initial_message.source = env.id;
    }
    return env;
  };
  const std::map<std::string, std::pair<std::string, std::string>> cases = {
      {"decay_global(permuted,persistent)", {"dual_clique(24)", "global(1)"}},
      {"decay_local(permuted)", {"dual_clique(24)", "local(side_a)"}},
      {"geo_local", {"jgrid(6,6,0.5,0.05,2.0)", "local(every(3))"}},
      {"round_robin", {"dual_clique(24)", "global(1)"}},
      {"robust_mix", {"dual_clique(24)", "global(1)"}},
      {"gossip(quiesce)", {"line_overlay(24,3)", "gossip(3)"}},
  };
  for (const auto& [algorithm, where] : cases) {
    for (const char* adversary : {"iid(0.3)", "dense_sparse"}) {
      expect_engines_agree(
          {where.first, algorithm, adversary, where.second, 1500}, 71,
          rewrite);
    }
  }
}

}  // namespace
}  // namespace dualcast
