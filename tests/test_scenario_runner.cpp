// ScenarioRunner: determinism (identical JSON rows and console text for
// identical specs, at one worker and many), spec errors before any trial,
// censoring, metric handling, smoke scaling, and the scenario catalog's
// acceptance surface.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trials.hpp"
#include "scenario/scenario.hpp"

namespace dualcast::scenario {
namespace {

ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "test/small";
  spec.topology = "dual_clique({x})";
  spec.problem = "global(1)";
  spec.sweep = {16, 32};
  spec.trials = 4;
  spec.base_seed = 9;
  spec.max_rounds = "200*n";
  spec.columns = {
      {"decay+iid", "decay_global(permuted,persistent)", "iid(0.5)", ""},
      {"robin+collider", "round_robin", "collider", ""},
  };
  return spec;
}

std::vector<std::string> rows_of(const ScenarioResult& result) {
  std::vector<std::string> rows;
  append_json_rows(result, rows);
  return rows;
}

TEST(ScenarioRunner, SameSpecSameSeedSameRows) {
  const ScenarioResult a = run_scenario(small_spec());
  const ScenarioResult b = run_scenario(small_spec());
  EXPECT_EQ(rows_of(a), rows_of(b));
}

TEST(ScenarioRunner, MultiThreadedMatchesSingleThreadedBitForBit) {
  RunOptions sequential;
  sequential.sweep_threads = 1;
  RunOptions pooled;
  pooled.sweep_threads = 4;
  const ScenarioResult a = run_scenario(small_spec(), sequential);
  const ScenarioResult b = run_scenario(small_spec(), pooled);
  const std::vector<std::string> rows_a = rows_of(a);
  EXPECT_EQ(rows_a, rows_of(b));
  ASSERT_FALSE(rows_a.empty());
  // Medians and raw trial values agree point by point, cell by cell.
  ASSERT_EQ(a.points.size(), b.points.size());
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    ASSERT_EQ(a.points[p].cells.size(), b.points[p].cells.size());
    for (std::size_t c = 0; c < a.points[p].cells.size(); ++c) {
      EXPECT_EQ(a.points[p].cells[c].median, b.points[p].cells[c].median);
      EXPECT_EQ(a.points[p].cells[c].values, b.points[p].cells[c].values);
    }
  }
}

TEST(ScenarioRunner, SweepSchedulerBitIdenticalAcrossWorkerCounts) {
  // The scheduler flattens (point × column × trial) into one queue; every
  // worker count must reproduce the default (one-worker) rows bit for bit.
  RunOptions sequential;
  const std::vector<std::string> reference =
      rows_of(run_scenario(small_spec(), sequential));
  ASSERT_FALSE(reference.empty());
  for (const int workers : {1, 2, 8}) {
    RunOptions swept;
    swept.sweep_threads = workers;
    EXPECT_EQ(rows_of(run_scenario(small_spec(), swept)), reference)
        << "sweep_threads=" << workers;
  }
}

TEST(ScenarioRunner, LeanAndFullHistoryProduceIdenticalResults) {
  RunOptions lean;
  lean.history = HistoryPolicy::lean;
  RunOptions full;
  full.history = HistoryPolicy::full;
  EXPECT_EQ(rows_of(run_scenario(small_spec(), lean)),
            rows_of(run_scenario(small_spec(), full)));
}

TEST(ScenarioCatalogTest, LeanHistoryMatchesFullOnEveryCatalogScenario) {
  // Measured results may never depend on history retention: for every
  // catalog scenario (smoke scale), a lean run — which each execution
  // honors or falls back from per its adversary's/problem's
  // needs_history() — must match a forced-full run row for row.
  for (const ScenarioSpec* spec : scenarios().all()) {
    RunOptions lean;
    lean.smoke = true;
    lean.history = HistoryPolicy::lean;
    RunOptions full;
    full.smoke = true;
    full.history = HistoryPolicy::full;
    EXPECT_EQ(rows_of(run_scenario(*spec, lean)),
              rows_of(run_scenario(*spec, full)))
        << spec->name;
  }
}

TEST(ScenarioCatalogTest, SweepSchedulerMatchesSequentialOnEveryCatalogScenario) {
  // The parallel sweep scheduler must be bit-identical to the sequential
  // runner on every catalog scenario, not just hand-picked specs.
  for (const ScenarioSpec* spec : scenarios().all()) {
    RunOptions sequential;
    sequential.smoke = true;
    RunOptions swept;
    swept.smoke = true;
    swept.sweep_threads = 8;
    EXPECT_EQ(rows_of(run_scenario(*spec, swept)),
              rows_of(run_scenario(*spec, sequential)))
        << spec->name;
  }
}

TEST(ScenarioCatalogTest, KernelEngineMatchesScalarOnEveryCatalogScenario) {
  // The native kernels must reproduce the scalar adapter's rows (what
  // --engine scalar forces) byte for byte on every catalog scenario — the
  // bit-identical contract of the kernel ports.
  for (const ScenarioSpec* spec : scenarios().all()) {
    RunOptions scalar;
    scalar.smoke = true;
    scalar.engine = EnginePath::scalar;
    RunOptions kernel;
    kernel.smoke = true;
    kernel.engine = EnginePath::kernel;
    EXPECT_EQ(rows_of(run_scenario(*spec, kernel)),
              rows_of(run_scenario(*spec, scalar)))
        << spec->name;
  }
}

TEST(ScenarioRunner, ScenarioLevelSchedulerBitIdentical) {
  // run_scenarios flattens (scenario × point × column × trial) into one
  // queue; any worker count must reproduce the per-scenario sequential
  // rows, in selection order.
  ScenarioSpec a = small_spec();
  ScenarioSpec b = small_spec();
  b.name = "test/small-2";
  b.base_seed = 77;
  ScenarioSpec c = small_spec();
  c.name = "test/small-3";
  c.topology = "line_overlay({x},3)";
  const std::vector<const ScenarioSpec*> selection{&a, &b, &c};

  std::vector<std::string> reference;
  for (const ScenarioSpec* spec : selection) {
    const ScenarioResult result = run_scenario(*spec);
    append_json_rows(result, reference);
  }
  ASSERT_FALSE(reference.empty());
  for (const int workers : {1, 2, 8}) {
    RunOptions options;
    options.sweep_threads = workers;
    std::vector<std::string> rows;
    for (const ScenarioResult& result : run_scenarios(selection, options)) {
      append_json_rows(result, rows);
    }
    EXPECT_EQ(rows, reference) << "sweep_threads=" << workers;
  }
}

TEST(ScenarioRunner, SchedulerPrintsTheSameTextAtAnyWorkerCount) {
  // Output is printed after the queue drains, in selection order, so the
  // console text cannot depend on which worker finished first.
  ScenarioSpec a = small_spec();
  a.title = "first-banner";
  ScenarioSpec b = small_spec();
  b.name = "test/small-2";
  b.title = "second-banner";
  b.base_seed = 77;
  const std::vector<const ScenarioSpec*> selection{&a, &b};

  std::ostringstream one;
  RunOptions one_worker;
  one_worker.out = &one;
  run_scenarios(selection, one_worker);
  std::ostringstream four;
  RunOptions four_workers;
  four_workers.sweep_threads = 4;
  four_workers.out = &four;
  run_scenarios(selection, four_workers);

  const std::string text = one.str();
  EXPECT_EQ(four.str(), text);
  const std::size_t first = text.find("=== first-banner ===");
  const std::size_t second = text.find("=== second-banner ===");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(second, std::string::npos);
  EXPECT_LT(first, second);
}

TEST(ScenarioRunner, SpecErrorAnywhereInSelectionThrowsBeforeAnyTrial) {
  // Every plan of the selection is prepared before the first trial runs,
  // so a bad round budget in the last scenario costs no trials.
  ScenarioSpec good = small_spec();
  ScenarioSpec bad = small_spec();
  bad.name = "test/bad-budget";
  bad.max_rounds = "300*bogus_var";
  const std::vector<const ScenarioSpec*> selection{&good, &bad};
  for (const int workers : {1, 4}) {
    RunOptions options;
    options.sweep_threads = workers;
    const std::uint64_t before = trials_executed();
    EXPECT_THROW(run_scenarios(selection, options), ScenarioError)
        << "sweep_threads=" << workers;
    EXPECT_EQ(trials_executed(), before) << "sweep_threads=" << workers;
  }
}

TEST(ScenarioRunner, DifferentSeedsChangeValues) {
  ScenarioSpec spec = small_spec();
  const ScenarioResult a = run_scenario(spec);
  spec.base_seed += 1000;
  const ScenarioResult b = run_scenario(spec);
  EXPECT_NE(rows_of(a), rows_of(b));
}

TEST(ScenarioRunner, CensorsAtRoundBudget) {
  ScenarioSpec spec = small_spec();
  spec.sweep = {32};
  spec.max_rounds = "3";  // nothing solves a 32-node clique in 3 rounds
  const ScenarioResult result = run_scenario(spec);
  for (const CellResult& cell : result.points[0].cells) {
    EXPECT_EQ(cell.failures, spec.trials);
    for (const double v : cell.values) EXPECT_EQ(v, 3.0);
  }
}

TEST(ScenarioRunner, FirstReceiveMetric) {
  ScenarioSpec spec;
  spec.name = "test/first-receive";
  spec.topology = "bracelet(128)";
  spec.problem = "local(heads_a)";
  spec.metric = "first_receive(clasp_b)";
  spec.sweep = {128};
  spec.trials = 3;
  spec.max_rounds = "200*band_len";
  spec.columns = {{"benign", "decay_local", "none", ""}};
  const ScenarioResult result = run_scenario(spec);
  const CellResult& cell = result.points[0].cells[0];
  EXPECT_EQ(cell.trials, 3);
  for (const double v : cell.values) EXPECT_GE(v, 1.0);
  EXPECT_EQ(result.points[0].marks.at("band_len"), 8);
}

TEST(ScenarioRunner, TrialsOverrideAndSmoke) {
  ScenarioSpec spec = small_spec();
  spec.smoke_x = 16;
  RunOptions options;
  options.trials_override = 2;
  const ScenarioResult overridden = run_scenario(spec, options);
  EXPECT_EQ(overridden.points[0].cells[0].trials, 2);

  RunOptions smoke;
  smoke.smoke = true;
  const ScenarioResult tiny = run_scenario(spec, smoke);
  ASSERT_EQ(tiny.points.size(), 1u);
  EXPECT_EQ(tiny.points[0].n, 16);
  EXPECT_EQ(tiny.points[0].cells[0].trials, 1);
}

TEST(ScenarioRunner, SpecErrors) {
  ScenarioSpec spec = small_spec();
  spec.sweep.clear();
  EXPECT_THROW(run_scenario(spec), ScenarioError);

  spec = small_spec();
  spec.columns.clear();
  EXPECT_THROW(run_scenario(spec), ScenarioError);

  spec = small_spec();
  spec.metric = "no_such_metric";
  EXPECT_THROW(run_scenario(spec), ScenarioError);

  spec = small_spec();
  spec.max_rounds = "300*bogus_var";
  EXPECT_THROW(run_scenario(spec), ScenarioError);
}

TEST(ScenarioRunner, PrintsTableAndNote) {
  ScenarioSpec spec = small_spec();
  spec.title = "printable";
  spec.note = "the-note-text";
  std::ostringstream os;
  RunOptions options;
  options.out = &os;
  run_scenario(spec, options);
  const std::string text = os.str();
  EXPECT_NE(text.find("printable"), std::string::npos);
  EXPECT_NE(text.find("decay+iid"), std::string::npos);
  EXPECT_NE(text.find("the-note-text"), std::string::npos);
}

TEST(ScenarioCatalogTest, BuiltinsCoverFigureOneAndMore) {
  // The acceptance bar: every former bench behavior reachable by name,
  // with at least 14 registered scenarios.
  EXPECT_GE(scenarios().all().size(), 14u);
  for (const char* name :
       {"fig1/offline-global", "fig1/offline-local", "fig1/online-global",
        "fig1/online-local", "fig1/oblivious-global-clique",
        "fig1/oblivious-global-line", "fig1/oblivious-local-general",
        "fig1/oblivious-local-geo-n", "fig1/oblivious-local-geo-delta",
        "fig1/static-global-clique", "fig1/static-global-line",
        "fig1/static-local-n", "fig1/static-local-delta",
        "ablation/iid-vs-adversarial", "ablation/permutation",
        "ablation/seeds", "ext/gossip-k", "ext/gossip-n"}) {
    EXPECT_TRUE(scenarios().contains(name)) << name;
  }
  EXPECT_THROW(scenarios().get("fig1/no-such-cell"), ScenarioError);
  EXPECT_GE(scenarios().match("fig1/").size(), 9u);
  EXPECT_TRUE(scenarios().match("zzz/none").empty());

  // `dualcast_bench <prefix>` is how a single Figure-1 cell, ablation or
  // extension is run, so each of these prefixes selects exactly its own
  // scenarios, in catalog order; a new scenario whose name extends one
  // would silently widen that run.
  const std::vector<std::pair<std::string, std::vector<std::string>>> cells =
      {{"fig1/offline-global", {"fig1/offline-global"}},
       {"fig1/offline-local", {"fig1/offline-local"}},
       {"fig1/online-global", {"fig1/online-global"}},
       {"fig1/online-local", {"fig1/online-local"}},
       {"fig1/oblivious-global",
        {"fig1/oblivious-global-clique", "fig1/oblivious-global-line"}},
       {"fig1/oblivious-local-geo",
        {"fig1/oblivious-local-geo-n", "fig1/oblivious-local-geo-delta"}},
       {"fig1/static-global",
        {"fig1/static-global-clique", "fig1/static-global-line"}},
       {"fig1/static-local", {"fig1/static-local-n", "fig1/static-local-delta"}},
       {"fig1/summary",
        {"fig1/summary-clique", "fig1/summary-bracelet", "fig1/summary-geo",
         "fig1/summary-static-global", "fig1/summary-static-local"}},
       {"ablation/iid-vs-adversarial", {"ablation/iid-vs-adversarial"}},
       {"ablation/permutation", {"ablation/permutation"}},
       {"ablation/seeds", {"ablation/seeds"}},
       {"ext/gossip", {"ext/gossip-k", "ext/gossip-quiesce", "ext/gossip-n"}}};
  for (const auto& [prefix, expected] : cells) {
    std::vector<std::string> names;
    for (const ScenarioSpec* spec : scenarios().match(prefix)) {
      names.push_back(spec->name);
    }
    EXPECT_EQ(names, expected) << prefix;
  }
}

TEST(ScenarioCatalogTest, EverySpecParsesAgainstItsRegistries) {
  // Static validation of the whole catalog: topology, algorithm, adversary,
  // and problem specs all resolve at the smoke sweep point.
  for (const ScenarioSpec* spec : scenarios().all()) {
    const double x =
        spec->smoke_x != 0.0 ? spec->smoke_x : spec->sweep.front();
    const Topology topo = topologies().build(
        substitute_x(spec->topology, x), spec->topology_seed);
    std::map<std::string, double> vars{{"x", x},
                                       {"n", static_cast<double>(topo.n())}};
    for (const auto& [name, value] : topo.marks) {
      vars[name] = static_cast<double>(value);
    }
    EXPECT_GE(resolve_rounds(spec->max_rounds, vars), 1) << spec->name;
    for (const ScenarioColumn& column : spec->columns) {
      EXPECT_NO_THROW({
        algorithms().build(substitute_x(column.algorithm, x));
        adversaries().build(substitute_x(column.adversary, x), topo);
        problems().build(
            substitute_x(
                column.problem.empty() ? spec->problem : column.problem, x),
            topo);
      }) << spec->name << " / " << column.label;
    }
  }
}

}  // namespace
}  // namespace dualcast::scenario
