#pragma once

// The scenario runner's execution plan, exported so every scheduler — the
// in-process queue in run_scenarios() AND the experiment service's sharded
// workers/merger (src/service/) — drives trials through ONE code path. That shared path is what makes the service's guarantees
// cheap to state: a merged sharded run is byte-identical to a
// single-process run because both fill the same ScenarioPlan::raw store
// and assemble through the same censoring/summary code.
//
// The flat task space is the unit of distribution everywhere: a prepared
// plan exposes tasks() = points × columns × trials, and task index t maps
// to (point, column, trial) in trial-major order (trial fastest). Trials
// are keyed by (point, column, seed) alone — never by scheduling order —
// so any executor at any parallelism produces the same raw values.

#include <cstdint>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace dualcast::scenario {

/// The per-trial measurement, resolved from ScenarioSpec::metric.
struct Metric {
  bool first_receive = false;
  std::string mark;  ///< mark name when first_receive
};

/// Parses a metric spec ("rounds" or "first_receive(<mark>)").
Metric parse_metric(const std::string& metric_spec);

/// One measured cell's resolved factories. Factories capture values and
/// shared_ptrs only, so a plan is safe to consult from worker threads (and
/// to relocate before they start).
struct CellPlan {
  ProcessFactory factory;
  KernelFactory kernel;  ///< empty when no batch port is registered
  LinkProcessFactory adversary;
  ProblemFactory problem;
};

/// One sweep point's execution plan: its topology plus each column's
/// resolved factories.
struct PointPlan {
  Topology topo;
  int max_rounds = 0;
  int watch_node = -1;
  std::vector<CellPlan> cells;
};

/// A scenario after option overrides, with its parsed metric and (once
/// prepared) its per-sweep-point execution plans and raw trial values.
/// This is the unit every scheduler operates on: run_scenarios fills a
/// batch against a single shared queue, and the experiment service's
/// workers measure tasks of one while the merger fills raw[] from persisted
/// records instead of live execution.
struct ScenarioPlan {
  ScenarioSpec spec;
  Metric metric;
  std::vector<PointPlan> points;
  /// raw[point][column][trial], filled by the schedulers in seed order.
  std::vector<std::vector<std::vector<double>>> raw;

  int n_cols() const { return static_cast<int>(spec.columns.size()); }
  int tasks() const {
    return static_cast<int>(spec.sweep.size()) * n_cols() * spec.trials;
  }
};

/// (point, column, trial) coordinates of a flat task index.
struct PlanTask {
  int point = 0;
  int col = 0;
  int trial = 0;
};

/// Decodes flat task `task` (trial-major: trial fastest, then column, then
/// point) of a plan with `n_cols` columns and `trials` trials per cell.
PlanTask split_plan_task(int task, int n_cols, int trials);

/// Applies RunOptions overrides (trials_override, smoke scaling) to a spec
/// and validates it. Throws ScenarioError on spec/option errors. Every
/// executor — including service jobs, whose stored catalog hash covers the
/// *applied* spec — goes through this before planning.
ScenarioSpec apply_options(const ScenarioSpec& original,
                           const RunOptions& options);

/// Initializes `plan` from an already-applied spec: parses the metric,
/// builds every point plan up front (the queue and sharded workers need
/// them all alive), and sizes the raw value store.
void prepare_plan(ScenarioPlan& plan, ScenarioSpec applied_spec,
                  const RunOptions& options);

/// Measures flat task `task` of a prepared plan and returns the raw value
/// (negative = censored). Safe to call concurrently for distinct tasks.
double measure_plan_task(const ScenarioPlan& plan, int task,
                         const RunOptions& options);

/// measure_plan_task + store into plan.raw (the in-process queue's task
/// body).
void run_plan_task(ScenarioPlan& plan, int task, const RunOptions& options);

/// Summarizes a fully-measured plan (censoring through the one shared
/// helper) into the scenario's result. Consumes plan.raw.
ScenarioResult assemble_plan(ScenarioPlan& plan);

}  // namespace dualcast::scenario
