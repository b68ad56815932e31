#include "scenario/plan.hpp"

#include <map>
#include <memory>
#include <mutex>
#include <utility>

#include "analysis/trials.hpp"
#include "sim/kernel_execution.hpp"
#include "util/strfmt.hpp"

namespace dualcast::scenario {
namespace {

/// Cross-scenario algorithm cache. An algorithm's KernelFactory depends
/// only on the resolved spec string — never on the topology — so each is
/// parsed and built once per process, however many sweep points,
/// scenarios, or service jobs name it. (Adversary and problem factories
/// receive the built Topology and stay per-point.) Guarded by a mutex
/// because plans are prepared from service worker threads; std::map node
/// stability keeps returned references valid.
const KernelFactory& cached_algorithm(const std::string& spec) {
  static std::mutex mutex;
  static std::map<std::string, KernelFactory> cache;
  const std::lock_guard<std::mutex> lock(mutex);
  auto it = cache.find(spec);
  if (it == cache.end()) {
    it = cache.emplace(spec, algorithms().build(spec)).first;
  }
  return it->second;
}

PointPlan build_point_plan(const ScenarioSpec& spec, const Metric& metric,
                           std::size_t i, const RunOptions& options) {
  const double x = spec.sweep[i];
  PointPlan point;
  point.topo = topologies().build(
      substitute_x(spec.topology, x),
      spec.topology_seed + static_cast<std::uint64_t>(i));

  std::map<std::string, double> vars;
  vars["x"] = x;
  vars["n"] = point.topo.n();
  for (const auto& [name, value] : point.topo.marks) {
    vars[name] = static_cast<double>(value);
  }
  point.max_rounds = resolve_rounds(spec.max_rounds, vars);
  if (options.smoke && point.max_rounds > options.smoke_max_rounds) {
    point.max_rounds = options.smoke_max_rounds;
  }
  point.watch_node = metric.first_receive ? point.topo.mark(metric.mark) : -1;

  // Columns naming the same problem share its factory, so the point keeps
  // one built problem for them (the factories build once and copy).
  std::map<std::string, ProblemFactory> problems_by_spec;
  for (const ScenarioColumn& column : spec.columns) {
    CellPlan cell;
    cell.kernel = cached_algorithm(substitute_x(column.algorithm, x));
    cell.adversary = adversaries().build(substitute_x(column.adversary, x),
                                         point.topo, cell.kernel);
    const std::string problem = substitute_x(
        column.problem.empty() ? spec.problem : column.problem, x);
    auto [it, fresh] = problems_by_spec.try_emplace(problem);
    if (fresh) it->second = problems().build(problem, point.topo);
    cell.problem = it->second;
    point.cells.push_back(std::move(cell));
  }
  return point;
}

PointResult make_point_result(const ScenarioSpec& spec, double x,
                              const PointPlan& planned,
                              std::vector<std::vector<double>> raw_cells) {
  PointResult point;
  point.x = x;
  point.n = planned.topo.n();
  point.max_rounds = planned.max_rounds;
  point.marks = planned.topo.marks;
  for (std::size_t col = 0; col < spec.columns.size(); ++col) {
    const CensoredTrials trials =
        censor_trials(std::move(raw_cells[col]),
                      static_cast<double>(planned.max_rounds));
    CellResult cell;
    cell.label = spec.columns[col].label;
    cell.median = trials.median;
    cell.p95 = trials.p95;
    cell.failures = trials.failures;
    cell.trials = trials.trials();
    cell.values = trials.values;
    point.cells.push_back(std::move(cell));
  }
  return point;
}

}  // namespace

Metric parse_metric(const std::string& metric_spec) {
  const SpecCall call = parse_call(metric_spec);
  const SpecArgs args(call);
  Metric metric;
  if (call.name == "rounds") {
    args.expect_count(0, 0);
    return metric;
  }
  if (call.name == "first_receive") {
    args.expect_count(1, 1);
    metric.first_receive = true;
    metric.mark = args.str_at(0);
    return metric;
  }
  throw ScenarioError(str("metric \"", metric_spec,
                          "\": expected \"rounds\" or "
                          "\"first_receive(<mark>)\""));
}

PlanTask split_plan_task(int task, int n_cols, int trials) {
  PlanTask out;
  out.trial = task % trials;
  out.col = (task / trials) % n_cols;
  out.point = task / (trials * n_cols);
  return out;
}

ScenarioSpec apply_options(const ScenarioSpec& original,
                           const RunOptions& options) {
  ScenarioSpec spec = original;
  if (spec.sweep.empty()) {
    throw ScenarioError(
        str("scenario \"", spec.name, "\": sweep must be non-empty"));
  }
  if (spec.columns.empty()) {
    throw ScenarioError(
        str("scenario \"", spec.name, "\": columns must be non-empty"));
  }
  if (options.trials_override > 0) spec.trials = options.trials_override;
  if (options.smoke) {
    spec.sweep = {spec.smoke_x != 0.0 ? spec.smoke_x : spec.sweep.front()};
    spec.trials = 1;
    spec.fit.clear();
  }
  return spec;
}

void prepare_plan(ScenarioPlan& plan, ScenarioSpec applied_spec,
                  const RunOptions& options) {
  plan.spec = std::move(applied_spec);
  plan.metric = parse_metric(plan.spec.metric);
  plan.points.clear();
  plan.points.reserve(plan.spec.sweep.size());
  for (std::size_t i = 0; i < plan.spec.sweep.size(); ++i) {
    plan.points.push_back(
        build_point_plan(plan.spec, plan.metric, i, options));
  }
  plan.raw.assign(
      plan.points.size(),
      std::vector<std::vector<double>>(
          static_cast<std::size_t>(plan.n_cols()),
          std::vector<double>(static_cast<std::size_t>(plan.spec.trials))));
}

double measure_plan_task(const ScenarioPlan& plan, int task,
                         const RunOptions& options) {
  const PlanTask at = split_plan_task(task, plan.n_cols(), plan.spec.trials);
  const PointPlan& point = plan.points[static_cast<std::size_t>(at.point)];
  const CellPlan& cell = point.cells[static_cast<std::size_t>(at.col)];
  note_trial_executed();
  const ExecutionConfig config =
      ExecutionConfig{}
          .with_seed(plan.spec.base_seed + static_cast<std::uint64_t>(at.trial))
          .with_max_rounds(point.max_rounds)
          .with_history_policy(options.history)
          .with_rng_mode(options.rng);
  std::shared_ptr<Problem> problem = cell.problem();
  std::unique_ptr<AlgorithmKernel> kernel =
      select_kernel(cell.kernel, *problem, cell.factory);
  if (kernel->processes() == nullptr && !problem->batch_compatible()) {
    const double x = plan.spec.sweep[static_cast<std::size_t>(at.point)];
    const ScenarioColumn& column =
        plan.spec.columns[static_cast<std::size_t>(at.col)];
    throw ScenarioError(str(
        "problem \"",
        substitute_x(column.problem.empty() ? plan.spec.problem
                                            : column.problem,
                     x),
        "\" reads Process objects, which algorithm \"",
        substitute_x(column.algorithm, x),
        "\" does not have: only an algorithm registered as the scalar "
        "adapter around a Process (make_scalar_kernel_adapter) does"));
  }
  KernelExecution exec(point.topo.net(), std::move(kernel),
                       std::move(problem), cell.adversary(), config);
  if (!plan.metric.first_receive) {
    const RunResult result = exec.run();
    return result.solved ? static_cast<double>(result.rounds) : -1.0;
  }
  const std::size_t watch = static_cast<std::size_t>(point.watch_node);
  const auto received = [&] { return exec.first_receive_round()[watch] >= 0; };
  while (!exec.done() && !received()) exec.step();
  return received() ? static_cast<double>(exec.first_receive_round()[watch] + 1)
                    : -1.0;
}

void run_plan_task(ScenarioPlan& plan, int task, const RunOptions& options) {
  const PlanTask at = split_plan_task(task, plan.n_cols(), plan.spec.trials);
  plan.raw[static_cast<std::size_t>(at.point)][static_cast<std::size_t>(
      at.col)][static_cast<std::size_t>(at.trial)] =
      measure_plan_task(plan, task, options);
}

ScenarioResult assemble_plan(ScenarioPlan& plan) {
  ScenarioResult result;
  result.spec = plan.spec;
  for (std::size_t p = 0; p < plan.points.size(); ++p) {
    result.points.push_back(make_point_result(plan.spec, plan.spec.sweep[p],
                                              plan.points[p],
                                              std::move(plan.raw[p])));
  }
  return result;
}

}  // namespace dualcast::scenario
