#include "scenario/scenario.hpp"

#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/fit.hpp"
#include "analysis/table.hpp"
#include "analysis/trials.hpp"
#include "scenario/plan.hpp"
#include "util/strfmt.hpp"

namespace dualcast::scenario {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string json_number(double v) {
  if (std::floor(v) == v && std::fabs(v) < 1e15) {
    return str(static_cast<std::int64_t>(v));
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

/// Length-prefixed field emitter for canonical_spec_string: "key:len:bytes;"
/// is injective without any escaping, so two distinct specs can never
/// canonicalize to the same string (which is what makes the hash a safe
/// cache/job key).
void canon_field(std::ostringstream& os, const char* key,
                 const std::string& value) {
  os << key << ':' << value.size() << ':' << value << ';';
}

void canon_number(std::ostringstream& os, const char* key, double value) {
  canon_field(os, key, json_number(value));
}

}  // namespace

const char* to_string(EnginePath engine) {
  return engine == EnginePath::kernel ? "kernel" : "scalar";
}

const char* to_string(RngMode rng) {
  return rng == RngMode::word ? "word" : "per-node";
}

std::string canonical_spec_string(const ScenarioSpec& spec) {
  std::ostringstream os;
  canon_field(os, "name", spec.name);
  canon_field(os, "topology", spec.topology);
  canon_field(os, "problem", spec.problem);
  canon_field(os, "metric", spec.metric);
  canon_field(os, "axis", spec.axis);
  std::ostringstream sweep;
  for (const double x : spec.sweep) sweep << json_number(x) << ',';
  canon_field(os, "sweep", sweep.str());
  canon_number(os, "smoke_x", spec.smoke_x);
  canon_number(os, "trials", spec.trials);
  canon_number(os, "base_seed", static_cast<double>(spec.base_seed));
  canon_number(os, "topology_seed", static_cast<double>(spec.topology_seed));
  canon_field(os, "max_rounds", spec.max_rounds);
  for (const ScenarioColumn& column : spec.columns) {
    std::ostringstream col;
    canon_field(col, "label", column.label);
    canon_field(col, "algorithm", column.algorithm);
    canon_field(col, "adversary", column.adversary);
    canon_field(col, "problem", column.problem);
    canon_field(os, "column", col.str());
  }
  return os.str();
}

std::uint64_t catalog_hash() {
  std::uint64_t hash = kFnvOffsetBasis;
  for (const ScenarioSpec* spec : scenarios().all()) {
    hash = fnv1a64(canonical_spec_string(*spec), hash);
  }
  return hash;
}

ScenarioResult run_scenario(const ScenarioSpec& spec,
                            const RunOptions& options) {
  return run_scenarios({&spec}, options).front();
}

std::vector<ScenarioResult> run_scenarios(
    const std::vector<const ScenarioSpec*>& specs,
    const RunOptions& options) {
  // Prepare every selected scenario, then drain one queue over the
  // concatenated (scenario × point × column × trial) space. Printing
  // happens afterwards, in selection order, so the output is the same at
  // every worker count.
  std::vector<ScenarioPlan> plans(specs.size());
  std::vector<int> task_offset(specs.size() + 1, 0);
  for (std::size_t s = 0; s < specs.size(); ++s) {
    prepare_plan(plans[s], apply_options(*specs[s], options), options);
    task_offset[s + 1] = task_offset[s] + plans[s].tasks();
  }
  run_tasks(task_offset.back(), options.sweep_threads, [&](int task) {
    // Scenario lookup: selections are small (tens), so a linear scan is
    // cheaper than it looks next to a trial execution.
    std::size_t s = 0;
    while (task >= task_offset[s + 1]) ++s;
    run_plan_task(plans[s], task - task_offset[s], options);
  });
  std::vector<ScenarioResult> results;
  results.reserve(specs.size());
  for (ScenarioPlan& plan : plans) {
    results.push_back(assemble_plan(plan));
    if (options.out != nullptr) print_result(results.back(), *options.out);
  }
  return results;
}

void print_result(const ScenarioResult& result, std::ostream& os) {
  const ScenarioSpec& spec = result.spec;
  os << "\n=== " << (spec.title.empty() ? spec.name : spec.title) << " ===\n";
  if (!spec.paper_claim.empty()) {
    os << "paper claim: " << spec.paper_claim << "\n";
  }
  os << "scenario: " << spec.name << "  (trials " << spec.trials
     << ", metric " << spec.metric << ")\n\n";

  const bool axis_is_n = spec.axis == "n";
  std::vector<std::string> headers{spec.axis};
  if (!axis_is_n) headers.push_back("n");
  for (const ScenarioColumn& column : spec.columns) {
    headers.push_back(column.label);
  }
  Table table(headers);
  for (const PointResult& point : result.points) {
    std::vector<std::string> row{format_x(point.x)};
    if (!axis_is_n) row.push_back(cell(point.n));
    for (const CellResult& c : point.cells) {
      std::string text = cell(c.median, 0);
      if (c.failures > 0) text += str(" (", c.failures, " censored)");
      row.push_back(text);
    }
    table.add_row(row);
  }
  table.print(os);

  for (const std::string& label : spec.fit) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (const PointResult& point : result.points) {
      for (const CellResult& c : point.cells) {
        if (c.label == label) {
          xs.push_back(point.x);
          ys.push_back(c.median);
        }
      }
    }
    if (xs.size() < 3) continue;
    const auto ranked = rank_models(xs, ys, standard_models());
    os << "  " << label << ": best-fit shape = " << ranked[0].model
       << "  (scale " << fmt_double(ranked[0].scale, 3) << ", rel-rmse "
       << fmt_double(ranked[0].rel_rmse, 3) << "; runner-up "
       << ranked[1].model << " @ " << fmt_double(ranked[1].rel_rmse, 3)
       << ")\n";
  }
  if (!spec.note.empty()) os << "\n" << spec.note << "\n";
}

void append_json_rows(const ScenarioResult& result,
                      std::vector<std::string>& rows) {
  const ScenarioSpec& spec = result.spec;
  for (const PointResult& point : result.points) {
    for (const CellResult& c : point.cells) {
      std::ostringstream os;
      os << "{\"scenario\":\"" << json_escape(spec.name) << "\""
         << ",\"axis\":\"" << json_escape(spec.axis) << "\""
         << ",\"x\":" << json_number(point.x) << ",\"n\":" << point.n
         << ",\"max_rounds\":" << point.max_rounds << ",\"column\":\""
         << json_escape(c.label) << "\",\"metric\":\""
         << json_escape(spec.metric) << "\",\"trials\":" << c.trials
         << ",\"failures\":" << c.failures
         << ",\"median\":" << json_number(c.median)
         << ",\"p95\":" << json_number(c.p95) << ",\"values\":[";
      for (std::size_t i = 0; i < c.values.size(); ++i) {
        if (i > 0) os << ",";
        os << json_number(c.values[i]);
      }
      os << "]}";
      rows.push_back(os.str());
    }
  }
}

bool write_json_rows_file(const std::string& path,
                          const std::vector<std::string>& rows) {
  std::ofstream out(path);
  if (!out) return false;
  out << "[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    out << (i > 0 ? ",\n " : "\n ") << rows[i];
  }
  out << "\n]\n";
  return static_cast<bool>(out);
}

void ScenarioCatalog::add(ScenarioSpec spec) {
  if (spec.name.empty()) throw ScenarioError("scenario: empty name");
  if (index_.count(spec.name) > 0) {
    throw ScenarioError(str("scenario: duplicate name \"", spec.name, "\""));
  }
  index_[spec.name] = order_.size();
  order_.push_back(std::move(spec));
}

bool ScenarioCatalog::contains(const std::string& name) const {
  return index_.count(name) > 0;
}

const ScenarioSpec& ScenarioCatalog::get(const std::string& name) const {
  const auto it = index_.find(name);
  if (it == index_.end()) {
    throw ScenarioError(str(
        "unknown scenario \"", name, "\"; known: ",
        join_names(order_, [](const ScenarioSpec& spec) { return spec.name; })));
  }
  return order_[it->second];
}

std::vector<const ScenarioSpec*> ScenarioCatalog::all() const {
  std::vector<const ScenarioSpec*> out;
  out.reserve(order_.size());
  for (const ScenarioSpec& spec : order_) out.push_back(&spec);
  return out;
}

std::vector<const ScenarioSpec*> ScenarioCatalog::match(
    const std::string& prefix) const {
  std::vector<const ScenarioSpec*> out;
  for (const ScenarioSpec& spec : order_) {
    if (spec.name.compare(0, prefix.size(), prefix) == 0) {
      out.push_back(&spec);
    }
  }
  return out;
}

ScenarioCatalog& scenarios() {
  static ScenarioCatalog& catalog = *[] {
    auto* c = new ScenarioCatalog();
    register_builtin_scenarios(*c);
    return c;
  }();
  return catalog;
}

}  // namespace dualcast::scenario
