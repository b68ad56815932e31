#include "scenario/cli.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <limits>
#include <map>
#include <set>
#include <utility>

#include "service/service_cli.hpp"
#include "util/strfmt.hpp"

namespace dualcast::scenario {
namespace {

void print_usage(std::ostream& os, const char* binary) {
  os << "usage: " << binary
     << " [scenario-name-or-prefix ...] [options]\n"
        "       " << binary
     << " serve|worker|merge|status [subcommand options]\n"
        "\n"
        "options:\n"
        "  --list        list registered scenarios (grouped by catalog\n"
        "                tier, with sweep sizes) and exit\n"
        "  --all         run every registered scenario\n"
        "  --smoke       tiny-scale run of the selection (default: all):\n"
        "                one small sweep point, 1 trial, capped rounds\n"
        "  --json FILE   also write machine-readable result rows to FILE\n"
        "  --sweep-threads N, --threads N\n"
        "                drain every (scenario x sweep point x column x\n"
        "                trial) of the selection from one work queue over N\n"
        "                workers (default 1; results are identical for\n"
        "                every N)\n"
        "  --history P   history retention per trial: \"lean\" (default;\n"
        "                O(n) aggregates, auto-falls back to full for\n"
        "                adversaries that read the trace) or \"full\"\n"
        "  --engine E    kernel path: \"kernel\" (default; batch SoA\n"
        "                kernels, scalar-adapter fallback for algorithms\n"
        "                without a port) or \"scalar\" (scalar adapter for\n"
        "                every algorithm). Results are byte-identical for\n"
        "                both\n"
        "  --rng M       kernel-path coin streams: \"per-node\" (default;\n"
        "                byte-identical to the scalar adapter) or \"word\"\n"
        "                (word-parallel block streams, 64 coins per draw\n"
        "                ladder; same distribution, different sample paths;\n"
        "                requires --engine kernel)\n"
        "  --trials N    override each scenario's trial count\n"
        "  (value flags also take the --flag=VALUE form)\n"
        "\n"
        "experiment-service subcommands (see `" << binary
     << " serve --help`):\n"
        "  serve         cached/sharded run of a selection (persistent job\n"
        "                store + result cache; byte-identical artifacts)\n"
        "  worker        lease and measure shards of an existing job\n"
        "  merge         reassemble a complete job into result rows\n"
        "  status        report a job's shards, leases, and progress\n";
}

void print_list(std::ostream& os) {
  // Grouped by catalog tier — the "tier/" prefix of the scenario name
  // (fig1/, scale/, ext/, ...) — with each sweep's task volume spelled
  // out, so `--list` doubles as a sizing sheet for service jobs.
  std::vector<std::string> tiers;
  std::map<std::string, std::vector<const ScenarioSpec*>> by_tier;
  for (const ScenarioSpec* spec : scenarios().all()) {
    const std::size_t slash = spec->name.find('/');
    const std::string tier = slash == std::string::npos
                                 ? std::string("(untiered)")
                                 : spec->name.substr(0, slash + 1);
    if (by_tier.find(tier) == by_tier.end()) tiers.push_back(tier);
    by_tier[tier].push_back(spec);
  }
  os << "registered scenarios:\n";
  for (const std::string& tier : tiers) {
    const std::vector<const ScenarioSpec*>& specs = by_tier[tier];
    os << "\n" << tier << "  (" << specs.size()
       << (specs.size() == 1 ? " scenario)\n" : " scenarios)\n");
    for (const ScenarioSpec* spec : specs) {
      const long tasks = static_cast<long>(spec->sweep.size()) *
                         static_cast<long>(spec->columns.size()) *
                         static_cast<long>(spec->trials);
      os << "  " << spec->name << "\n      " << spec->title << "\n      "
         << spec->sweep.size() << " point"
         << (spec->sweep.size() == 1 ? "" : "s") << " x "
         << spec->columns.size() << " column"
         << (spec->columns.size() == 1 ? "" : "s") << " x " << spec->trials
         << " trial" << (spec->trials == 1 ? "" : "s") << " = " << tasks
         << " tasks\n";
    }
  }
}

/// The value of `choices` named `value`; throws ScenarioError naming
/// `flag` and every choice otherwise.
template <typename T>
T parse_choice(const std::string& flag, const std::string& value,
               std::initializer_list<std::pair<const char*, T>> choices) {
  std::string expected;
  for (const auto& [name, choice] : choices) {
    if (value == name) return choice;
    expected += str(expected.empty() ? "" : " or ", "\"", name, "\"");
  }
  throw ScenarioError(
      str(flag, ": expected ", expected, ", got \"", value, "\""));
}

}  // namespace

int parse_int_flag(const std::string& flag, const char* value) {
  if (value == nullptr) {
    throw ScenarioError(str(flag, " requires a value"));
  }
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || errno == ERANGE || parsed < 1 ||
      parsed > std::numeric_limits<int>::max()) {
    throw ScenarioError(str(flag, ": bad value \"", value, "\""));
  }
  return static_cast<int>(parsed);
}

bool consume_run_option_flag(int argc, char** argv, int& i,
                             RunOptions& options) {
  // Every value flag reads through `value`, in either form: "--flag=V" or
  // "--flag V".
  const std::string arg = argv[i];
  const std::string flag = arg.substr(0, arg.find('='));
  const auto value = [&]() -> std::string {
    if (flag.size() < arg.size()) return arg.substr(flag.size() + 1);
    if (++i >= argc) throw ScenarioError(str(flag, " requires a value"));
    return argv[i];
  };
  if (arg == "--smoke") {
    options.smoke = true;
  } else if (flag == "--threads" || flag == "--sweep-threads") {
    options.sweep_threads = parse_int_flag(flag, value().c_str());
  } else if (flag == "--history") {
    options.history = parse_choice<HistoryPolicy>(
        flag, value(),
        {{"full", HistoryPolicy::full}, {"lean", HistoryPolicy::lean}});
  } else if (flag == "--engine") {
    options.engine = parse_choice<EnginePath>(
        flag, value(),
        {{"kernel", EnginePath::kernel}, {"scalar", EnginePath::scalar}});
  } else if (flag == "--rng") {
    options.rng = parse_choice<RngMode>(
        flag, value(),
        {{"per-node", RngMode::per_node}, {"word", RngMode::word}});
  } else if (flag == "--trials") {
    options.trials_override = parse_int_flag(flag, value().c_str());
  } else {
    return false;
  }
  return true;
}

std::vector<const ScenarioSpec*> resolve_selection(
    const std::vector<std::string>& names) {
  std::vector<const ScenarioSpec*> selection;
  std::set<std::string> seen;
  for (const std::string& name : names) {
    const auto matched = scenarios().match(name);
    if (matched.empty()) {
      // get() throws with the list of known names.
      scenarios().get(name);
    }
    for (const ScenarioSpec* spec : matched) {
      if (seen.insert(spec->name).second) selection.push_back(spec);
    }
  }
  return selection;
}

int run_main(int argc, char** argv,
             const std::vector<std::string>& default_names) {
  if (argc >= 2 && service::is_service_command(argv[1])) {
    return service::service_main(argc, argv);
  }

  std::vector<std::string> names;
  std::string json_path;
  RunOptions options;
  options.out = &std::cout;
  bool list_only = false;
  bool run_all = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (consume_run_option_flag(argc, argv, i, options)) {
        continue;
      } else if (arg == "--list") {
        list_only = true;
      } else if (arg == "--all") {
        run_all = true;
      } else if (arg == "--json") {
        if (++i >= argc) throw ScenarioError("--json requires a file path");
        json_path = argv[i];
      } else if (arg == "--help" || arg == "-h") {
        print_usage(std::cout, argv[0]);
        return 0;
      } else if (!arg.empty() && arg[0] == '-') {
        throw ScenarioError(str("unknown option \"", arg, "\""));
      } else {
        names.push_back(arg);
      }
    }

    if (list_only) {
      print_list(std::cout);
      return 0;
    }

    // Resolve the selection: explicit names (by prefix), --all/--smoke
    // (everything), or the binary's defaults.
    std::vector<const ScenarioSpec*> selection;
    if (!names.empty()) {
      selection = resolve_selection(names);
    } else if (run_all || (options.smoke && default_names.empty())) {
      selection = scenarios().all();
    } else {
      selection = resolve_selection(default_names);
    }
    if (selection.empty()) {
      print_usage(std::cerr, argv[0]);
      std::cerr << "\n";
      print_list(std::cerr);
      return 1;
    }

    // run_scenarios drains every (scenario × point × column × trial) of
    // the whole selection from one shared work queue.
    std::vector<std::string> json_rows;
    const std::vector<ScenarioResult> results =
        run_scenarios(selection, options);
    if (!json_path.empty()) {
      for (const ScenarioResult& result : results) {
        append_json_rows(result, json_rows);
      }
      if (!write_json_rows_file(json_path, json_rows)) {
        std::cerr << "error: cannot write " << json_path << "\n";
        return 1;
      }
      std::cout << "\nwrote " << json_rows.size() << " result rows to "
                << json_path << "\n";
    }
  } catch (const std::exception& error) {
    // ScenarioError for spec/flag problems, but also engine contract
    // violations and allocation failures: every failure gets a diagnostic
    // instead of a raw terminate.
    std::cerr << "error: " << error.what() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace dualcast::scenario
