#include "scenario/cli.hpp"

#include <algorithm>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "service/service_cli.hpp"
#include "util/strfmt.hpp"

namespace dualcast::scenario {
namespace {

constexpr std::size_t kHelpWidth = 78;
constexpr std::size_t kHelpColumn = 24;

/// Writes `text` word-wrapped at kHelpWidth, then a newline. The cursor
/// starts at `column`; continuation lines are indented to `indent`.
void write_wrapped(std::ostream& os, const std::string& text,
                   std::size_t column, std::size_t indent) {
  std::istringstream words(text);
  std::string word;
  for (bool first = true; words >> word; first = false) {
    if (!first && column + 1 + word.size() > kHelpWidth) {
      os << "\n" << std::string(indent, ' ');
      column = indent;
    } else if (!first) {
      os << ' ';
      ++column;
    }
    os << word;
    column += word.size();
  }
  os << "\n";
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

void print_help(std::ostream& os, const char* binary, const Command& command,
                const std::vector<Flag>& flags) {
  os << "usage: " << binary;
  if (!command.name.empty()) os << " " << command.name;
  os << " " << command.synopsis << "\n\n  ";
  write_wrapped(os, command.about, 2, 2);
  os << "\noptions (a value flag takes --flag=V or --flag V):\n";
  for (const Flag& flag : flags) {
    const std::string head =
        str("  ", flag.name, flag.value.empty() ? "" : " ", flag.value);
    os << head;
    if (head.size() + 2 > kHelpColumn) {
      os << "\n" << std::string(kHelpColumn, ' ');
    } else {
      os << std::string(kHelpColumn - head.size(), ' ');
    }
    write_wrapped(os, flag.help, kHelpColumn, kHelpColumn);
  }
  os << command.epilog;
}

}  // namespace

bool parse_flags(int argc, char** argv, int first,
                 const std::vector<Flag>& flags,
                 std::vector<std::string>* positional,
                 const Command& command) {
  const std::string prefix = command.name.empty() ? "" : command.name + ": ";
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_help(std::cout, argv[0], command, flags);
      return false;
    }
    if (positional != nullptr && (arg.empty() || arg[0] != '-')) {
      positional->push_back(arg);
      continue;
    }
    const std::size_t equals = arg.find('=');
    const std::string name = arg.substr(0, equals);
    const auto flag =
        std::find_if(flags.begin(), flags.end(),
                     [&](const Flag& entry) { return entry.name == name; });
    const bool has_value = equals != std::string::npos;
    if (flag == flags.end() || (flag->value.empty() && has_value)) {
      throw ScenarioError(str(prefix, "unknown option \"", arg, "\""));
    }
    if (flag->value.empty()) {
      flag->set("");
    } else if (has_value) {
      flag->set(arg.substr(equals + 1));
    } else if (++i < argc) {
      flag->set(argv[i]);
    } else {
      throw ScenarioError(str(name, " requires a value"));
    }
  }
  return true;
}

Flag switch_flag(std::string name, std::string help,
                 std::function<void()> on) {
  return {std::move(name), "", std::move(help),
          [on = std::move(on)](const std::string&) { on(); }};
}

Flag text_flag(std::string name, std::string value, std::string help,
               std::string& target) {
  return {std::move(name), std::move(value), std::move(help),
          [&target](const std::string& text) { target = text; }};
}

Flag also(Flag flag, std::function<void()> then) {
  flag.set = [set = std::move(flag.set),
              then = std::move(then)](const std::string& text) {
    set(text);
    then();
  };
  return flag;
}

std::vector<Flag> join_flags(std::vector<std::vector<Flag>> groups) {
  std::vector<Flag> flags;
  for (std::vector<Flag>& group : groups) {
    for (Flag& flag : group) flags.push_back(std::move(flag));
  }
  return flags;
}

std::vector<Flag> run_option_flags(RunOptions& options) {
  return {
      switch_flag("--smoke",
                  "tiny-scale run of the selection: one small sweep point, "
                  "1 trial, capped rounds",
                  [&options] { options.smoke = true; }),
      int_flag("--sweep-threads", "N",
               "drain every (scenario x sweep point x column x trial) of the "
               "selection from one work queue over N workers (default 1; "
               "results are identical for every N)",
               options.sweep_threads, 1),
      int_flag("--threads", "N", "the same as --sweep-threads N",
               options.sweep_threads, 1),
      choice_flag("--rng", "M",
                  "kernel coin streams: \"per-node\" (default; "
                  "byte-identical to the scalar reference) or \"word\" "
                  "(word-parallel block streams, 64 coins per draw ladder; "
                  "same distribution, different sample paths)",
                  options.rng,
                  {{"per-node", RngMode::per_node}, {"word", RngMode::word}}),
      int_flag("--trials", "N", "override each scenario's trial count",
               options.trials_override, 1),
  };
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
  const std::vector<Flag> flags = join_flags(
      {{switch_flag("--list",
                    "list registered scenarios (grouped by catalog tier, "
                    "with sweep sizes) and exit",
                    [&] { list_only = true; }),
        switch_flag("--all", "run every registered scenario",
                    [&] { run_all = true; }),
        text_flag("--json", "FILE",
                  "also write machine-readable result rows to FILE",
                  json_path)},
       run_option_flags(options)});
  const Command driver{
      .synopsis = "[scenario-name-or-prefix ...] [options]",
      .about = "Runs the scenarios named by exact name or prefix "
               "(\"fig1/oblivious-global\" runs both the clique and line "
               "sweeps). With no names, an example runs its own scenarios, "
               "and dualcast_bench runs every scenario under --smoke or "
               "--all.",
      .epilog = str("\nexperiment-service subcommands (each takes --help):\n",
                    service::command_list())};

  try {
    if (!parse_flags(argc, argv, 1, flags, &names, driver)) return 0;

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
      print_help(std::cerr, argv[0], driver, flags);
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
