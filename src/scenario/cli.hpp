#pragma once

// Shared command-line driver for every bench binary, and the one flag
// table every command parses through. `<bench> --help` lists the driver's
// flags and the experiment-service subcommands; `<bench> <subcommand>
// --help` lists that subcommand's flags (see src/service/service_cli.hpp).
//
// Positional names select scenarios by exact name or prefix
// ("fig1/oblivious-global" runs both the clique and line sweeps). With no
// names, `default_names` runs — the examples pass their scenarios there;
// the generic `dualcast_bench` driver passes none and requires an explicit
// selection (or --all / --smoke / --list).

#include <charconv>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "scenario/scenario.hpp"
#include "util/strfmt.hpp"

namespace dualcast::scenario {

int run_main(int argc, char** argv,
             const std::vector<std::string>& default_names);

/// One flag of a command's table: "--name VALUE", or a bare "--name"
/// switch when `value` is empty.
struct Flag {
  std::string name;   ///< "--trials"
  std::string value;  ///< the value's placeholder in the help ("N")
  std::string help;
  std::function<void(const std::string&)> set;  ///< "" for a switch
};

/// What a command's --help prints around its flags.
struct Command {
  std::string name{};    ///< the subcommand; empty for the driver
  std::string synopsis;  ///< follows "usage: <binary> [name]"
  std::string about;     ///< one paragraph
  std::string epilog{};  ///< printed after the flags, verbatim
};

/// The one parse loop. Applies argv[first..argc) to `flags`: a value flag
/// takes "--flag=V" or "--flag V", a switch stands alone. Other arguments
/// are appended to `positional`, or rejected when it is null. Throws
/// ScenarioError on an unknown option or a missing or bad value. Returns
/// false after printing the help to stdout for --help or -h.
bool parse_flags(int argc, char** argv, int first,
                 const std::vector<Flag>& flags,
                 std::vector<std::string>* positional, const Command& command);

// --- binders: a switch, a text, an integer and a choice flag ------------

Flag switch_flag(std::string name, std::string help, std::function<void()> on);

Flag text_flag(std::string name, std::string value, std::string help,
               std::string& target);

/// A flag whose value must be a base-10 integer in [lo, hi].
template <typename T>
Flag int_flag(std::string name, std::string value, std::string help,
              T& target, std::type_identity_t<T> lo,
              std::type_identity_t<T> hi = std::numeric_limits<T>::max()) {
  auto set = [name, &target, lo, hi](const std::string& text) {
    T parsed{};
    const char* end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, parsed);
    if (error != std::errc{} || stop != end || parsed < lo || parsed > hi) {
      throw ScenarioError(str(name, ": bad value \"", text, "\""));
    }
    target = parsed;
  };
  return {std::move(name), std::move(value), std::move(help), std::move(set)};
}

/// A flag whose value must name one of `choices`.
template <typename T>
Flag choice_flag(std::string name, std::string value, std::string help,
                 T& target, std::vector<std::pair<std::string, T>> choices) {
  auto set = [name, &target, choices](const std::string& text) {
    std::string expected;
    for (const auto& [choice, meaning] : choices) {
      if (text == choice) {
        target = meaning;
        return;
      }
      expected += str(expected.empty() ? "" : " or ", "\"", choice, "\"");
    }
    throw ScenarioError(str(name, ": expected ", expected, ", got \"", text,
                            "\""));
  };
  return {std::move(name), std::move(value), std::move(help), std::move(set)};
}

/// `flag`, whose setter also runs `then`.
Flag also(Flag flag, std::function<void()> then);

/// The groups' flags, in order.
std::vector<Flag> join_flags(std::vector<std::vector<Flag>> groups);

/// The run options every bench binary and `serve` share: --smoke,
/// --sweep-threads (also spelled --threads), --history, --engine, --rng
/// and --trials.
std::vector<Flag> run_option_flags(RunOptions& options);

/// Resolves names (exact or prefix) against the catalog into a deduped
/// selection in first-mention order; throws ScenarioError (listing known
/// names) for a name that matches nothing.
std::vector<const ScenarioSpec*> resolve_selection(
    const std::vector<std::string>& names);

}  // namespace dualcast::scenario
