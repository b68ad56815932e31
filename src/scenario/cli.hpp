#pragma once

// Shared command-line driver for every bench binary.
//
//   <bench> [names...] [--list] [--all] [--smoke] [--json FILE]
//           [--sweep-threads N | --threads N] [--trials N] [--engine E]
//           [--rng M] [--history P]
//
// Positional names select scenarios by exact name or prefix
// ("fig1/oblivious-global" runs both the clique and line sweeps). With no
// names, `default_names` runs — the thin per-bench mains pass their
// scenarios there; the generic `dualcast_bench` driver passes none and
// requires an explicit selection (or --all / --smoke / --list).
//
// Experiment-service subcommands are dispatched from here too:
//
//   <bench> serve  <names...> [--job-dir D] [--cache-dir C] [--workers N]
//   <bench> worker --job-dir D
//   <bench> merge  --job-dir D [--json FILE]
//   <bench> status --job-dir D
//
// (See src/service/ and the README's "Experiment service" section.)

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace dualcast::scenario {

int run_main(int argc, char** argv,
             const std::vector<std::string>& default_names);

/// Parses a strictly positive int flag value; throws ScenarioError with
/// the flag's name on bad/missing input.
int parse_int_flag(const std::string& flag, const char* value);

/// Consumes one shared execution flag at argv[i], advancing i past any
/// value it takes: --smoke, or a value flag in the "--flag=V" or "--flag V"
/// form — --sweep-threads (alias --threads), --history, --engine, --rng,
/// --trials. Returns false when argv[i] is not one of these flags; throws
/// ScenarioError on a missing or bad value. Shared by the classic driver
/// and the service CLI (whose `serve` rejects the thread flags: its
/// parallelism is --workers).
bool consume_run_option_flag(int argc, char** argv, int& i,
                             RunOptions& options);

/// Resolves names (exact or prefix) against the catalog into a deduped
/// selection in first-mention order; throws ScenarioError (listing known
/// names) for a name that matches nothing.
std::vector<const ScenarioSpec*> resolve_selection(
    const std::vector<std::string>& names);

}  // namespace dualcast::scenario
