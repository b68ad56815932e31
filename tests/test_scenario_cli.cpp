// run_option_flags: the run-option flags every bench binary and `serve`
// share — the two spellings of the worker count, the "--flag=V" and
// "--flag V" forms of every value flag, and the bad-input errors.
//
// CliSurface: every (command, flag) pair of the command line, driven
// through run_main — the driver and each service subcommand. A bad value,
// a missing value, a switch given a value and an unknown flag each exit 1
// with a diagnostic naming the input, before any trial runs. Both value
// forms behave alike, and --help lists every subcommand and flag.

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/trials.hpp"
#include "scenario/cli.hpp"

namespace dualcast::scenario {
namespace {

/// Parses `args` against the run-option table alone; throws ScenarioError
/// when one is not a run option.
RunOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "bench");
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  RunOptions options;
  EXPECT_TRUE(parse_flags(static_cast<int>(argv.size()), argv.data(), 1,
                          run_option_flags(options), nullptr, Command{}));
  return options;
}

TEST(RunOptionFlags, ThreadsAndSweepThreadsSetTheOneWorkerCount) {
  EXPECT_EQ(parse({"--threads", "4"}).sweep_threads, 4);
  EXPECT_EQ(parse({"--sweep-threads", "4"}).sweep_threads, 4);
  // One field: the later spelling wins, whichever it is.
  EXPECT_EQ(parse({"--threads", "4", "--sweep-threads", "2"}).sweep_threads,
            2);
  EXPECT_EQ(parse({"--sweep-threads", "2", "--threads", "4"}).sweep_threads,
            4);
}

TEST(RunOptionFlags, EqualsFormMatchesSpaceForm) {
  EXPECT_EQ(parse({"--trials=3"}).trials_override, 3);
  EXPECT_EQ(parse({"--trials", "3"}).trials_override, 3);
  EXPECT_EQ(parse({"--threads=4"}).sweep_threads, 4);
  EXPECT_EQ(parse({"--sweep-threads=4"}).sweep_threads, 4);
  EXPECT_EQ(parse({"--rng=word"}).rng, RngMode::word);
  EXPECT_EQ(parse({"--rng", "word"}).rng, RngMode::word);
}

TEST(RunOptionFlags, SpaceFormConsumesItsValueOnly) {
  const RunOptions options = parse({"--trials", "3", "--smoke"});
  EXPECT_EQ(options.trials_override, 3);
  EXPECT_TRUE(options.smoke);
}

TEST(RunOptionFlags, BadOrMissingValuesThrow) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--threads", "0"},
                                             {"--threads=0"},
                                             {"--sweep-threads", "-2"},
                                             {"--trials", "abc"},
                                             {"--trials="},
                                             {"--rng=bogus"},
                                             {"--trials"},
                                             {"--threads"},
                                             {"--rng"}}) {
    EXPECT_THROW(parse(args), ScenarioError) << args.front();
  }
}

TEST(RunOptionFlags, OtherArgumentsAreNotConsumed) {
  for (const char* arg : {"--bogus", "--json", "--smoke=1", "fig1"}) {
    EXPECT_THROW(parse({arg}), ScenarioError) << arg;
  }
}

enum class Kind { text, integer, choice, toggle };

struct Surface {
  std::string command;  ///< empty for the driver
  std::vector<std::pair<std::string, Kind>> flags;
};

/// Every flag of every command. serve's thread flags are left out: serve
/// rejects them (ServiceCliContract covers that).
const std::vector<Surface>& surfaces() {
  using enum Kind;
  static const std::vector<Surface> all = {
      {"",
       {{"--list", toggle}, {"--all", toggle}, {"--json", text},
        {"--smoke", toggle}, {"--sweep-threads", integer},
        {"--threads", integer}, {"--rng", choice}, {"--trials", integer}}},
      {"serve",
       {{"--smoke", toggle}, {"--rng", choice}, {"--trials", integer},
        {"--workers", integer},
        {"--job-dir", text}, {"--cache-dir", text}, {"--no-cache", toggle},
        {"--cache-max-bytes", integer}, {"--verify-cache", toggle},
        {"--shard-tasks", integer}, {"--lease-ttl", integer},
        {"--json", text}}},
      {"worker",
       {{"--job-dir", text}, {"--owner", text},
        {"--fault-crash-op", integer}, {"--stall-append", integer},
        {"--stall-ms", integer}, {"--fs-sim-seed", integer}}},
      {"daemon",
       {{"--jobs-dir", text}, {"--cache-dir", text}, {"--no-cache", toggle},
        {"--cache-max-bytes", integer}, {"--owner", text},
        {"--poll-ms", integer}, {"--max-poll-ms", integer},
        {"--max-cycles", integer}, {"--member-ttl", integer},
        {"--seed", integer},
        {"--clock-skew", integer}, {"--min-free-bytes", integer},
        {"--free-bytes-file", text}, {"--fault-crash-op", integer},
        {"--stall-append", integer}, {"--stall-ms", integer},
        {"--fs-sim-seed", integer}}},
      {"merge",
       {{"--job-dir", text}, {"--json", text}, {"--cache-dir", text},
        {"--no-cache", toggle}, {"--cache-max-bytes", integer}}},
      {"status", {{"--job-dir", text}, {"--jobs-dir", text}, {"--json", text}}},
      {"gc", {{"--jobs-dir", text}}},
      {"soak",
       {{"--daemons", integer}, {"--kill-seed", integer}, {"--kills", integer},
        {"--dir", text}, {"--fault-crash-op", integer}, {"--sim", toggle},
        {"--fs-sim-seed", integer}, {"--clock-skew", integer},
        {"--stall-seed", integer}, {"--disk-pressure", toggle}}},
  };
  return all;
}

struct Outcome {
  int code = 0;
  std::string err;
};

/// Runs `<bench> [command] args...` through run_main, capturing stderr.
Outcome run(const std::string& command, std::vector<std::string> args) {
  std::vector<std::string> all{"bench"};
  if (!command.empty()) all.push_back(command);
  all.insert(all.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : all) argv.push_back(arg.data());
  ::testing::internal::CaptureStderr();
  const int code = run_main(static_cast<int>(argv.size()), argv.data(), {});
  return {code, ::testing::internal::GetCapturedStderr()};
}

/// `<bench> [command] --help`: its exit code and what it printed.
std::pair<int, std::string> help(const std::string& command) {
  ::testing::internal::CaptureStdout();
  const int code = run(command, {"--help"}).code;
  return {code, ::testing::internal::GetCapturedStdout()};
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// Runs `args` and expects exit 1, a diagnostic containing `expected`, and
/// no trial run.
void expect_rejected(const std::string& command,
                     const std::vector<std::string>& args,
                     const std::string& expected) {
  const std::uint64_t trials_before = trials_executed();
  const Outcome outcome = run(command, args);
  const std::string what = command + " " + args.front();
  EXPECT_EQ(outcome.code, 1) << what;
  EXPECT_NE(outcome.err.find(expected), std::string::npos)
      << what << ": " << outcome.err;
  EXPECT_EQ(trials_executed(), trials_before) << what;
}

TEST(CliSurface, CoversEveryCommandAndFlag) {
  std::size_t pairs = 0;
  for (const Surface& surface : surfaces()) pairs += surface.flags.size();
  EXPECT_EQ(surfaces().size(), 8u);
  EXPECT_EQ(pairs, 62u);
}

TEST(CliSurface, ValueFlagWithoutValueNamesTheFlag) {
  for (const Surface& surface : surfaces()) {
    for (const auto& [flag, kind] : surface.flags) {
      if (kind == Kind::toggle) continue;
      expect_rejected(surface.command, {flag}, flag + " requires a");
    }
  }
}

TEST(CliSurface, IntegerFlagRejectsANonNumber) {
  for (const Surface& surface : surfaces()) {
    for (const auto& [flag, kind] : surface.flags) {
      if (kind != Kind::integer) continue;
      expect_rejected(surface.command, {flag, "abc"},
                      flag + ": bad value \"abc\"");
    }
  }
}

TEST(CliSurface, ChoiceFlagNamesTheBadChoice) {
  for (const Surface& surface : surfaces()) {
    for (const auto& [flag, kind] : surface.flags) {
      if (kind != Kind::choice) continue;
      expect_rejected(surface.command, {flag, "bogus"}, "\"bogus\"");
    }
  }
}

TEST(CliSurface, RemovedFlagsAreUnknownOptions) {
  // Every daemon claims by one rule, so no flag selects or tunes it; a
  // soak paces its kills by the drain alone, so no flag sets a gap, and
  // its verdict always requires a steal when kills or stalls happened;
  // each built-in algorithm has one implementation, so no flag picks an
  // engine path; the engine keeps the full trace whenever a reader
  // declares it, so no flag sets history retention; `status --jobs-dir`
  // lists what a gc sweep reclaims, so gc has no preview; a hung op is the
  // lease heartbeat's case, so no flag sets a per-op IO deadline; no drill's
  // verdict depends on a uniformly slow mount, so none arms one; and a knob
  // no caller set to anything but its default is a constant: the soak's
  // workload, TTLs, timeout, stall length and watermark, the shared-fs
  // view's staleness window, and a plain worker's shard budget.
  const std::vector<std::pair<std::string, std::vector<std::string>>> gone = {
      {"daemon", {"--placement", "fair"}}, {"daemon", {"--inflight-cap", "2"}},
      {"daemon", {"--cores", "2"}},        {"daemon", {"--load100", "2"}},
      {"soak", {"--placement", "fair"}},
      {"soak", {"--kill-interval-ms", "400"}},
      {"soak", {"--no-require-steal"}},    {"gc", {"--dry-run"}},
      {"", {"--engine", "scalar"}},        {"", {"--history", "full"}},
      {"serve", {"--engine", "kernel"}},   {"serve", {"--history", "lean"}},
      {"worker", {"--op-deadline", "5"}},  {"daemon", {"--op-deadline", "5"}},
      {"soak", {"--slow"}},                {"soak", {"--slow-fs-ms", "2"}},
      {"worker", {"--slow-fs-ms", "2"}},   {"daemon", {"--slow-fs-ms", "2"}},
      {"soak", {"--small-jobs", "2"}},     {"soak", {"--big-trials", "40"}},
      {"soak", {"--small-trials", "4"}},   {"soak", {"--shard-tasks", "5"}},
      {"soak", {"--lease-ttl", "2"}},      {"soak", {"--member-ttl", "4"}},
      {"soak", {"--timeout", "300"}},      {"soak", {"--stall-ms", "3000"}},
      {"soak", {"--min-free-bytes", "1048576"}},
      {"soak", {"--fs-sim-stale-ops", "6"}},
      {"worker", {"--fs-sim-stale-ops", "6"}},
      {"daemon", {"--fs-sim-stale-ops", "6"}},
      {"worker", {"--max-shards", "1"}},
  };
  for (const auto& [command, args] : gone) {
    expect_rejected(command, args,
                    "unknown option \"" + args.front() + "\"");
  }
}

TEST(CliSurface, SwitchGivenAValueNamesTheArgument) {
  for (const Surface& surface : surfaces()) {
    for (const auto& [flag, kind] : surface.flags) {
      if (kind != Kind::toggle) continue;
      expect_rejected(surface.command, {flag + "=1"}, flag + "=1");
    }
  }
}

TEST(CliSurface, UnknownFlagNamesItself) {
  for (const Surface& surface : surfaces()) {
    expect_rejected(surface.command, {"--bogus"}, "\"--bogus\"");
  }
}

TEST(CliSurface, EqualsFormGivesTheSameErrorAsSpaceForm) {
  for (const Surface& surface : surfaces()) {
    for (const auto& [flag, kind] : surface.flags) {
      if (kind != Kind::integer && kind != Kind::choice) continue;
      const std::string bad = kind == Kind::integer ? "abc" : "bogus";
      const Outcome spaced = run(surface.command, {flag, bad});
      const Outcome joined = run(surface.command, {flag + "=" + bad});
      EXPECT_EQ(joined.code, 1) << surface.command << " " << flag;
      EXPECT_EQ(joined.err, spaced.err) << surface.command << " " << flag;
    }
  }
}

TEST(CliSurface, JsonEqualsFormWritesTheSameFile) {
  const std::string spaced = ::testing::TempDir() + "cli_json_spaced.json";
  const std::string joined = ::testing::TempDir() + "cli_json_joined.json";
  ::testing::internal::CaptureStdout();  // the smoke tables
  EXPECT_EQ(run("", {"--smoke", "--json", spaced}).code, 0);
  EXPECT_EQ(run("", {"--smoke", "--json=" + joined}).code, 0);
  ::testing::internal::GetCapturedStdout();
  EXPECT_FALSE(read_file(spaced).empty());
  EXPECT_EQ(read_file(joined), read_file(spaced));
}

TEST(CliSurface, HelpNamesEverySubcommandAndFlag) {
  const auto [top_code, top] = help("");
  EXPECT_EQ(top_code, 0);
  for (const Surface& surface : surfaces()) {
    if (!surface.command.empty()) {
      EXPECT_NE(top.find("\n  " + surface.command + " "), std::string::npos)
          << surface.command << " missing from:\n" << top;
    }
    const auto [code, text] = help(surface.command);
    EXPECT_EQ(code, 0) << surface.command;
    for (const auto& flag : surface.flags) {
      const std::string line = "\n  " + flag.first;
      EXPECT_TRUE(text.find(line + " ") != std::string::npos ||
                  text.find(line + "\n") != std::string::npos)
          << surface.command << " " << flag.first << " missing from:\n"
          << text;
    }
  }
}

}  // namespace
}  // namespace dualcast::scenario
