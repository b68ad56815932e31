// consume_run_option_flag: the run-option flags every bench binary and
// `serve` share — the two spellings of the worker count, the "--flag=V"
// and "--flag V" forms of every value flag, and the bad-input errors.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "scenario/cli.hpp"

namespace dualcast::scenario {
namespace {

/// Consumes `args` as run-option flags from the first; fails the test when
/// one is not a run option.
RunOptions parse(std::vector<std::string> args) {
  std::vector<char*> argv;
  for (std::string& arg : args) argv.push_back(arg.data());
  const int argc = static_cast<int>(argv.size());
  RunOptions options;
  for (int i = 0; i < argc; ++i) {
    const std::string arg = argv[static_cast<std::size_t>(i)];
    EXPECT_TRUE(consume_run_option_flag(argc, argv.data(), i, options))
        << arg;
  }
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
  EXPECT_EQ(parse({"--history=full"}).history, HistoryPolicy::full);
  EXPECT_EQ(parse({"--history", "full"}).history, HistoryPolicy::full);
  EXPECT_EQ(parse({"--engine=scalar"}).engine, EnginePath::scalar);
  EXPECT_EQ(parse({"--engine", "scalar"}).engine, EnginePath::scalar);
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
                                             {"--engine", "bogus"},
                                             {"--rng=bogus"},
                                             {"--history", "some"},
                                             {"--trials"},
                                             {"--threads"},
                                             {"--engine"}}) {
    EXPECT_THROW(parse(args), ScenarioError) << args.front();
  }
}

TEST(RunOptionFlags, OtherArgumentsAreNotConsumed) {
  for (std::string arg : {"--bogus", "--json", "--smoke=1", "fig1"}) {
    char* argv[] = {arg.data()};
    int i = 0;
    RunOptions options;
    EXPECT_FALSE(consume_run_option_flag(1, argv, i, options)) << arg;
    EXPECT_EQ(i, 0) << arg;
  }
}

}  // namespace
}  // namespace dualcast::scenario
