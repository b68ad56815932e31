// The `word` RNG mode's validation contract: it is NOT byte-identical to
// the per-node mode (different streams feed the per-round coins), but every
// per-trial *distribution* must be unchanged — word-parallel masks are the
// same Bernoulli(2^-i) coins, just drawn 64 lanes at a time. We check
// completion-round distributions over >= 200 seeds on three catalog-shaped
// scenarios covering the three word-mode kernels (global decay, local
// decay, gossip) with both shared and divergent ladder indices, via a
// two-sample Kolmogorov–Smirnov bound plus quantile ratios. Fixed seeds
// make the test deterministic; the bounds sit well above the KS alpha=0.001
// critical value for these sample sizes.
//
// Also pinned here: word mode is deterministic (same seed -> same run), and
// it actually diverges from per-node mode (the test would otherwise be
// vacuous).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "scenario/registries.hpp"
#include "sim/kernel_execution.hpp"

namespace dualcast {
namespace {

using scenario::Topology;

struct WordModeCase {
  std::string name;
  std::string topology;
  std::string algorithm;
  std::string adversary;
  std::string problem;
  int max_rounds;
  std::uint64_t base_seed;
};

std::vector<WordModeCase> word_mode_cases() {
  return {
      // Global decay, fixed schedule: every holder shares one ladder index
      // (the single-mask word path).
      {"decay_global/fixed", "dual_clique(64)",
       "decay_global(fixed,persistent)", "iid(0.5)", "global(1)", 20000, 900},
      // Local decay, permuted schedule: per-node divergent indices (the
      // lazy prefix-mask ladder path).
      {"decay_local/permuted", "dual_clique(48)", "decay_local(permuted)",
       "iid(0.4)", "local(side_a)", 20000, 1400},
      // Gossip: dynamic holder set, token rotation on top of the coins.
      {"gossip", "line_overlay(64,4)", "gossip", "iid(0.5)", "gossip(4)",
       6000, 2500},
  };
}

double run_trial(const WordModeCase& c, const Topology& topo,
                 std::uint64_t seed, RngMode mode) {
  const KernelFactory kernel = scenario::algorithms().build(c.algorithm);
  KernelExecution exec(
      topo.net(), kernel(), scenario::problems().build(c.problem, topo)(),
      scenario::adversaries().build(c.adversary, topo, kernel)(),
      ExecutionConfig{}
          .with_seed(seed)
          .with_max_rounds(c.max_rounds)
          .with_history_policy(HistoryPolicy::lean)
          .with_rng_mode(mode));
  const RunResult result = exec.run();
  // Censored trials keep their cap value: both modes censor at the same
  // budget, so the comparison stays valid.
  return static_cast<double>(result.rounds);
}

double ks_statistic(std::vector<double> a, std::vector<double> b) {
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  double d = 0.0;
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] <= b[j]) {
      ++i;
    } else {
      ++j;
    }
    d = std::max(d, std::fabs(static_cast<double>(i) / a.size() -
                              static_cast<double>(j) / b.size()));
  }
  return d;
}

double quantile_of(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const std::size_t idx = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  return values[idx];
}

TEST(WordRngMode, CompletionRoundsAreDistributionallyEquivalent) {
  constexpr int kTrials = 220;
  for (const WordModeCase& c : word_mode_cases()) {
    SCOPED_TRACE(c.name);
    const Topology topo = scenario::topologies().build(c.topology, 5);
    std::vector<double> per_node;
    std::vector<double> word;
    per_node.reserve(kTrials);
    word.reserve(kTrials);
    for (int t = 0; t < kTrials; ++t) {
      const std::uint64_t seed = c.base_seed + static_cast<std::uint64_t>(t);
      per_node.push_back(run_trial(c, topo, seed, RngMode::per_node));
      word.push_back(run_trial(c, topo, seed, RngMode::word));
    }
    // Non-vacuousness: the modes draw different sample paths.
    EXPECT_NE(per_node, word);

    // KS two-sample bound: critical value at alpha=0.001 for n=m=220 is
    // 1.95 * sqrt(2/220) ~= 0.186; allow a little headroom.
    const double d = ks_statistic(per_node, word);
    EXPECT_LT(d, 0.2) << "KS statistic " << d;

    // Quantile ratios across the bulk of the distribution.
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      const double qa = quantile_of(per_node, q);
      const double qb = quantile_of(word, q);
      ASSERT_GT(qa, 0.0);
      EXPECT_GT(qb / qa, 0.75) << "quantile " << q;
      EXPECT_LT(qb / qa, 1.3333) << "quantile " << q;
    }
  }
}

TEST(WordRngMode, DeterministicPerSeed) {
  const WordModeCase c = word_mode_cases()[0];
  const Topology topo = scenario::topologies().build(c.topology, 5);
  for (std::uint64_t seed = 7000; seed < 7004; ++seed) {
    EXPECT_EQ(run_trial(c, topo, seed, RngMode::word),
              run_trial(c, topo, seed, RngMode::word));
  }
}

}  // namespace
}  // namespace dualcast
