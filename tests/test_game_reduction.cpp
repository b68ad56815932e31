// The Theorem 3.1 reduction, run forward: simulating a broadcast algorithm
// on the bridgeless dual clique wins the β-hitting game, with O(log β)
// guesses per simulated round, and the simulation is *valid* — identical to
// an execution on the true (bridged) target network up to the winning round.

#include <gtest/gtest.h>

#include <cmath>

#include "adversary/dense_sparse.hpp"
#include "core/kernels.hpp"
#include "game/reduction_player.hpp"
#include "graph/generators.hpp"
#include "reference/factories.hpp"
#include "sim/kernel_execution.hpp"
#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {
namespace {

DecayGlobalConfig persistent_decay(ScheduleKind kind) {
  DecayGlobalConfig cfg = DecayGlobalConfig::fast(kind);
  cfg.calls = DecayGlobalConfig::kUnbounded;
  return cfg;
}

TEST(ReductionPlayer, WinsWithRoundRobin) {
  // Round robin solves broadcast in O(n) against the dense/sparse link
  // behavior, so the player must win in O(n log n) guesses; in fact every
  // round robin round is sparse with one transmitter -> one guess per round.
  const int beta = 64;
  Rng rng(11);
  int wins = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    HittingGame game = HittingGame::with_random_target(beta, rng);
    ReductionConfig cfg;
    cfg.beta = beta;
    cfg.problem = ReductionProblem::global_broadcast;
    cfg.seed = 100 + static_cast<std::uint64_t>(t);
    BroadcastReductionPlayer player(
        cfg, adapter_factory(round_robin_factory(RoundRobinConfig{true})));
    const ReductionOutcome outcome = player.play(game);
    if (outcome.won) {
      ++wins;
      EXPECT_LE(outcome.game_rounds, 4 * beta);
      EXPECT_LE(outcome.max_guesses_in_a_round, 1);
    }
  }
  EXPECT_EQ(wins, trials);
}

TEST(ReductionPlayer, WinsWithPersistentDecay) {
  const int beta = 64;
  Rng rng(13);
  int wins = 0;
  const int trials = 10;
  int max_guesses = 0;
  for (int t = 0; t < trials; ++t) {
    HittingGame game = HittingGame::with_random_target(beta, rng);
    ReductionConfig cfg;
    cfg.beta = beta;
    cfg.problem = ReductionProblem::global_broadcast;
    cfg.seed = 200 + static_cast<std::uint64_t>(t);
    BroadcastReductionPlayer player(
        cfg,
        adapter_factory(
            decay_global_factory(persistent_decay(ScheduleKind::fixed))));
    const ReductionOutcome outcome = player.play(game);
    wins += outcome.won ? 1 : 0;
    max_guesses = std::max(max_guesses, outcome.max_guesses_in_a_round);
  }
  EXPECT_GE(wins, trials - 1);
  // O(log β) guesses per simulated round (β excepted for the all-guess case,
  // which should essentially never fire for a dense round).
  EXPECT_LE(max_guesses, 8 * clog2(static_cast<std::uint64_t>(beta)));
}

TEST(ReductionPlayer, WorksForLocalBroadcastRoles) {
  const int beta = 32;
  Rng rng(17);
  int wins = 0;
  const int trials = 10;
  for (int t = 0; t < trials; ++t) {
    HittingGame game = HittingGame::with_random_target(beta, rng);
    ReductionConfig cfg;
    cfg.beta = beta;
    cfg.problem = ReductionProblem::local_broadcast;
    cfg.seed = 300 + static_cast<std::uint64_t>(t);
    BroadcastReductionPlayer player(
        cfg, adapter_factory(decay_local_factory(DecayLocalConfig{})));
    const ReductionOutcome outcome = player.play(game);
    wins += outcome.won ? 1 : 0;
  }
  EXPECT_GE(wins, trials - 1);
}

TEST(ReductionPlayer, SparseRoundsDominateForDecay) {
  const int beta = 64;
  Rng rng(19);
  HittingGame game = HittingGame::with_random_target(beta, rng);
  ReductionConfig cfg;
  cfg.beta = beta;
  cfg.seed = 42;
  BroadcastReductionPlayer player(
      cfg,
      adapter_factory(
          decay_global_factory(persistent_decay(ScheduleKind::fixed))));
  const ReductionOutcome outcome = player.play(game);
  ASSERT_TRUE(outcome.won);
  EXPECT_GT(outcome.sparse_rounds, 0);
  EXPECT_GT(outcome.dense_rounds, 0);
}

TEST(ReductionPlayer, KernelEngineReplaysScalarPlayerExactly) {
  // The inner simulation runs on whatever algorithm the player is given:
  // the built-in kernel, or its scalar reference on the adapter. The two
  // replay bit-identically, so the whole played game — labels, guesses,
  // win round — must match outcome for outcome.
  const int beta = 48;
  Rng rng(23);
  for (int t = 0; t < 6; ++t) {
    const int target = static_cast<int>(rng.uniform_int(0, beta - 1));
    ReductionConfig cfg;
    cfg.beta = beta;
    cfg.problem = t % 2 == 0 ? ReductionProblem::global_broadcast
                             : ReductionProblem::local_broadcast;
    cfg.seed = 600 + static_cast<std::uint64_t>(t);

    HittingGame scalar_game(beta, target);
    BroadcastReductionPlayer scalar_player(
        cfg,
        adapter_factory(
            decay_global_factory(persistent_decay(ScheduleKind::fixed))));
    const ReductionOutcome scalar_outcome = scalar_player.play(scalar_game);

    HittingGame kernel_game(beta, target);
    BroadcastReductionPlayer kernel_player(
        cfg,
        decay_global_kernel_factory(persistent_decay(ScheduleKind::fixed)));
    const ReductionOutcome kernel_outcome = kernel_player.play(kernel_game);

    EXPECT_EQ(scalar_outcome.won, kernel_outcome.won) << "trial " << t;
    EXPECT_EQ(scalar_outcome.game_rounds, kernel_outcome.game_rounds);
    EXPECT_EQ(scalar_outcome.sim_rounds, kernel_outcome.sim_rounds);
    EXPECT_EQ(scalar_outcome.dense_rounds, kernel_outcome.dense_rounds);
    EXPECT_EQ(scalar_outcome.sparse_rounds, kernel_outcome.sparse_rounds);
    EXPECT_EQ(scalar_outcome.max_guesses_in_a_round,
              kernel_outcome.max_guesses_in_a_round);
  }
}

TEST(ReductionPlayer, RejectsMismatchedGame) {
  ReductionConfig cfg;
  cfg.beta = 16;
  BroadcastReductionPlayer player(
      cfg, adapter_factory(round_robin_factory(RoundRobinConfig{true})));
  HittingGame wrong_size(8, 1);
  EXPECT_THROW(player.play(wrong_size), ContractViolation);
}

TEST(ReductionValidity, SimulationMatchesTrueTargetNetworkUntilTheWin) {
  // The proof's central claim: the bridgeless simulation is consistent with
  // the *true* network (bridge at t) under the same adversary until the
  // player wins. We replay: run the player's simulation (bridgeless, seed s)
  // and a real execution on the bridged dual clique with bridge_index = t,
  // same seed and same dense/sparse adversary, and compare per-round
  // transmitter sets for the prefix of rounds the player consumed.
  const int beta = 32;
  const int target = 11;
  const std::uint64_t seed = 77;

  HittingGame game(beta, target);
  ReductionConfig cfg;
  cfg.beta = beta;
  cfg.seed = seed;
  BroadcastReductionPlayer player(
      cfg,
      adapter_factory(
          decay_global_factory(persistent_decay(ScheduleKind::fixed))));
  const ReductionOutcome outcome = player.play(game);
  ASSERT_TRUE(outcome.won);

  // True target network: bridge at (target, target + beta).
  const DualCliqueNet true_net = dual_clique(2 * beta, target);
  KernelExecution real(
      true_net.net,
      make_scalar_kernel_adapter(
          decay_global_factory(persistent_decay(ScheduleKind::fixed))),
      std::make_shared<AssignmentProblem>(2 * beta, 0, std::vector<int>{}),
      std::make_unique<DenseSparseOnline>(DenseSparseConfig{1.0}),
      {seed, outcome.sim_rounds + 1, {}});

  // Re-run the player's simulation to recover its transmitter trace.
  const DualCliqueNet sim_net = dual_clique_without_bridge(2 * beta);
  KernelExecution sim(
      sim_net.net,
      make_scalar_kernel_adapter(
          decay_global_factory(persistent_decay(ScheduleKind::fixed))),
      std::make_shared<AssignmentProblem>(2 * beta, 0, std::vector<int>{}),
      std::make_unique<DenseSparseOnline>(DenseSparseConfig{1.0}),
      {seed, outcome.sim_rounds + 1, {}});

  // All rounds before the winning one must agree exactly (the winning round
  // itself may diverge only *after* the winning transmission, which is the
  // last event compared).
  for (int r = 0; r < outcome.sim_rounds; ++r) {
    real.step();
    sim.step();
    ASSERT_EQ(real.history().round(r).transmitters,
              sim.history().round(r).transmitters)
        << "divergence at simulated round " << r << " (win at "
        << outcome.sim_rounds - 1 << ")";
  }
}

}  // namespace
}  // namespace dualcast
