// The β-hitting game and the Theorem 3.1 reduction, interactively narrated.
//
// Part 1 plays the abstract game with the baseline players and checks
// Lemma 3.2's ceiling. Part 2 builds the reduction player around a real
// broadcast algorithm and shows it winning the game by *simulating a radio
// network* — the executable heart of the paper's lower-bound technique.

#include <iostream>

#include "game/hitting_game.hpp"
#include "game/reduction_player.hpp"
#include "scenario/registries.hpp"
#include "util/mathutil.hpp"
#include "util/strfmt.hpp"

int main() {
  using namespace dualcast;

  constexpr int kBeta = 64;
  Rng rng(7);

  std::cout << "=== Part 1: the beta-hitting game (beta = " << kBeta
            << ") ===\n";
  std::cout << "An adversary hides a target t in [0, " << kBeta - 1
            << "]; one guess per round.\n"
            << "Lemma 3.2: no player wins within k rounds with probability > "
               "k/(beta-1).\n\n";
  {
    const int k = 16;
    const int trials = 2000;
    int wins = 0;
    for (int t = 0; t < trials; ++t) {
      HittingGame game = HittingGame::with_random_target(kBeta, rng);
      ShuffledPlayer player;
      if (play_hitting_game(game, player, k, rng) > 0) ++wins;
    }
    std::cout << "optimal (no-repeat) player, k = " << k << ": won "
              << wins << "/" << trials << " ("
              << fmt_double(100.0 * wins / trials, 1) << "%), bound "
              << fmt_double(100.0 * k / (kBeta - 1), 1) << "%\n\n";
  }

  std::cout << "=== Part 2: winning by simulating broadcast (Theorem 3.1) "
               "===\n";
  std::cout
      << "The player simulates a 2*beta-node *bridgeless* dual clique (it\n"
         "does not know where the bridge is — that IS the secret target),\n"
         "plays the dense/sparse link process itself, and turns the\n"
         "simulated transmissions into guesses.\n\n";

  for (const bool use_decay : {false, true}) {
    HittingGame game = HittingGame::with_random_target(kBeta, rng);
    ReductionConfig cfg;
    cfg.beta = kBeta;
    cfg.problem = ReductionProblem::global_broadcast;
    cfg.seed = 99;
    // The simulated broadcast algorithm, by registry name.
    BroadcastReductionPlayer player(
        cfg, scenario::algorithms().build(
                 use_decay ? "decay_global(fixed,persistent)" : "round_robin"));
    const ReductionOutcome outcome = player.play(game);
    std::cout << (use_decay ? "persistent decay" : "round robin      ")
              << " : won = " << (outcome.won ? "yes" : "no")
              << ", game rounds = " << outcome.game_rounds
              << ", simulated rounds = " << outcome.sim_rounds
              << ", dense/sparse = " << outcome.dense_rounds << "/"
              << outcome.sparse_rounds
              << ", max guesses/round = " << outcome.max_guesses_in_a_round
              << " (O(log beta) = " << clog2(kBeta) << ")\n";
  }

  std::cout
      << "\nThe contrapositive is the theorem: if any algorithm solved\n"
         "broadcast in o(n/log n) rounds, this player would beat Lemma 3.2's\n"
         "ceiling — so no such algorithm exists in the online adaptive dual\n"
         "graph model.\n";
  return 0;
}
