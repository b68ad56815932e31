// Lemma 3.2 and the Theorem 3.1 reduction, measured.
//
// Part 1 — the abstract bound: empirical win probability within k rounds for
// three baseline players, against the k/(β-1) ceiling.
//
// Part 2 — the reduction run forward: BroadcastReductionPlayer simulates a
// broadcast algorithm on the bridgeless dual clique and wins the game; we
// report game rounds, simulated rounds, and the max guesses per simulated
// round (the O(log β) quantity from the proof).

#include <iostream>

#include "analysis/table.hpp"
#include "bench_support.hpp"
#include "game/hitting_game.hpp"
#include "game/reduction_player.hpp"
#include "scenario/registries.hpp"
#include "util/mathutil.hpp"

namespace dualcast::bench {
namespace {

void lemma32_table() {
  Table table({"beta", "k", "bound k/(b-1)", "uniform", "sequential",
               "shuffled"});
  Rng rng(1);
  const int trials = 3000;
  for (const auto& [beta, k] :
       std::vector<std::pair<int, int>>{{32, 4}, {32, 16}, {128, 16},
                                        {128, 64}, {512, 64}}) {
    const auto rate = [&](auto make_player) {
      int wins = 0;
      for (int t = 0; t < trials; ++t) {
        HittingGame game = HittingGame::with_random_target(beta, rng);
        auto player = make_player();
        if (play_hitting_game(game, *player, k, rng) > 0) ++wins;
      }
      return static_cast<double>(wins) / trials;
    };
    const double uniform = rate([] { return std::make_unique<UniformPlayer>(); });
    const double sequential =
        rate([] { return std::make_unique<SequentialPlayer>(); });
    const double shuffled =
        rate([] { return std::make_unique<ShuffledPlayer>(); });
    table.add_row({cell(beta), cell(k),
                   cell(static_cast<double>(k) / (beta - 1), 3),
                   cell(uniform, 3), cell(sequential, 3), cell(shuffled, 3)});
  }
  std::cout << "-- Lemma 3.2: win probability within k rounds --\n";
  table.print(std::cout);
  std::cout << "  expectation: every measured rate <= bound (shuffled ~= "
               "k/beta, nearly tight).\n\n";
}

void reduction_table() {
  Table table({"beta", "algorithm", "win rate", "median game rounds",
               "median sim rounds", "max guesses/round"});
  Rng rng(2);
  const int trials = 9;
  for (const int beta : {32, 64, 128, 256}) {
    for (const int algo : {0, 1}) {
      std::vector<double> game_rounds;
      std::vector<double> sim_rounds;
      int wins = 0;
      int max_guesses = 0;
      for (int t = 0; t < trials; ++t) {
        HittingGame game = HittingGame::with_random_target(beta, rng);
        ReductionConfig cfg;
        cfg.beta = beta;
        cfg.seed = 500 + static_cast<std::uint64_t>(t);
        // Simulated algorithms come from the scenario registry.
        BroadcastReductionPlayer player(
            cfg, scenario::algorithms().build(
                     algo == 0 ? "round_robin"
                               : "decay_global(fixed,persistent)"));
        const ReductionOutcome outcome = player.play(game);
        wins += outcome.won ? 1 : 0;
        if (outcome.won) {
          game_rounds.push_back(outcome.game_rounds);
          sim_rounds.push_back(outcome.sim_rounds);
        }
        max_guesses = std::max(max_guesses, outcome.max_guesses_in_a_round);
      }
      table.add_row(
          {cell(beta), algo == 0 ? "round-robin" : "persistent-decay",
           cell(static_cast<double>(wins) / trials, 2),
           game_rounds.empty() ? "-" : cell(quantile(game_rounds, 0.5), 0),
           sim_rounds.empty() ? "-" : cell(quantile(sim_rounds, 0.5), 0),
           cell(max_guesses)});
    }
  }
  std::cout << "-- Theorem 3.1 reduction: player wins by simulating broadcast "
               "--\n";
  table.print(std::cout);
  std::cout << "  expectation: win rate ~1.0; game rounds O(f(2b)·log b); max "
               "guesses/round O(log b).\n";
}

}  // namespace
}  // namespace dualcast::bench

int main() {
  using namespace dualcast;
  using namespace dualcast::bench;
  banner("beta-hitting game (Lemma 3.2) + simulation reduction (Theorem 3.1)",
         "no k-round player beats k/(beta-1); broadcast => efficient player");
  lemma32_table();
  reduction_table();
  return 0;
}
