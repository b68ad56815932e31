#include "game/reduction_player.hpp"

#include <algorithm>

#include "adversary/dense_sparse.hpp"
#include "sim/kernel_execution.hpp"
#include "sim/problem.hpp"
#include "util/assert.hpp"

namespace dualcast {

BroadcastReductionPlayer::BroadcastReductionPlayer(ReductionConfig config,
                                                   ProcessFactory factory,
                                                   KernelFactory kernel)
    : config_(config),
      factory_(std::move(factory)),
      kernel_(std::move(kernel)),
      net_(dual_clique_without_bridge(2 * config.beta)) {
  DC_EXPECTS(config.beta >= 2);
  DC_EXPECTS(config.threshold_factor > 0.0);
  DC_EXPECTS(factory_ != nullptr);
}

ReductionOutcome BroadcastReductionPlayer::play(HittingGame& game) {
  DC_EXPECTS_MSG(game.beta() == config_.beta,
                 "game size must match the configured beta");
  const int beta = config_.beta;
  const int n = 2 * beta;

  // Roles per the proof: global -> source is node 0 (side A); local -> all of
  // side A is the broadcast set.
  std::shared_ptr<Problem> problem;
  if (config_.problem == ReductionProblem::global_broadcast) {
    problem = std::make_shared<AssignmentProblem>(n, 0, std::vector<int>{});
  } else {
    problem = std::make_shared<AssignmentProblem>(n, -1, net_.side_a);
  }

  auto adversary = std::make_unique<DenseSparseOnline>(
      DenseSparseConfig{config_.threshold_factor});
  auto* adversary_ptr = adversary.get();

  ExecutionConfig exec_cfg;
  exec_cfg.seed = config_.seed;
  exec_cfg.max_rounds = config_.max_sim_rounds > 0
                            ? config_.max_sim_rounds
                            : std::min(4 * n * n, 1 << 20);

  // The problem (assignment only) is batch-compatible, so a native kernel
  // needs no scalar adapter.
  KernelExecution exec(
      net_.net, factory_,
      kernel_ ? kernel_() : make_scalar_kernel_adapter(factory_),
      std::move(problem), std::move(adversary), exec_cfg);
  const std::vector<char>& round_labels = adversary_ptr->labels();

  // The guessing loop of Theorem 3.1.
  const int guess_budget = beta * beta;
  ReductionOutcome out;
  std::vector<int> guesses;
  while (!exec.done()) {
    exec.step();
    ++out.sim_rounds;
    const int r = exec.round() - 1;
    const bool dense = round_labels[static_cast<std::size_t>(r)] != 0;
    const auto& transmitters = exec.history().round(r).transmitters;
    (dense ? out.dense_rounds : out.sparse_rounds) += 1;

    // Guess generation rules of Theorem 3.1.
    guesses.clear();
    if (dense) {
      if (transmitters.size() == 1) {
        guesses.resize(static_cast<std::size_t>(beta));
        for (int g = 0; g < beta; ++g) guesses[static_cast<std::size_t>(g)] = g;
      }
    } else {
      for (const int v : transmitters) guesses.push_back(v % beta);
    }
    out.max_guesses_in_a_round =
        std::max(out.max_guesses_in_a_round, static_cast<int>(guesses.size()));

    for (const int g : guesses) {
      if (game.rounds() >= guess_budget) {
        out.game_rounds = game.rounds();
        return out;  // guess budget exhausted; player failed
      }
      if (game.guess(g)) {
        out.won = true;
        out.game_rounds = game.rounds();
        return out;
      }
    }
  }
  out.game_rounds = game.rounds();
  return out;
}

}  // namespace dualcast
