#pragma once

// The simulation-based reduction of Theorem 3.1, as a runnable player.
//
// Given any broadcast algorithm A, the player wins β-hitting by simulating A
// on a *bridgeless* dual clique of 2β nodes (it does not know the target t,
// so it cannot place the (t, t+β) bridge — the proof shows the omission is
// invisible until the game is already won):
//
//   * it plays the link process itself, online-adaptively: before each
//     simulated round it computes E[|X| | S]; rounds with expectation above
//     c·log β are *dense* (all G' edges on), the rest *sparse* (none);
//   * guesses per simulated round:
//       dense and |X| = 1  -> guess everything, 0..β-1 (certain win);
//       dense and |X| ≠ 1  -> no guesses;
//       sparse             -> guess v mod β for each transmitter v.
//   * for global broadcast, node 0 (side A) is the source; for local
//     broadcast all of side A is the broadcast set — either way, solving
//     broadcast requires a message to cross between the cliques, which under
//     this link behavior forces a round whose guesses include t.
//
// Lemma 3.2 then turns an o(n/log n)-round algorithm into an impossible
// player — and, run forward, this class *wins the game* in
// O(f(2β)·log β) guesses, which bench/hitting_game measures.

#include <memory>

#include "graph/generators.hpp"
#include "sim/kernel.hpp"
#include "game/hitting_game.hpp"

namespace dualcast {

enum class ReductionProblem { global_broadcast, local_broadcast };

struct ReductionConfig {
  int beta = 0;  ///< game size; the simulated network has n = 2β nodes
  ReductionProblem problem = ReductionProblem::global_broadcast;
  /// Dense iff E[|X| | S] > threshold_factor * log2(2β).
  double threshold_factor = 1.0;
  /// Cap on simulated rounds (w.l.o.g. (2β)² per the proof; default lower
  /// for bench practicality).
  int max_sim_rounds = 0;
  std::uint64_t seed = 1;
};

struct ReductionOutcome {
  bool won = false;
  int game_rounds = 0;  ///< guesses consumed
  int sim_rounds = 0;   ///< simulated broadcast rounds
  int max_guesses_in_a_round = 0;
  int dense_rounds = 0;
  int sparse_rounds = 0;
};

class BroadcastReductionPlayer {
 public:
  /// `factory` is the broadcast algorithm A under reduction (must produce
  /// InspectableProcess instances). When `kernel` is non-null it drives the
  /// inner simulation instead of the scalar adapter over `factory` —
  /// bit-identical per the kernel parity contract, so the played game
  /// (guesses, labels, outcome) is the same either way; pass the
  /// algorithm's kernels() entry (scenario::build_kernel_or_null) to make
  /// hitting_game runs ride the fast path.
  BroadcastReductionPlayer(ReductionConfig config, ProcessFactory factory,
                           KernelFactory kernel = {});

  /// Plays `game` to completion (or until `max_sim_rounds` simulated rounds /
  /// the game's β² guess budget is exhausted).
  ReductionOutcome play(HittingGame& game);

 private:
  ReductionConfig config_;
  ProcessFactory factory_;
  KernelFactory kernel_;
  DualCliqueNet net_;
};

}  // namespace dualcast
