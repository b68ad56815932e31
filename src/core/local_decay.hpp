#pragma once

// Local broadcast by Decay — the static-model baseline ([8]: a "slight tweak"
// of [2] solving local broadcast in O(log n · log Δ) rounds) and its
// uncoordinated permuted variant.
//
// Every node in the broadcast set B cycles the probability ladder
// {1/2, ..., 2^-ladder} with ladder = clog2(2Δ) (a receiver has at most Δ
// contending B-neighbors, so the ladder only needs to cover Δ), repeating
// until the execution ends. Nodes outside B always listen.
//
// Schedule kinds:
//   * fixed            — public deterministic ladder walk (attackable by an
//                        oblivious anti-schedule adversary);
//   * private permuted — each node draws its own random index sequence. No
//                        public schedule to attack, but also *no
//                        coordination*: Theorem 4.3's pre-simulation
//                        adversary still predicts the aggregate density of
//                        transmissions (Lemma 4.5) and delays the clasp on
//                        the bracelet — unlike §4.3's shared-seed algorithm,
//                        which is only possible under geographic constraints.

#include "core/decay_schedule.hpp"

namespace dualcast {

struct DecayLocalConfig {
  ScheduleKind schedule = ScheduleKind::fixed;
  /// Probability ladder depth; 0 means clog2(2Δ).
  int ladder = 0;
  /// Private permutation bits per node (permuted schedule); 0 = derived.
  int seed_bits = 0;
};

}  // namespace dualcast
