#pragma once

// Global broadcast by (permuted) Decay — the §4.1 algorithm and its classic
// fixed-schedule ancestor [2].
//
// Protocol (following §4.1 verbatim, with the schedule kind factored out):
//   * The source creates m = <payload, S> where S is a string of
//     `seed_bits` random bits generated from its private stream after the
//     execution begins, broadcasts m in round 0, and then goes silent — its
//     role is finished.
//   * Every other node, on first receiving m in round r, waits until the
//     next round r' >= r+1 with r' ≡ 0 (mod γ·L) — so concurrently active
//     nodes are aligned to the same subroutine boundaries — then runs
//     `calls` consecutive Decay subroutine calls of γ·L rounds each, and
//     goes silent.
//   * In each active round it transmits m with probability 2^-i(r), where
//     i(r) comes from the fixed or permuted schedule (see decay_schedule.hpp).
//     Indexing the permutation bits by the absolute round number keeps all
//     simultaneously active holders coordinated, as Lemma 4.2 requires.
//
// Paper constants (γ=16, calls=2·log n, |S|=32·log²n·loglog n) are the
// `paper()` profile; `fast()` shrinks γ for bench-scale runs. With the
// permuted schedule this solves global broadcast in O(D log n + log² n)
// rounds against any oblivious adversary (Theorem 4.1); with the fixed
// schedule it is the classic protocol-model algorithm, and is the victim of
// the §4.1 oblivious anti-schedule attack.

#include "core/decay_schedule.hpp"

namespace dualcast {

struct DecayGlobalConfig {
  ScheduleKind schedule = ScheduleKind::permuted;
  /// Subroutine length multiplier: each Decay call lasts gamma * L rounds,
  /// where L = clog2(n).
  int gamma = 16;
  /// Number of consecutive Decay calls a holder performs; 0 means the paper's
  /// 2 * L; kUnbounded means holders keep decaying until the execution ends
  /// (the "persistent" variant used to *measure* attack slowdowns — under an
  /// adaptive attack the paper-profile window simply expires and broadcast
  /// fails outright, which benches report as a failure rate instead of a
  /// round count).
  int calls = 0;

  static constexpr int kUnbounded = -1;
  /// Length of the shared random string S; 0 means 2 * gamma * L^2 chunk
  /// widths' worth (the paper's 32 log²n loglog n at gamma=16).
  int seed_bits = 0;

  /// §4.1 constants.
  static DecayGlobalConfig paper(ScheduleKind kind = ScheduleKind::permuted) {
    DecayGlobalConfig cfg;
    cfg.schedule = kind;
    cfg.gamma = 16;
    return cfg;
  }
  /// Bench-scale profile: gamma=4, same asymptotic structure.
  static DecayGlobalConfig fast(ScheduleKind kind = ScheduleKind::permuted) {
    DecayGlobalConfig cfg;
    cfg.schedule = kind;
    cfg.gamma = 4;
    return cfg;
  }
};

}  // namespace dualcast
