#pragma once

// The §4.3 local broadcast algorithm for geographic graphs in the oblivious
// dual graph model — O(log² n · log Δ) rounds.
//
// Two stages:
//
//  INITIALIZATION (all nodes; B-agnostic). log Δ phases, one per leader
//  election probability 1/Δ, 2/Δ, ..., 1/2. Each phase:
//    round 0:        every still-active node elects itself leader with the
//                    phase probability; a new leader draws a fresh random
//                    seed (its private stream — i.e. after execution start)
//                    and commits to it;
//    rounds 1..T:    each leader transmits its seed with probability
//                    1/log n per round;
//    end of phase:   leaders go inactive; active non-leaders that received a
//                    seed commit to the first one received and go inactive.
//  Nodes still active after the last phase commit to a self-generated seed.
//  Result (Lemma 4.9): whp every node holds a seed and each node neighbors
//  O(log n) distinct seeds in G' — the geographic region structure is what
//  bounds the leader count per neighborhood.
//
//  BROADCAST (B nodes only). `iterations` iterations, each one permuted-decay
//  call of γ·ladder rounds with ladder = clog2(2Δ) (a receiver has ≤ Δ
//  contenders, so the ladder need only cover Δ — this is the reading of
//  §4.3 that matches Theorem 4.6's O(log²n log Δ) bound; see DESIGN.md).
//  Per iteration, a B node *participates* with probability 1/log n — the
//  decision and the decay indices are all derived from its committed seed,
//  so same-seed nodes act as one coordinated cluster: with probability
//  Ω(1/log n) a given receiver hears exactly one cluster, and by Lemma 4.2
//  that cluster delivers with probability > 1/2.
//
// The `shared_seeds=false` ablation skips initialization entirely and gives
// every B node an independent private seed — isolating the contribution of
// the coordination machinery (`dualcast_bench ablation/seeds`).

#include "core/decay_schedule.hpp"

namespace dualcast {

struct GeoLocalConfig {
  /// Seed-dissemination rounds per phase; 0 means c_init * clog2(n)^2.
  int phase_rounds = 0;
  double c_init = 1.0;
  /// Broadcast-stage iterations; 0 means c_iter * clog2(n)^2.
  int iterations = 0;
  double c_iter = 1.0;
  /// Decay subroutine length multiplier (γ).
  int gamma = 4;
  /// Probability ladder depth; 0 means clog2(2Δ).
  int ladder = 0;
  /// Seed length in bits; 0 = derived from iterations and ladder.
  int seed_bits = 0;
  /// Ablation switch: false = skip initialization, use private seeds.
  bool shared_seeds = true;

  /// §4.3 constants (γ=16; the paper's seed of O(log³n (loglog n)²) bits).
  static GeoLocalConfig paper() {
    GeoLocalConfig cfg;
    cfg.gamma = 16;
    return cfg;
  }
  /// Bench-scale profile.
  static GeoLocalConfig fast() {
    GeoLocalConfig cfg;
    cfg.gamma = 4;
    return cfg;
  }
};

/// The stage layout the algorithm derives from its config and the n and Δ
/// its environments state (defined with its kernel in kernels.cpp).
struct GeoLocalLayout {
  int logn = 0;          ///< L = clog2(n)
  int ladder = 0;        ///< broadcast-stage probability ladder (covers Δ)
  int phases = 0;        ///< initialization phases, log Δ
  int phase_rounds = 0;  ///< seed-dissemination rounds per phase
  int iterations = 0;    ///< broadcast-stage iterations
  int iteration_length = 0;  ///< rounds per iteration, γ · ladder

  /// An election round plus the dissemination rounds.
  int phase_length() const { return 1 + phase_rounds; }
};

GeoLocalLayout geo_local_layout(const GeoLocalConfig& config, int n,
                                int max_degree);

}  // namespace dualcast
