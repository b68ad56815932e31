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
#include "sim/process.hpp"

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
  static GeoLocalConfig paper();
  /// Bench-scale profile.
  static GeoLocalConfig fast();
};

class GeoLocalBroadcast final : public InspectableProcess {
 public:
  explicit GeoLocalBroadcast(GeoLocalConfig config);

  void init(const ProcessEnv& env, Rng& rng) override;
  Action on_round(int round, Rng& rng) override;
  void on_feedback(int round, const RoundFeedback& feedback, Rng& rng) override;
  bool has_message() const override { return in_b_; }
  double transmit_probability(int round) const override;

  // Resolved schedule facts (for tests and stage-separated bench reporting).
  int phases() const { return phases_; }
  int phase_length() const { return 1 + phase_rounds_; }
  int init_length() const;
  int iterations() const { return iterations_; }
  int iteration_length() const { return config_.gamma * ladder_; }
  int total_length() const;

  /// True once the node has committed to a seed.
  bool committed() const { return seed_ != nullptr; }
  /// Whether this node elected itself leader in some phase.
  bool was_leader() const { return was_leader_; }
  /// The committed seed's originating leader id (diagnostics; own id if
  /// self-committed). -1 before commitment.
  int seed_origin() const { return seed_origin_; }

 private:
  struct RoundPosition {
    enum class Stage { init_election, init_dissemination, broadcast, done };
    Stage stage = Stage::done;
    int phase = 0;      // init stages
    int iteration = 0;  // broadcast stage
    int offset = 0;     // round within iteration
  };
  RoundPosition locate(int round) const;
  bool participates(int iteration) const;
  int broadcast_index(int iteration, int offset) const;
  void commit(std::shared_ptr<const BitString> seed, int origin);
  BitString fresh_seed(Rng& rng) const;

  GeoLocalConfig config_;
  int ladder_ = 0;      // broadcast-stage probability ladder (covers Δ)
  int logn_ = 0;        // L = clog2(n)
  int phases_ = 0;      // log Δ
  int phase_rounds_ = 0;
  int iterations_ = 0;
  int seed_bits_ = 0;
  int participation_width_ = 16;  // bits per participation decision

  bool in_b_ = false;
  Message message_;

  bool active_ = true;        // init stage: still seeking a seed
  bool leader_now_ = false;   // leader in the current phase
  bool was_leader_ = false;
  std::shared_ptr<const BitString> own_seed_;      // drawn when elected
  std::shared_ptr<const BitString> pending_seed_;  // first seed heard
  int pending_origin_ = -1;
  std::shared_ptr<const BitString> seed_;          // committed seed
  int seed_origin_ = -1;
};

}  // namespace dualcast
