#pragma once

// The scalar Process form of §4.3 geographic local broadcast: the differential
// reference the library's batch kernel (geo_local_kernel_factory,
// src/core/kernels.cpp) is held to, draw for draw. The protocol is documented
// with its config in core/geo_local.hpp.

#include "core/geo_local.hpp"
#include "sim/process.hpp"

namespace dualcast {

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
