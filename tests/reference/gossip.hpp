#pragma once

// The scalar Process form of decay-style k-gossip: the differential reference
// the library's batch kernel (gossip_kernel_factory, src/core/kernels.cpp) is
// held to, draw for draw. The protocol is documented with its config in
// core/gossip.hpp.

#include "core/gossip.hpp"
#include "sim/process.hpp"

namespace dualcast {

class GossipBroadcast final : public InspectableProcess {
 public:
  explicit GossipBroadcast(GossipConfig config);

  void init(const ProcessEnv& env, Rng& rng) override;
  Action on_round(int round, Rng& rng) override;
  void on_feedback(int round, const RoundFeedback& feedback, Rng& rng) override;
  bool has_message() const override { return !held_.empty(); }
  double transmit_probability(int round) const override;

  /// Tokens currently held (sorted by acquisition order).
  const std::vector<Message>& held() const { return held_; }

 private:
  int schedule_index(int round) const;
  void acquire(const Message& message);
  /// Live = still offered: unlimited budget, or offers remaining.
  bool token_active(std::size_t i) const {
    return offers_left_[i] != 0;  // -1 (no quiescing) stays active forever
  }
  /// Indices into held_ of the tokens still offered (all of them unless
  /// quiescing).
  void active_tokens(std::vector<std::size_t>& out) const;

  GossipConfig config_;
  int ladder_ = 0;
  int offer_budget_ = -1;  ///< per-token offer budget; -1 = unbounded
  std::vector<Message> held_;
  std::vector<int> offers_left_;  ///< per held token; -1 = unbounded
  std::vector<std::uint64_t> seen_tokens_;
  std::size_t next_offer_ = 0;
  BitString private_bits_;
  std::vector<std::size_t> active_scratch_;
};

}  // namespace dualcast
