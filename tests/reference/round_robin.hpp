#pragma once

// The scalar Process form of round-robin broadcast: the differential reference
// the library's batch kernel (round_robin_kernel_factory, src/core/kernels.cpp)
// is held to, draw for draw. The protocol is documented with its config in
// core/round_robin.hpp.

#include "core/round_robin.hpp"
#include "sim/process.hpp"

namespace dualcast {

class RoundRobinBroadcast final : public InspectableProcess {
 public:
  explicit RoundRobinBroadcast(RoundRobinConfig config);

  void init(const ProcessEnv& env, Rng& rng) override;
  Action on_round(int round, Rng& rng) override;
  void on_feedback(int round, const RoundFeedback& feedback, Rng& rng) override;
  bool has_message() const override { return has_; }
  double transmit_probability(int round) const override;

 private:
  bool my_slot(int round) const { return round % env_.n == env_.id; }

  RoundRobinConfig config_;
  bool has_ = false;
  bool may_transmit_ = false;
  Message message_;
};

}  // namespace dualcast
