#pragma once

// The scalar Process form of the RobustMix hedge: the differential reference
// the library's batch kernel (robust_mix_kernel_factory, src/core/kernels.cpp)
// is held to, draw for draw. The protocol is documented with its config in
// core/robust_mix.hpp.

#include "core/robust_mix.hpp"
#include "reference/global_decay.hpp"
#include "reference/round_robin.hpp"
#include "sim/process.hpp"

namespace dualcast {

class RobustMixBroadcast final : public InspectableProcess {
 public:
  explicit RobustMixBroadcast(RobustMixConfig config);

  void init(const ProcessEnv& env, Rng& rng) override;
  Action on_round(int round, Rng& rng) override;
  void on_feedback(int round, const RoundFeedback& feedback, Rng& rng) override;
  bool has_message() const override;
  double transmit_probability(int round) const override;

 private:
  static bool robin_round(int round) { return round % 2 == 0; }

  RobustMixConfig config_;
  RoundRobinBroadcast robin_;
  DecayGlobalBroadcast decay_;
};

}  // namespace dualcast
