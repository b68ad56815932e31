#pragma once

// The scalar Process form of [8] Decay local broadcast: the differential
// reference the library's batch kernel (decay_local_kernel_factory,
// src/core/kernels.cpp) is held to, draw for draw. The protocol is documented
// with its config in core/local_decay.hpp.

#include "core/local_decay.hpp"
#include "sim/process.hpp"

namespace dualcast {

class DecayLocalBroadcast final : public InspectableProcess {
 public:
  explicit DecayLocalBroadcast(DecayLocalConfig config);

  void init(const ProcessEnv& env, Rng& rng) override;
  Action on_round(int round, Rng& rng) override;
  bool has_message() const override { return in_b_; }
  double transmit_probability(int round) const override;

  int ladder() const { return ladder_; }

 private:
  int schedule_index(int round) const;

  DecayLocalConfig config_;
  int ladder_ = 0;
  bool in_b_ = false;
  Message message_;
  BitString private_bits_;
};

}  // namespace dualcast
