#pragma once

// The scalar Process form of §4.1 (permuted) Decay global broadcast: the
// differential reference the library's batch kernel
// (decay_global_kernel_factory, src/core/kernels.cpp) is held to, draw for
// draw. The protocol is documented with its config in core/global_decay.hpp.

#include "core/global_decay.hpp"
#include "sim/process.hpp"

namespace dualcast {

class DecayGlobalBroadcast final : public InspectableProcess {
 public:
  explicit DecayGlobalBroadcast(DecayGlobalConfig config);

  void init(const ProcessEnv& env, Rng& rng) override;
  Action on_round(int round, Rng& rng) override;
  void on_feedback(int round, const RoundFeedback& feedback, Rng& rng) override;
  bool has_message() const override { return has_; }
  double transmit_probability(int round) const override;

  /// Resolved parameters (after init), for tests.
  int ladder() const { return ladder_; }
  int calls() const { return calls_; }
  int call_length() const { return config_.gamma * ladder_; }
  /// Round the node's active window starts (-1 before it is scheduled).
  int window_start() const { return window_start_; }

 private:
  bool active_in(int round) const;
  int schedule_index(int round) const;

  DecayGlobalConfig config_;
  int ladder_ = 0;       // L = clog2(n)
  int calls_ = 0;        // resolved call count
  bool has_ = false;     // holds the message
  Message message_;
  int window_start_ = -1;  // aligned start of the active window
  int window_end_ = -1;    // exclusive
  bool is_source_ = false;
};

}  // namespace dualcast
