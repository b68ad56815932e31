#pragma once

// The oblivious anti-schedule attacker.
//
// §4.1 motivates permuted decay by observing that classic Decay "can be
// attacked by an oblivious adversary because the fixed schedule of broadcast
// probabilities allows it to calculate in advance the expected broadcast
// behavior, and choose dynamic link behavior accordingly". This class is
// that attack: it is constructed with a *prediction function* round ->
// expected number of transmitters (derivable offline from the algorithm
// description, e.g. holders × the fixed Decay probability for the round) and
// mirrors the dense/sparse rule — all unreliable edges on when the
// prediction exceeds a Θ(log n) threshold, none otherwise.
//
// Against classic Decay the prediction is exact and the attack forces
// Ω(n / log n) rounds on the dual clique; against permuted decay the
// prediction is uncorrelated with the (secret, post-commitment) permutation
// bits and the attack collapses. That contrast is the paper's core design
// point, reproduced by `dualcast_bench ablation/permutation`.

#include <functional>

#include "sim/link_process.hpp"

namespace dualcast {

struct ScheduleAttackConfig {
  /// Predicted E[#transmitters] for each round, computed offline from the
  /// algorithm description. Must be non-null.
  std::function<double(int round)> predicted_transmitters;
  /// Dense iff prediction > threshold_factor * log2(n).
  double threshold_factor = 1.0;
};

class ScheduleAttackOblivious final : public LinkProcess {
 public:
  explicit ScheduleAttackOblivious(ScheduleAttackConfig config);

  AdversaryClass adversary_class() const override {
    return AdversaryClass::oblivious;
  }
  void on_execution_start(const ExecutionSetup& setup, Rng& rng) override;
  void choose_oblivious(int round, Rng& rng, EdgeSet& out) override;

  double threshold() const { return threshold_; }

 private:
  ScheduleAttackConfig config_;
  double threshold_ = 0.0;
};

}  // namespace dualcast
