#pragma once

// RobustMixBroadcast: a practical hedge for the adaptive-adversary regime.
//
// Figure 1's first row says adaptive adversaries force Θ(n)-ish broadcast,
// and the matching upper bounds are contention-free schedules (round robin,
// footnote 4) or heavyweight robust algorithms [12, 13]. A deployment that
// does not know which adversary it faces wants both ends of the trade-off at
// once. RobustMix interleaves two strategies in alternating rounds:
//
//   even rounds — contention-free round robin on node ids (guaranteed
//                 progress against *any* adversary class: a lone transmitter
//                 cannot be silenced, so global broadcast completes within
//                 2·n·D rounds deterministically);
//   odd rounds  — permuted Decay (opportunistic polylog completion whenever
//                 the adversary is oblivious or benign).
//
// The result is min(2·decay-time, 2·robin-time) up to a round of slack:
// polylog against the oblivious suite, ≤ 2x the deterministic bound against
// adaptive attacks. This is this library's stand-in for the O(n log² n)
// offline-adaptive upper bound of [12, 13] (see DESIGN.md substitutions):
// on the constant-diameter lower-bound networks its worst case is O(n),
// within the regime the paper's first row describes.

#include "core/global_decay.hpp"
#include "core/round_robin.hpp"
#include "sim/process.hpp"

namespace dualcast {

struct RobustMixConfig {
  /// Configuration of the Decay half (its round clock advances only on odd
  /// engine rounds). The window default is unbounded: the mix is meant to
  /// keep trying until the deterministic half finishes.
  DecayGlobalConfig decay = [] {
    DecayGlobalConfig cfg = DecayGlobalConfig::fast(ScheduleKind::permuted);
    cfg.calls = DecayGlobalConfig::kUnbounded;
    return cfg;
  }();
};

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

/// Factory for plugging RobustMix into a KernelExecution.
ProcessFactory robust_mix_factory(RobustMixConfig config = {});

}  // namespace dualcast
