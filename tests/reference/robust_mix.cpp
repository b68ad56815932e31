#include "reference/robust_mix.hpp"

#include "util/mathutil.hpp"

namespace dualcast {

RobustMixBroadcast::RobustMixBroadcast(RobustMixConfig config)
    : config_(config),
      robin_(RoundRobinConfig{/*relay=*/true}),
      decay_(config.decay) {}

void RobustMixBroadcast::init(const ProcessEnv& env, Rng& rng) {
  Process::init(env, rng);
  // The two halves relay the *same* message object, so the source must
  // attach the permutation bits before either half first transmits —
  // otherwise a copy relayed by the robin half would strand receivers'
  // decay halves without the shared schedule.
  ProcessEnv shared_env = env;
  if (env.is_global_source &&
      config_.decay.schedule == ScheduleKind::permuted &&
      shared_env.initial_message.shared_bits == nullptr) {
    const int ladder = clog2(static_cast<std::uint64_t>(env.n > 1 ? env.n : 2));
    const int width = schedule_chunk_width(ladder);
    const int nbits = config_.decay.seed_bits > 0
                          ? config_.decay.seed_bits
                          : 2 * config_.decay.gamma * ladder * ladder * width;
    shared_env.initial_message.shared_bits =
        std::make_shared<const BitString>(
            BitString::random(rng, static_cast<std::size_t>(nbits)));
  }
  // Each half gets its own derived stream so the interleaving cannot skew
  // either half's randomness.
  Rng robin_rng = rng.fork("robust-mix-robin");
  Rng decay_rng = rng.fork("robust-mix-decay");
  robin_.init(shared_env, robin_rng);
  decay_.init(shared_env, decay_rng);
}

Action RobustMixBroadcast::on_round(int round, Rng& rng) {
  // Each half sees a *contiguous* private round clock (round / 2), so its
  // internal schedule (slots, decay windows) is preserved under interleaving.
  if (robin_round(round)) return robin_.on_round(round / 2, rng);
  return decay_.on_round(round / 2, rng);
}

void RobustMixBroadcast::on_feedback(int round, const RoundFeedback& feedback,
                                     Rng& rng) {
  // Both halves learn from every reception: a message obtained in a robin
  // round seeds the decay half and vice versa. Transmission flags are only
  // meaningful for the half that acted.
  RoundFeedback half = feedback;
  if (robin_round(round)) {
    robin_.on_feedback(round / 2, half, rng);
    half.transmitted = false;
    decay_.on_feedback(round / 2, half, rng);
  } else {
    decay_.on_feedback(round / 2, half, rng);
    half.transmitted = false;
    robin_.on_feedback(round / 2, half, rng);
  }
}

bool RobustMixBroadcast::has_message() const {
  return robin_.has_message() || decay_.has_message();
}

double RobustMixBroadcast::transmit_probability(int round) const {
  if (robin_round(round)) return robin_.transmit_probability(round / 2);
  return decay_.transmit_probability(round / 2);
}

}  // namespace dualcast
