#include "reference/global_decay.hpp"

#include <limits>

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {

DecayGlobalBroadcast::DecayGlobalBroadcast(DecayGlobalConfig config)
    : config_(config) {
  DC_EXPECTS(config.gamma >= 1);
  DC_EXPECTS(config.calls >= DecayGlobalConfig::kUnbounded);
  DC_EXPECTS(config.seed_bits >= 0);
}

void DecayGlobalBroadcast::init(const ProcessEnv& env, Rng& rng) {
  Process::init(env, rng);
  ladder_ = clog2(static_cast<std::uint64_t>(env.n > 1 ? env.n : 2));
  calls_ = config_.calls == 0 ? 2 * ladder_ : config_.calls;
  is_source_ = env.is_global_source;
  if (is_source_) {
    has_ = true;
    message_ = env.initial_message;
    if (config_.schedule == ScheduleKind::permuted &&
        message_.shared_bits == nullptr) {
      // S is generated from the source's private stream after the execution
      // begins — an oblivious adversary's schedule is already committed and
      // cannot depend on it. (If the environment already supplied bits —
      // e.g. a composite algorithm like RobustMix sharing one string across
      // sub-protocols — those are used instead.)
      const int width = schedule_chunk_width(ladder_);
      const int default_bits = 2 * config_.gamma * ladder_ * ladder_ * width;
      const int nbits =
          config_.seed_bits > 0 ? config_.seed_bits : default_bits;
      message_.shared_bits =
          std::make_shared<const BitString>(BitString::random(
              rng, static_cast<std::size_t>(nbits)));
    }
  }
}

bool DecayGlobalBroadcast::active_in(int round) const {
  return has_ && !is_source_ && window_start_ >= 0 && round >= window_start_ &&
         round < window_end_;
}

int DecayGlobalBroadcast::schedule_index(int round) const {
  if (config_.schedule == ScheduleKind::fixed) {
    return fixed_decay_index(round, ladder_);
  }
  DC_ASSERT_MSG(message_.shared_bits != nullptr,
                "permuted decay holder without shared bits");
  return permuted_decay_index(*message_.shared_bits, round, ladder_);
}

Action DecayGlobalBroadcast::on_round(int round, Rng& rng) {
  if (is_source_) {
    // §4.1: the source broadcasts m in the first round; then it is done.
    return round == 0 ? Action::send(message_) : Action::listen();
  }
  if (!active_in(round)) return Action::listen();
  const int i = schedule_index(round);
  if (rng.coin_pow2(i)) return Action::send(message_);
  return Action::listen();
}

void DecayGlobalBroadcast::on_feedback(int round, const RoundFeedback& feedback,
                                       Rng& /*rng*/) {
  if (has_ || !feedback.received.has_value()) return;
  if (feedback.received->kind != MessageKind::data) return;
  has_ = true;
  message_ = *feedback.received;
  const int period = config_.gamma * ladder_;
  window_start_ = static_cast<int>(
      round_up(static_cast<std::int64_t>(round) + 1, period));
  window_end_ = calls_ == DecayGlobalConfig::kUnbounded
                    ? std::numeric_limits<int>::max()
                    : window_start_ + calls_ * period;
}

double DecayGlobalBroadcast::transmit_probability(int round) const {
  if (is_source_) return round == 0 ? 1.0 : 0.0;
  if (!active_in(round)) return 0.0;
  return pow2_neg(schedule_index(round));
}

}  // namespace dualcast
