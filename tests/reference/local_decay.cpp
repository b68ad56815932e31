#include "reference/local_decay.hpp"

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {

DecayLocalBroadcast::DecayLocalBroadcast(DecayLocalConfig config)
    : config_(config) {
  DC_EXPECTS(config.ladder >= 0);
  DC_EXPECTS(config.seed_bits >= 0);
}

void DecayLocalBroadcast::init(const ProcessEnv& env, Rng& rng) {
  Process::init(env, rng);
  ladder_ =
      config_.ladder > 0
          ? config_.ladder
          : clog2(2 * static_cast<std::uint64_t>(
                          env.max_degree > 0 ? env.max_degree : 1));
  in_b_ = env.in_broadcast_set;
  message_ = env.initial_message;
  if (in_b_ && config_.schedule == ScheduleKind::permuted) {
    const int width = schedule_chunk_width(ladder_);
    const int default_bits = 64 * ladder_ * width;
    const int nbits = config_.seed_bits > 0 ? config_.seed_bits : default_bits;
    private_bits_ = BitString::random(rng, static_cast<std::size_t>(nbits));
  }
}

int DecayLocalBroadcast::schedule_index(int round) const {
  if (config_.schedule == ScheduleKind::fixed) {
    return fixed_decay_index(round, ladder_);
  }
  return permuted_decay_index(private_bits_, round, ladder_);
}

Action DecayLocalBroadcast::on_round(int round, Rng& rng) {
  if (!in_b_) return Action::listen();
  if (rng.coin_pow2(schedule_index(round))) return Action::send(message_);
  return Action::listen();
}

double DecayLocalBroadcast::transmit_probability(int round) const {
  if (!in_b_) return 0.0;
  return pow2_neg(schedule_index(round));
}

}  // namespace dualcast
