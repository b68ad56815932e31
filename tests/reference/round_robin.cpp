#include "reference/round_robin.hpp"

namespace dualcast {

RoundRobinBroadcast::RoundRobinBroadcast(RoundRobinConfig config)
    : config_(config) {}

void RoundRobinBroadcast::init(const ProcessEnv& env, Rng& rng) {
  Process::init(env, rng);
  has_ = env.is_global_source || env.in_broadcast_set;
  may_transmit_ = has_;
  message_ = env.initial_message;
}

Action RoundRobinBroadcast::on_round(int round, Rng& /*rng*/) {
  if (may_transmit_ && my_slot(round)) return Action::send(message_);
  return Action::listen();
}

void RoundRobinBroadcast::on_feedback(int /*round*/,
                                      const RoundFeedback& feedback,
                                      Rng& /*rng*/) {
  if (has_ || !feedback.received.has_value()) return;
  if (feedback.received->kind != MessageKind::data) return;
  has_ = true;
  if (config_.relay) {
    message_ = *feedback.received;
    may_transmit_ = true;
  }
}

double RoundRobinBroadcast::transmit_probability(int round) const {
  return (may_transmit_ && my_slot(round)) ? 1.0 : 0.0;
}

}  // namespace dualcast
