#include "reference/gossip.hpp"

#include <algorithm>

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {

// ---------------------------------------------------------------------------
// GossipBroadcast.
// ---------------------------------------------------------------------------

GossipBroadcast::GossipBroadcast(GossipConfig config) : config_(config) {
  DC_EXPECTS(config.ladder >= 0);
  DC_EXPECTS(config.seed_bits >= 0);
}

void GossipBroadcast::init(const ProcessEnv& env, Rng& rng) {
  Process::init(env, rng);
  ladder_ = config_.ladder > 0
                ? config_.ladder
                : clog2(static_cast<std::uint64_t>(env.n > 1 ? env.n : 2));
  offer_budget_ =
      config_.quiesce
          ? (config_.quiesce_calls > 0 ? config_.quiesce_calls : 4 * ladder_)
          : -1;
  if (env.initial_message.kind == MessageKind::data &&
      env.initial_message.source == env.id) {
    acquire(env.initial_message);
  }
  if (config_.schedule == ScheduleKind::permuted) {
    const int width = schedule_chunk_width(ladder_);
    const int nbits = config_.seed_bits > 0 ? config_.seed_bits
                                            : 64 * ladder_ * width;
    private_bits_ = BitString::random(rng, static_cast<std::size_t>(nbits));
  }
}

void GossipBroadcast::acquire(const Message& message) {
  if (std::find(seen_tokens_.begin(), seen_tokens_.end(), message.payload) !=
      seen_tokens_.end()) {
    return;
  }
  seen_tokens_.push_back(message.payload);
  held_.push_back(message);
  offers_left_.push_back(offer_budget_);
}

void GossipBroadcast::active_tokens(std::vector<std::size_t>& out) const {
  out.clear();
  for (std::size_t i = 0; i < held_.size(); ++i) {
    if (token_active(i)) out.push_back(i);
  }
}

int GossipBroadcast::schedule_index(int round) const {
  if (config_.schedule == ScheduleKind::fixed) {
    return fixed_decay_index(round, ladder_);
  }
  return permuted_decay_index(private_bits_, round, ladder_);
}

Action GossipBroadcast::on_round(int round, Rng& rng) {
  if (held_.empty()) return Action::listen();
  // Quiescing holders with no live token listen without spending a coin
  // (their transmit probability is 0, and the kernel port mirrors the draw
  // discipline exactly).
  const bool quiescing = offer_budget_ >= 0;
  if (quiescing) {
    active_tokens(active_scratch_);
    if (active_scratch_.empty()) return Action::listen();
  }
  if (!rng.coin_pow2(schedule_index(round))) return Action::listen();
  // Fair token scheduler: cycle the offered set in acquisition order, so
  // every live token a node carries keeps circulating no matter how many it
  // collects.
  const std::size_t slot =
      quiescing ? active_scratch_[next_offer_ % active_scratch_.size()]
                : next_offer_ % held_.size();
  ++next_offer_;
  if (quiescing) --offers_left_[slot];
  Message m = held_[slot];
  m.source = env_.id;  // gossip relays re-originate (receiver credits token)
  return Action::send(m);
}

void GossipBroadcast::on_feedback(int /*round*/, const RoundFeedback& feedback,
                                  Rng& /*rng*/) {
  if (feedback.received.has_value() &&
      feedback.received->kind == MessageKind::data) {
    acquire(*feedback.received);
  }
}

double GossipBroadcast::transmit_probability(int round) const {
  if (held_.empty()) return 0.0;
  if (offer_budget_ >= 0) {
    bool any_active = false;
    for (std::size_t i = 0; i < held_.size(); ++i) {
      if (token_active(i)) {
        any_active = true;
        break;
      }
    }
    if (!any_active) return 0.0;
  }
  return pow2_neg(schedule_index(round));
}

}  // namespace dualcast
