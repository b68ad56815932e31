#include "core/gossip.hpp"

#include <algorithm>
#include <memory>

#include "util/assert.hpp"
#include "util/mathutil.hpp"
#include "util/strfmt.hpp"

namespace dualcast {

// ---------------------------------------------------------------------------
// GossipProblem.
// ---------------------------------------------------------------------------

GossipProblem::GossipProblem(const DualGraph& net, std::vector<int> sources)
    : sources_(std::move(sources)), n_(net.n()) {
  DC_EXPECTS_MSG(!sources_.empty(), "gossip needs at least one token");
  DC_EXPECTS_MSG(net.g_connected(), "gossip requires a connected G");
  for (const int v : sources_) DC_EXPECTS(v >= 0 && v < n_);
  roles_ = sources_;
  std::sort(roles_.begin(), roles_.end());
  roles_.erase(std::unique(roles_.begin(), roles_.end()), roles_.end());
  known_.assign(static_cast<std::size_t>(n_) * sources_.size(), 0);
  missing_ = static_cast<std::int64_t>(n_) * static_cast<std::int64_t>(
                                                 sources_.size());
  for (int t = 0; t < tokens(); ++t) {
    const std::size_t idx =
        static_cast<std::size_t>(sources_[static_cast<std::size_t>(t)]) *
            sources_.size() +
        static_cast<std::size_t>(t);
    if (!known_[idx]) {
      known_[idx] = 1;
      --missing_;
    }
  }
}

std::string GossipProblem::name() const {
  return str("gossip(k=", tokens(), ")");
}

bool GossipProblem::in_broadcast_set(int v) const {
  return std::find(sources_.begin(), sources_.end(), v) != sources_.end();
}

Message GossipProblem::initial_message(int v) const {
  // A node sourcing several tokens starts with the first; GossipBroadcast
  // collects the rest from env-independent state below. To keep the model
  // simple we require callers wanting multi-token sources to use distinct
  // source nodes per token; initial_message carries the *first* token
  // sourced at v.
  for (int t = 0; t < tokens(); ++t) {
    if (sources_[static_cast<std::size_t>(t)] == v) {
      Message m;
      m.kind = MessageKind::data;
      m.source = v;
      m.payload = static_cast<std::uint64_t>(t);
      return m;
    }
  }
  return {};
}

void GossipProblem::observe_round(
    const RoundRecord& record,
    const std::vector<std::unique_ptr<Process>>& /*procs*/) {
  for_each_delivery(record, [&](const Delivery& d) {
    const Message& m = record.sent[static_cast<std::size_t>(d.transmitter_index)];
    if (m.kind != MessageKind::data) return;
    if (m.payload >= static_cast<std::uint64_t>(tokens())) return;
    const std::size_t idx =
        static_cast<std::size_t>(d.receiver) * sources_.size() +
        static_cast<std::size_t>(m.payload);
    if (!known_[idx]) {
      known_[idx] = 1;
      --missing_;
    }
  });
}

bool GossipProblem::solved(
    const std::vector<std::unique_ptr<Process>>& /*procs*/) const {
  return missing_ == 0;
}

bool GossipProblem::knows(int v, int token) const {
  DC_EXPECTS(v >= 0 && v < n_);
  DC_EXPECTS(token >= 0 && token < tokens());
  return known_[static_cast<std::size_t>(v) * sources_.size() +
                static_cast<std::size_t>(token)] != 0;
}

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

ProcessFactory gossip_factory(GossipConfig config) {
  return [config](const ProcessEnv&) {
    return std::make_unique<GossipBroadcast>(config);
  };
}

}  // namespace dualcast
