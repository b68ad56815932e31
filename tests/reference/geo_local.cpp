#include "reference/geo_local.hpp"

#include "util/assert.hpp"
#include "util/mathutil.hpp"

namespace dualcast {

GeoLocalBroadcast::GeoLocalBroadcast(GeoLocalConfig config) : config_(config) {
  DC_EXPECTS(config.phase_rounds >= 0);
  DC_EXPECTS(config.c_init > 0.0);
  DC_EXPECTS(config.iterations >= 0);
  DC_EXPECTS(config.c_iter > 0.0);
  DC_EXPECTS(config.gamma >= 1);
  DC_EXPECTS(config.ladder >= 0);
  DC_EXPECTS(config.seed_bits >= 0);
}

int GeoLocalBroadcast::init_length() const {
  return config_.shared_seeds ? phases_ * phase_length() : 0;
}

int GeoLocalBroadcast::total_length() const {
  return init_length() + iterations_ * iteration_length();
}

void GeoLocalBroadcast::init(const ProcessEnv& env, Rng& rng) {
  Process::init(env, rng);
  logn_ = clog2(static_cast<std::uint64_t>(env.n > 1 ? env.n : 2));
  ladder_ =
      config_.ladder > 0
          ? config_.ladder
          : clog2(2 * static_cast<std::uint64_t>(
                          env.max_degree > 0 ? env.max_degree : 1));
  phases_ = clog2(static_cast<std::uint64_t>(
      env.max_degree > 1 ? env.max_degree : 2));
  phase_rounds_ =
      config_.phase_rounds > 0
          ? config_.phase_rounds
          : std::max(1, static_cast<int>(config_.c_init * logn_ * logn_));
  iterations_ =
      config_.iterations > 0
          ? config_.iterations
          : std::max(1, static_cast<int>(config_.c_iter * logn_ * logn_));
  const int width = schedule_chunk_width(ladder_);
  const int stride = participation_width_ + iteration_length() * width;
  seed_bits_ = config_.seed_bits > 0 ? config_.seed_bits
                                     : std::max(64, iterations_ * stride);

  in_b_ = env.in_broadcast_set;
  message_ = env.initial_message;

  if (!config_.shared_seeds) {
    // Ablation: private, uncoordinated seeds; no initialization stage.
    commit(std::make_shared<const BitString>(fresh_seed(rng)), env.id);
    active_ = false;
  }
}

BitString GeoLocalBroadcast::fresh_seed(Rng& rng) const {
  return BitString::random(rng, static_cast<std::size_t>(seed_bits_));
}

void GeoLocalBroadcast::commit(std::shared_ptr<const BitString> seed,
                               int origin) {
  DC_ASSERT(seed != nullptr);
  seed_ = std::move(seed);
  seed_origin_ = origin;
}

GeoLocalBroadcast::RoundPosition GeoLocalBroadcast::locate(int round) const {
  RoundPosition pos;
  const int init_len = init_length();
  if (round < init_len) {
    pos.phase = round / phase_length();
    pos.offset = round % phase_length();
    pos.stage = pos.offset == 0 ? RoundPosition::Stage::init_election
                                : RoundPosition::Stage::init_dissemination;
    return pos;
  }
  const int r = round - init_len;
  const int iter = r / iteration_length();
  if (iter >= iterations_) return pos;  // done
  pos.stage = RoundPosition::Stage::broadcast;
  pos.iteration = iter;
  pos.offset = r % iteration_length();
  return pos;
}

bool GeoLocalBroadcast::participates(int iteration) const {
  DC_ASSERT(seed_ != nullptr);
  const int width = schedule_chunk_width(ladder_);
  const std::size_t stride = static_cast<std::size_t>(
      participation_width_ + iteration_length() * width);
  const std::uint64_t chunk = seed_->chunk_cyclic(
      static_cast<std::size_t>(iteration) * stride, participation_width_);
  // Compare a 16-bit uniform value against floor(2^16 / log n): probability
  // 1/log n, derived deterministically from the seed so same-seed nodes make
  // identical participation decisions.
  const std::uint64_t threshold =
      (std::uint64_t{1} << participation_width_) /
      static_cast<std::uint64_t>(logn_);
  return chunk < threshold;
}

int GeoLocalBroadcast::broadcast_index(int iteration, int offset) const {
  DC_ASSERT(seed_ != nullptr);
  const int width = schedule_chunk_width(ladder_);
  const std::size_t stride = static_cast<std::size_t>(
      participation_width_ + iteration_length() * width);
  const std::size_t pos = static_cast<std::size_t>(iteration) * stride +
                          static_cast<std::size_t>(participation_width_) +
                          static_cast<std::size_t>(offset) *
                              static_cast<std::size_t>(width);
  const std::uint64_t chunk = seed_->chunk_cyclic(pos, width);
  return 1 + static_cast<int>(chunk % static_cast<std::uint64_t>(ladder_));
}

Action GeoLocalBroadcast::on_round(int round, Rng& rng) {
  const RoundPosition pos = locate(round);
  switch (pos.stage) {
    case RoundPosition::Stage::init_election: {
      if (active_ && !seed_) {
        // Election probability for phase p (0-based): 2^-(phases - p),
        // i.e. 1/Δ in the first phase doubling to 1/2 in the last.
        if (rng.bernoulli(pow2_neg(phases_ - pos.phase))) {
          leader_now_ = true;
          was_leader_ = true;
          // A new leader draws its seed from its private stream (after
          // execution start — invisible to oblivious adversaries) and
          // commits to it immediately (§4.3).
          own_seed_ = std::make_shared<const BitString>(fresh_seed(rng));
          commit(own_seed_, env_.id);
        }
      }
      return Action::listen();
    }
    case RoundPosition::Stage::init_dissemination: {
      if (leader_now_ && rng.bernoulli(1.0 / static_cast<double>(logn_))) {
        Message m;
        m.kind = MessageKind::seed;
        m.source = env_.id;
        m.payload = static_cast<std::uint64_t>(pos.phase);
        m.shared_bits = own_seed_;
        return Action::send(m);
      }
      return Action::listen();
    }
    case RoundPosition::Stage::broadcast: {
      if (!in_b_ || !seed_) return Action::listen();
      if (!participates(pos.iteration)) return Action::listen();
      const int i = broadcast_index(pos.iteration, pos.offset);
      if (rng.coin_pow2(i)) return Action::send(message_);
      return Action::listen();
    }
    case RoundPosition::Stage::done:
      return Action::listen();
  }
  return Action::listen();
}

void GeoLocalBroadcast::on_feedback(int round, const RoundFeedback& feedback,
                                    Rng& rng) {
  // Capture the first seed heard while active and not a leader.
  if (active_ && !leader_now_ && !pending_seed_ &&
      feedback.received.has_value() &&
      feedback.received->kind == MessageKind::seed &&
      feedback.received->shared_bits != nullptr) {
    pending_seed_ = feedback.received->shared_bits;
    pending_origin_ = feedback.received->source;
  }

  const RoundPosition pos = locate(round);
  const bool end_of_phase =
      pos.stage == RoundPosition::Stage::init_dissemination &&
      pos.offset == phase_length() - 1;
  if (end_of_phase) {
    if (leader_now_) {
      // Leaders finish their phase and become inactive (seed already
      // committed at election).
      leader_now_ = false;
      active_ = false;
    } else if (active_ && pending_seed_) {
      commit(pending_seed_, pending_origin_);
      active_ = false;
    }
    // Stage end: anyone still uncommitted self-commits (§4.3: "if a node
    // ends the initialization stage still active, it generates its own seed
    // and commits to it").
    if (round == init_length() - 1 && active_) {
      if (!seed_) commit(std::make_shared<const BitString>(fresh_seed(rng)),
                         env_.id);
      active_ = false;
    }
  }
}

double GeoLocalBroadcast::transmit_probability(int round) const {
  const RoundPosition pos = locate(round);
  switch (pos.stage) {
    case RoundPosition::Stage::init_election:
      return 0.0;
    case RoundPosition::Stage::init_dissemination:
      return leader_now_ ? 1.0 / static_cast<double>(logn_) : 0.0;
    case RoundPosition::Stage::broadcast: {
      if (!in_b_ || !seed_) return 0.0;
      if (!participates(pos.iteration)) return 0.0;
      return pow2_neg(broadcast_index(pos.iteration, pos.offset));
    }
    case RoundPosition::Stage::done:
      return 0.0;
  }
  return 0.0;
}

}  // namespace dualcast
