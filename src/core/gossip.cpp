#include "core/gossip.hpp"

#include <algorithm>

#include "util/assert.hpp"
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
  // A node sourcing several tokens starts with the first; the algorithm
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

}  // namespace dualcast
