#include "sim/problem.hpp"

#include <algorithm>

#include "sim/process.hpp"
#include "util/assert.hpp"
#include "util/strfmt.hpp"

namespace dualcast {

int NodeStateView::message_holders() const {
  int holders = 0;
  for (int v = 0; v < n(); ++v) holders += has_message(v) ? 1 : 0;
  return holders;
}

Message Problem::initial_message(int /*v*/) const { return {}; }

std::vector<int> Problem::role_nodes(int n) const {
  std::vector<int> out;
  for (int v = 0; v < n; ++v) {
    if (is_source(v) || in_broadcast_set(v) ||
        !(initial_message(v) == Message{})) {
      out.push_back(v);
    }
  }
  return out;
}

void Problem::observe_round(
    const RoundRecord& /*record*/,
    const std::vector<std::unique_ptr<Process>>& /*procs*/) {}

bool Problem::solved_batch(const NodeStateView& /*nodes*/) const {
  DC_ASSERT_MSG(false,
                "solved_batch called on a problem without batch support; "
                "declare batch_compatible() and override solved_batch");
  return false;
}

// ---------------------------------------------------------------------------
// Global broadcast.
// ---------------------------------------------------------------------------

GlobalBroadcastProblem::GlobalBroadcastProblem(const DualGraph& net, int source)
    : source_(source) {
  DC_EXPECTS(source >= 0 && source < net.n());
  DC_EXPECTS_MSG(net.g_connected(),
                 "global broadcast requires a connected G");
}

std::string GlobalBroadcastProblem::name() const {
  return str("global-broadcast(source=", source_, ")");
}

Message GlobalBroadcastProblem::initial_message(int v) const {
  if (v != source_) return {};
  Message m;
  m.kind = MessageKind::data;
  m.source = source_;
  m.payload = 0xB40ADCA57ull;  // arbitrary tag: "broadcast"
  return m;
}

bool GlobalBroadcastProblem::solved(
    const std::vector<std::unique_ptr<Process>>& procs) const {
  return std::all_of(procs.begin(), procs.end(),
                     [](const auto& p) { return p->has_message(); });
}

bool GlobalBroadcastProblem::solved_batch(const NodeStateView& nodes) const {
  return nodes.message_holders() == nodes.n();
}

// ---------------------------------------------------------------------------
// Assignment-only problem.
// ---------------------------------------------------------------------------

AssignmentProblem::AssignmentProblem(int n, int source,
                                     std::vector<int> broadcast_set)
    : source_(source) {
  DC_EXPECTS(n >= 1);
  DC_EXPECTS(source >= -1 && source < n);
  in_b_.assign(static_cast<std::size_t>(n), 0);
  for (const int v : broadcast_set) {
    DC_EXPECTS(v >= 0 && v < n);
    in_b_[static_cast<std::size_t>(v)] = 1;
  }
  roles_ = std::move(broadcast_set);
  if (source >= 0) roles_.push_back(source);
  std::sort(roles_.begin(), roles_.end());
  roles_.erase(std::unique(roles_.begin(), roles_.end()), roles_.end());
}

std::string AssignmentProblem::name() const { return "assignment"; }

bool AssignmentProblem::in_broadcast_set(int v) const {
  DC_EXPECTS(v >= 0 && v < static_cast<int>(in_b_.size()));
  return in_b_[static_cast<std::size_t>(v)] != 0;
}

Message AssignmentProblem::initial_message(int v) const {
  Message m;
  m.kind = MessageKind::data;
  m.source = v;
  m.payload = static_cast<std::uint64_t>(v);
  if (v == source_ || in_broadcast_set(v)) return m;
  return {};
}

// ---------------------------------------------------------------------------
// Local broadcast.
// ---------------------------------------------------------------------------

LocalBroadcastProblem::LocalBroadcastProblem(const DualGraph& net,
                                             std::vector<int> broadcast_set,
                                             ReceiverCredit credit)
    : net_(&net),
      g_view_(net.g_layer()),
      b_(std::move(broadcast_set)),
      credit_(credit) {
  DC_EXPECTS_MSG(!b_.empty(), "broadcast set must be non-empty");
  DC_EXPECTS_MSG(net.g_connected(),
                 "local broadcast requires a connected G");
  in_b_.assign(static_cast<std::size_t>(net.n()), 0);
  for (const int v : b_) {
    DC_EXPECTS(v >= 0 && v < net.n());
    DC_EXPECTS_MSG(!in_b_[static_cast<std::size_t>(v)],
                   "broadcast set contains duplicates");
    in_b_[static_cast<std::size_t>(v)] = 1;
  }
  roles_ = b_;
  std::sort(roles_.begin(), roles_.end());
  // R: nodes with at least one G-neighbor in B (LayerView iteration, so
  // implicit networks answer too).
  in_r_.assign(static_cast<std::size_t>(net.n()), 0);
  for (int v = 0; v < net.n(); ++v) {
    if (g_view_.any_neighbor(
            v, [&](int w) { return in_b_[static_cast<std::size_t>(w)] != 0; })) {
      in_r_[static_cast<std::size_t>(v)] = 1;
      r_.push_back(v);
    }
  }
  satisfied_.assign(static_cast<std::size_t>(net.n()), 0);
}

std::string LocalBroadcastProblem::name() const {
  return str("local-broadcast(|B|=", b_.size(), ", |R|=", r_.size(), ")");
}

bool LocalBroadcastProblem::in_broadcast_set(int v) const {
  DC_EXPECTS(v >= 0 && v < static_cast<int>(in_b_.size()));
  return in_b_[static_cast<std::size_t>(v)] != 0;
}

Message LocalBroadcastProblem::initial_message(int v) const {
  if (!in_broadcast_set(v)) return {};
  Message m;
  m.kind = MessageKind::data;
  m.source = v;
  m.payload = static_cast<std::uint64_t>(v);
  return m;
}

void LocalBroadcastProblem::observe_round(
    const RoundRecord& record,
    const std::vector<std::unique_ptr<Process>>& /*procs*/) {
  for_each_delivery(record, [&](const Delivery& d) {
    if (!in_r_[static_cast<std::size_t>(d.receiver)]) return;
    if (satisfied_[static_cast<std::size_t>(d.receiver)]) return;
    const Message& m = record.sent[static_cast<std::size_t>(d.transmitter_index)];
    if (m.kind != MessageKind::data) return;
    if (!in_b_[static_cast<std::size_t>(d.sender)]) return;
    if (credit_ == ReceiverCredit::g_neighbor_only &&
        !g_view_.has_edge(d.receiver, d.sender)) {
      return;
    }
    satisfied_[static_cast<std::size_t>(d.receiver)] = 1;
    ++satisfied_count_;
  });
}

bool LocalBroadcastProblem::solved(
    const std::vector<std::unique_ptr<Process>>& /*procs*/) const {
  return satisfied_count_ == static_cast<int>(r_.size());
}

std::vector<int> LocalBroadcastProblem::unsatisfied() const {
  std::vector<int> out;
  for (const int v : r_) {
    if (!satisfied_[static_cast<std::size_t>(v)]) out.push_back(v);
  }
  return out;
}

}  // namespace dualcast
