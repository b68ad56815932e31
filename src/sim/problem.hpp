#pragma once

// The two broadcast problems of §2, as engine-pluggable objects.
//
// A Problem (a) assigns initial knowledge to nodes (who is the source / who
// is in the broadcast set B), and (b) monitors the execution and decides when
// the problem is solved.
//
//  * Global broadcast: a designated source holds a message; solved when every
//    node holds it.
//  * Local broadcast: nodes in B hold messages; R = nodes with a G-neighbor
//    in B; solved when every node in R has received a data message from a
//    node in B. The paper's Theorem 4.6 analysis credits deliveries from any
//    B node (they may arrive over G' edges); `ReceiverCredit::strict`
//    restricts credit to G-neighbors for the stricter reading — both are
//    supported and tested.

#include <memory>
#include <string>
#include <vector>

#include "graph/dual_graph.hpp"
#include "sim/history.hpp"
#include "sim/message.hpp"

namespace dualcast {

class Process;

/// Read-only per-node algorithm state, as exposed by the engine's kernel
/// (mirrors the scalar adapter's Process vector for the queries problems
/// actually make).
class NodeStateView {
 public:
  virtual ~NodeStateView() = default;
  virtual int n() const = 0;
  virtual bool has_message(int v) const = 0;
  /// The number of nodes v with has_message(v). The default scans all n;
  /// the engine answers in O(1) from its incremental count.
  virtual int message_holders() const;
};

class Problem {
 public:
  virtual ~Problem() = default;

  /// Human-readable description for traces and bench tables.
  virtual std::string name() const = 0;

  /// Capability declaration: does this problem read the stored
  /// ExecutionHistory (beyond the per-round record it is handed in
  /// observe_round)? False permits the engine to honor
  /// HistoryPolicy::lean. None of the built-in problems keep a back
  /// reference to the trace, so the default is false.
  virtual bool needs_history() const { return false; }

  /// True if node v is the global-broadcast source.
  virtual bool is_source(int v) const { return v >= 0 && false; }

  /// True if node v belongs to the local-broadcast set B.
  virtual bool in_broadcast_set(int v) const { return v >= 0 && false; }

  /// The message node v starts with (meaningful when is_source/in_B).
  virtual Message initial_message(int v) const;

  /// The nodes of an n-node network that have a role: is_source,
  /// in_broadcast_set or a non-default initial_message. Ascending, without
  /// duplicates. The engine builds environments for these nodes only, so
  /// set-up costs O(roles) rather than n queries of each kind. The default
  /// makes those queries for every node; the built-in problems return the
  /// list they store.
  virtual std::vector<int> role_nodes(int n) const;

  /// Observe one completed round (called by the engine after deliveries).
  virtual void observe_round(const RoundRecord& record,
                             const std::vector<std::unique_ptr<Process>>& procs);

  /// Has the problem been solved?
  virtual bool solved(
      const std::vector<std::unique_ptr<Process>>& procs) const = 0;

  /// Capability declaration for the batch (kernel) engine: true when this
  /// problem never reads the Process vector it is handed — observe_round()
  /// ignores `procs` and solved() needs at most the per-node state a
  /// NodeStateView provides (via solved_batch). All built-in problems
  /// qualify; the conservative default makes custom problems fall back to
  /// the scalar-adapter path, which supplies real processes.
  virtual bool batch_compatible() const { return false; }

  /// solved() for native kernels. Called instead of solved(procs) when
  /// the kernel has no Process objects; only invoked on problems declaring
  /// batch_compatible().
  virtual bool solved_batch(const NodeStateView& nodes) const;
};

/// Global broadcast from a designated source.
class GlobalBroadcastProblem final : public Problem {
 public:
  /// `source` must be a valid node of `net`; `net.g()` must be connected.
  GlobalBroadcastProblem(const DualGraph& net, int source);

  std::string name() const override;
  bool is_source(int v) const override { return v == source_; }
  Message initial_message(int v) const override;
  std::vector<int> role_nodes(int /*n*/) const override { return {source_}; }
  bool solved(const std::vector<std::unique_ptr<Process>>& procs) const override;
  bool batch_compatible() const override { return true; }
  bool solved_batch(const NodeStateView& nodes) const override;

  int source() const { return source_; }

 private:
  int source_ = -1;
};

/// A problem that only *assigns roles* (source / broadcast set) and never
/// reports solved. Used for driven simulations where an outer component — an
/// adversary pre-simulating bands (Lemma 4.4) or the Theorem 3.1 reduction
/// player — steps the execution itself and applies its own stopping rule.
/// Imposes no connectivity requirements (the reduction player deliberately
/// simulates a *disconnected* bridgeless dual clique).
class AssignmentProblem final : public Problem {
 public:
  /// `source` may be -1 (no global source); `broadcast_set` may be empty.
  AssignmentProblem(int n, int source, std::vector<int> broadcast_set);

  std::string name() const override;
  bool is_source(int v) const override { return v == source_ && v >= 0; }
  bool in_broadcast_set(int v) const override;
  Message initial_message(int v) const override;
  std::vector<int> role_nodes(int /*n*/) const override { return roles_; }
  bool solved(const std::vector<std::unique_ptr<Process>>&) const override {
    return false;
  }
  bool batch_compatible() const override { return true; }
  bool solved_batch(const NodeStateView&) const override { return false; }

 private:
  int source_ = -1;
  std::vector<char> in_b_;
  std::vector<int> roles_;  ///< {source} ∪ B, ascending
};

/// How local-broadcast receivers are credited with a delivery.
enum class ReceiverCredit {
  any_b_sender,        ///< any data message from a node in B counts (paper's
                       ///< Theorem 4.6 accounting)
  g_neighbor_only,     ///< only data messages from B ∩ N_G(receiver) count
};

/// Local broadcast from a set B to its G-neighborhood R.
class LocalBroadcastProblem final : public Problem {
 public:
  /// `broadcast_set` must be non-empty with valid, distinct node ids;
  /// `net.g()` must be connected.
  LocalBroadcastProblem(const DualGraph& net, std::vector<int> broadcast_set,
                        ReceiverCredit credit = ReceiverCredit::any_b_sender);

  std::string name() const override;
  bool in_broadcast_set(int v) const override;
  Message initial_message(int v) const override;
  std::vector<int> role_nodes(int /*n*/) const override { return roles_; }
  void observe_round(const RoundRecord& record,
                     const std::vector<std::unique_ptr<Process>>& procs) override;
  bool solved(const std::vector<std::unique_ptr<Process>>& procs) const override;
  bool batch_compatible() const override { return true; }
  bool solved_batch(const NodeStateView&) const override {
    return satisfied_count_ == static_cast<int>(r_.size());
  }

  const std::vector<int>& broadcast_set() const { return b_; }
  /// R: every node with at least one G-neighbor in B.
  const std::vector<int>& receivers() const { return r_; }
  /// Receivers not yet credited with a delivery.
  std::vector<int> unsatisfied() const;
  int satisfied_count() const { return satisfied_count_; }

 private:
  const DualGraph* net_;
  /// Cached G view for the per-delivery g_neighbor_only credit check.
  LayerView g_view_;
  std::vector<int> b_;
  std::vector<char> in_b_;
  std::vector<int> roles_;  ///< B, ascending
  std::vector<int> r_;
  std::vector<char> in_r_;
  std::vector<char> satisfied_;
  int satisfied_count_ = 0;
  ReceiverCredit credit_;
};

}  // namespace dualcast
