#pragma once

// The §2 receive rule, factored out of the engines so the scalar and batch
// execution paths resolve deliveries identically:
//
//   u receives m from v iff u listens, v transmits m, and v is the *only*
//   transmitter among u's neighbors in G ∪ (selected G'-only edges).
//
// Two strategies, chosen by the network's structure tag alone:
//
//   sweep      — walk each transmitter's adjacency (through LayerView, so
//                implicit layers iterate too), bumping per-listener hear
//                counts. O(Σ deg(t) + |activated edges|). Every network
//                without a dual-clique tag resolves here.
//   structured — dual cliques only (all of them implicit): a listener's
//                count is its side's transmitter total plus the
//                bridge/mask extras, so a round costs O(transmitters +
//                mask bits into a side that can still hear). A side that
//                hears one transmitter is recorded as one DeliveryRun
//                whose skips are its bumped listeners, sorted, not as a
//                Delivery per listener. A side with two or more transmitters
//                collides whatever G' adds, so mask edges into it are
//                skipped. This is the path that carries clique-family
//                networks past n = 4096.
//
// Ahead of both, a complete G' with every G'-only edge active resolves in
// O(1): one transmitter reaches everyone (one run over [0, n)), two
// collide everywhere. Only collision detection adds O(n), the colliders.
//
// Both paths produce the same delivery set, read through
// for_each_delivery() (history.hpp): the record's runs, then its explicit
// deliveries. The order may differ between paths, which no consumer
// depends on (per-receiver feedback is unique because a delivery requires
// a *sole* contender; the problem monitors are order-insensitive).

#include <cstdint>
#include <vector>

#include "graph/dual_graph.hpp"
#include "sim/edge_set.hpp"
#include "sim/history.hpp"

namespace dualcast {

class DeliveryResolver {
 public:
  // Fixed values: perfbench indexes {sweep, bitmap, structured} by value - 1.
  enum class Path : std::uint8_t {
    auto_select = 0,  ///< structured on dual cliques, sweep elsewhere
    sweep = 1,        ///< force the LayerView sweep (tests)
    structured = 3,   ///< force the structured path (dual cliques only)
  };

  /// Binds the resolver to a network and sizes the scratch. Must be called
  /// before resolve(); the network must outlive the resolver.
  void reset(const DualGraph* net, bool collision_detection);

  /// Resolves one round: appends this round's deliveries to `record`
  /// (which carries the transmitters/sent arrays already filled by the
  /// engine) as runs and explicit deliveries, and refills colliders() with
  /// the listeners that heard >= 2 transmitters (only when collision
  /// detection is on).
  /// `tx_index_of[v]` must be v's index into record.transmitters, or -1,
  /// and record.transmitters must be ascending (the engine's order, which
  /// a run's readers merge against; the structured path checks it).
  void resolve(const std::vector<int>& tx_index_of, const EdgeSet& edges,
               RoundRecord& record);

  /// Listeners with >= 2 contending transmitters in the last resolved round
  /// (empty unless collision detection is on).
  const std::vector<int>& colliders() const { return colliders_; }

  /// Test hook: pin the strategy. structured requires structure() ==
  /// dual_clique.
  void force_path(Path path) { forced_ = path; }
  /// The strategy taken by the last resolve() call (diagnostics/tests).
  Path last_path() const { return last_; }

 private:
  /// Registers one heard transmission for listener u (the shared
  /// hear-count/touched/last-sender invariant of the sweep and sparse-edge
  /// paths).
  void bump(int u, int sender, int tx_index) {
    if (hear_count_[static_cast<std::size_t>(u)] == 0) touched_.push_back(u);
    ++hear_count_[static_cast<std::size_t>(u)];
    last_sender_[static_cast<std::size_t>(u)] = sender;
    last_tx_index_[static_cast<std::size_t>(u)] = tx_index;
  }

  void resolve_sweep(const std::vector<int>& tx_index_of, const EdgeSet& edges,
                     RoundRecord& record);
  void resolve_structured(const std::vector<int>& tx_index_of,
                          const EdgeSet& edges, RoundRecord& record);
  void check_mask(const EdgeSet& edges) const;
  void apply_sparse_edges(const std::vector<int>& tx_index_of,
                          const EdgeSet& edges,
                          const std::vector<int>& transmitters);
  /// Bumps across the mask's dual-clique edges into side A only when
  /// `hear_a` and into side B only when `hear_b`.
  void apply_dual_clique_mask(const std::vector<int>& tx_index_of,
                              const EdgeSet& edges,
                              const std::vector<int>& transmitters,
                              bool hear_a, bool hear_b);
  void finalize(const std::vector<int>& tx_index_of, RoundRecord& record);
  /// Appends the bumped listeners of [lo, hi) that did not transmit to
  /// `out`, ascending.
  void collect_bumped(int lo, int hi, const std::vector<int>& tx_index_of,
                      std::vector<int>& out) const;

  const DualGraph* net_ = nullptr;
  bool dual_clique_ = false;      ///< net_->structure() == dual_clique
  bool gprime_complete_ = false;  ///< net_->gprime_complete()
  bool collision_detection_ = false;
  Path forced_ = Path::auto_select;
  Path last_ = Path::sweep;

  // Scratch reused across rounds (see KernelExecution's zero-allocation
  // contract).
  std::vector<int> hear_count_;
  std::vector<int> last_sender_;
  std::vector<int> last_tx_index_;
  std::vector<int> touched_;
  std::vector<int> colliders_;
};

}  // namespace dualcast
