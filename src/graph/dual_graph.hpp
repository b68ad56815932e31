#pragma once

// The dual graph (G, G') of §2: two graphs on the same vertex set with
// E ⊆ E'. Edges in G are reliable and present in every round; edges in
// E' \ E ("G'-only" edges) appear per round at the discretion of the link
// process (the adversary).
//
// Two storage representations behind one query surface:
//
//   explicit — both layers materialized as CSR Graphs plus an indexed
//              G'-only overlay (flat CSR + edge list), exactly as the
//              delivery resolver's sweep walks them; nothing else is
//              derived from them. Any (G, G') pair can be built this way;
//              none is tagged as a dual clique.
//
//   implicit — clique-family networks where explicit storage is O(n²):
//              every §3 dual clique (implicit_dual_clique, and its G layer
//              as a protocol-model network, protocol_dual_clique) and
//              sparse-G/complete-G' overlays (implicit_complete_gprime).
//              No dense layer is materialized; degree / neighbors / rows /
//              edge-index decode are served arithmetically through
//              LayerView, so dual_clique(65536) costs O(1) bytes instead of
//              the ~48 GiB its explicit CSR would need.
//
// Consumers that can handle any representation use the LayerView accessors
// (g_layer / gprime_layer / gp_only_layer) and the indexed-edge API
// (gp_only_edge_count / gp_only_edge); the raw Graph / CSR accessors remain
// for explicit-representation consumers and assert on implicit networks.

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/layer_view.hpp"

namespace dualcast {

class DualGraph {
 public:
  /// Recognized network structure, derived from the representation.
  enum class Structure : std::uint8_t {
    general,          ///< nothing recognized
    gprime_complete,  ///< G' == K_n
    dual_clique,      ///< G == two half cliques (+ <= 1 bridge); G' == K_n,
                      ///< or G' == G (protocol_dual_clique)
  };

  /// Empty dual graph (n == 0); useful as a placeholder before assignment.
  DualGraph() = default;

  /// Builds a dual graph from a reliable layer `g` and a superset layer
  /// `gprime`. Both must be finalized, on the same vertex count, with
  /// E(g) ⊆ E(gprime). The model also requires G connected for broadcast
  /// problems; that is checked by the Problem, not here, so lower-bound
  /// constructions (e.g. the bridgeless dual clique used by the reduction
  /// player) can be represented too.
  explicit DualGraph(Graph g, Graph gprime);

  /// The protocol (static) model: G' == G, i.e. no unreliable links.
  static DualGraph protocol(Graph g);

  /// The §3 dual clique without materializing either layer: cliques on
  /// [0, n/2) and [n/2, n), G' = K_n, optional reliable bridge
  /// (bridge_index, n/2 + bridge_index). Requires an even n >= 4. O(1)
  /// construction and O(1) heap.
  static DualGraph implicit_dual_clique(int n, int bridge_index,
                                        bool with_bridge = true);

  /// The dual clique's reliable layer as a protocol-model network: G as
  /// in implicit_dual_clique (with the bridge) and G' = G, so there are no
  /// G'-only edges, Δ = n/2 and gprime_complete() is false. O(n) heap: the
  /// empty overlay's CSR offsets behind gp_only_layer().
  static DualGraph protocol_dual_clique(int n, int bridge_index);

  /// A sparse reliable layer under a complete G', without materializing G'
  /// or the overlay: the G'-only layer is K_n minus `g` (LayerView
  /// complement_of_sparse). Keeps O(n + |E(g)|) heap.
  static DualGraph implicit_complete_gprime(Graph g);

  int n() const { return n_; }

  /// True when no explicit layer storage exists; the Graph/CSR accessors
  /// below assert on such networks — use the LayerView surface instead.
  bool is_implicit() const { return rep_ != Rep::explicit_layers; }

  Structure structure() const;

  /// The reliable layer as a materialized Graph. Explicit representation
  /// only (also available for implicit_complete_gprime, which owns G).
  const Graph& g() const;
  /// The superset layer as a materialized Graph. Explicit representation
  /// only.
  const Graph& gprime() const;

  /// Layer views valid under every representation. Views borrow this
  /// object's storage and must not outlive it.
  LayerView g_layer() const;
  LayerView gprime_layer() const;
  LayerView gp_only_layer() const;

  /// Δ: maximum degree in G' (known to processes per §2).
  int max_degree() const { return gp_max_degree_; }

  /// Number of G'-only edges (the adversary's edge index space).
  std::int64_t gp_only_edge_count() const { return gp_only_edge_count_; }

  /// Endpoints (u < v) of G'-only edge `idx`, under any representation.
  /// O(1) explicit / implicit dual clique; O(degree) for
  /// implicit_complete_gprime. The enumeration order matches what the
  /// explicit construction would produce (ascending (u, v) lexicographic).
  std::pair<int, int> gp_only_edge(std::int64_t idx) const;

  /// The G'-only edges (E' \ E), indexed 0..count-1 with u < v. Explicit
  /// representation only — implicit networks never materialize this list;
  /// use gp_only_edge_count() / gp_only_edge().
  const std::vector<std::pair<int, int>>& gp_only_edges() const;

  /// Adjacency restricted to G'-only edges. Explicit representation only.
  std::span<const int> gp_only_neighbors(int v) const;

  /// Raw CSR views of the G'-only overlay (offsets has size n+1). Explicit
  /// representation only.
  std::span<const std::int64_t> gp_only_csr_offsets() const {
    return gp_only_offsets_;
  }
  std::span<const int> gp_only_csr_neighbors() const {
    return gp_only_neighbors_;
  }
  /// Parallel to gp_only_csr_neighbors(): the G'-only edge index of each
  /// CSR entry. Lets per-transmitter walks test "is this G'-only edge
  /// active this round" against an adversary's selected-edge mask without
  /// touching the flat edge list.
  std::span<const std::int32_t> gp_only_csr_edge_indices() const {
    return gp_only_edge_index_;
  }

  /// True if G' is the complete graph — enables the engine's O(1)
  /// dense-round fast path on clique-like lower-bound networks.
  bool gprime_complete() const;

  /// Dual-clique data, valid when structure() == dual_clique: the side
  /// split [0, half) / [half, n) and the reliable bridge endpoints (-1 for
  /// the bridgeless variant).
  int dual_half() const { return half_; }
  int dual_bridge_a() const { return bridge_a_; }
  int dual_bridge_b() const { return bridge_b_; }

  /// A dual clique's G'-only edge numbering: row-major over A × B, so pair
  /// (a, b), a < half <= b, fills slot a·half + (b − half), and its edge
  /// index is the slot, or the slot − 1 past the bridge pair's slot.
  struct DualEdgeIndex {
    std::int64_t hole;  ///< the bridge pair's slot; INT64_MAX without one
    std::int64_t slot(std::int64_t idx) const {
      return idx >= hole ? idx + 1 : idx;
    }
    std::int64_t index(std::int64_t slot) const {
      return slot > hole ? slot - 1 : slot;
    }
  };
  /// Valid when structure() == dual_clique.
  DualEdgeIndex dual_edge_index() const;

  /// Whether G is connected, under any representation (the structural
  /// answer for implicit dual cliques; BFS otherwise).
  bool g_connected() const;

  /// Heap footprint of this network's own storage, in bytes (layers and
  /// overlay index). The implicit representations' O(n)-or-less
  /// guarantee is asserted against this in tests.
  std::size_t approx_heap_bytes() const;

 private:
  enum class Rep : std::uint8_t {
    explicit_layers,
    implicit_dual_clique,
    protocol_dual_clique,
    implicit_complete_gprime,
  };

  bool is_dual_clique() const {
    return rep_ == Rep::implicit_dual_clique ||
           rep_ == Rep::protocol_dual_clique;
  }

  int n_ = 0;
  Rep rep_ = Rep::explicit_layers;
  int half_ = 0;
  int bridge_a_ = -1;
  int bridge_b_ = -1;
  std::int64_t gp_only_edge_count_ = 0;
  int gp_max_degree_ = 0;

  Graph g_;
  Graph gp_;
  std::vector<std::pair<int, int>> gp_only_edges_;
  std::vector<std::int64_t> gp_only_offsets_;
  std::vector<int> gp_only_neighbors_;
  std::vector<std::int32_t> gp_only_edge_index_;
  /// implicit_complete_gprime: prefix counts of overlay edges whose lower
  /// endpoint is < u (size n+1), for O(log n + degree) edge-index decode.
  std::vector<std::int64_t> overlay_row_start_;
};

}  // namespace dualcast
