#pragma once

// Graph and dual-graph generators.
//
// Includes both generic topologies (lines, rings, grids, trees, cliques) and
// the paper's two lower-bound constructions:
//
//   * Dual clique (§3): vertices split into cliques A and B joined by one
//     reliable bridge edge (t_A, t_B); G' is complete. Constant diameter, and
//     geographic (embed the cliques in two unit disks at distance slightly
//     above 1 with r >= that distance).
//
//   * Bracelet (§4.2): √(n/2) "bands" (reliable paths) per side, joined in a
//     clique at the far endpoints; one reliable clasp edge between band heads
//     a_t and b_t; G'-only edges between every cross pair of heads.
//
// plus geographic random networks with a grey zone, used by §4.3.

#include <utility>
#include <vector>

#include "graph/dual_graph.hpp"
#include "graph/geometry.hpp"
#include "graph/graph.hpp"

namespace dualcast {

class Rng;

// ---------------------------------------------------------------------------
// Generic single-layer topologies.
// ---------------------------------------------------------------------------

/// Path 0-1-...-(n-1). Requires n >= 1.
Graph line_graph(int n);

/// Cycle on n >= 3 vertices.
Graph ring_graph(int n);

/// rows x cols grid, 4-neighborhood. Requires rows, cols >= 1.
Graph grid_graph(int rows, int cols);

/// Star with center 0 and n-1 leaves. Requires n >= 2.
Graph star_graph(int n);

/// Complete graph on n >= 1 vertices.
Graph complete_graph(int n);

/// Uniform random labelled tree (random attachment). Requires n >= 1.
Graph random_tree(int n, Rng& rng);

// ---------------------------------------------------------------------------
// Paper constructions.
// ---------------------------------------------------------------------------

/// The §3 dual clique lower-bound network.
struct DualCliqueNet {
  DualGraph net;
  int bridge_a = -1;  ///< t_A: the A-side endpoint of the reliable bridge
  int bridge_b = -1;  ///< t_B: the B-side endpoint
  std::vector<int> side_a;  ///< vertices of clique A
  std::vector<int> side_b;  ///< vertices of clique B
};

/// Builds a dual clique on n (even, >= 4) vertices. A = {0..n/2-1},
/// B = {n/2..n-1}. The bridge endpoints are side_a[bridge_index] and
/// side_b[bridge_index]; by default the index is 0, and the lower-bound
/// benches randomize it so no algorithm can "know" t. The network is
/// DualGraph::implicit_dual_clique at every n: no O(n²) CSR layers,
/// LayerView-served structure.
DualCliqueNet dual_clique(int n, int bridge_index = 0);

/// Bridgeless variant: identical except the (t_A, t_B) edge is absent from
/// G (it stays in G'). Used by the Theorem 3.1 reduction player, which must
/// simulate the network without knowing t. Note G is then disconnected.
DualCliqueNet dual_clique_without_bridge(int n);

/// The §4.2 bracelet lower-bound network.
struct BraceletNet {
  DualGraph net;
  int band_len = 0;               ///< k = √(n/2): nodes per band
  std::vector<int> heads_a;       ///< a_1..a_k (band heads, side A)
  std::vector<int> heads_b;       ///< b_1..b_k (band heads, side B)
  /// bands[i] lists the i-th band head-first: heads come from side A for
  /// i < k and side B for i >= k.
  std::vector<std::vector<int>> bands;
  int clasp_a = -1;  ///< a_t
  int clasp_b = -1;  ///< b_t
};

/// Builds a bracelet with k = floor(sqrt(n_target / 2)) bands per side
/// (total 2k² vertices; requires n_target >= 8 so k >= 2). The clasp joins
/// heads_a[clasp_index] and heads_b[clasp_index].
BraceletNet bracelet(int n_target, int clasp_index = 0);

// ---------------------------------------------------------------------------
// Geographic networks (§2 constraint, §4.3 upper bound).
// ---------------------------------------------------------------------------

/// A geographic dual graph together with its plane embedding.
struct GeoNet {
  DualGraph net;
  std::vector<Point2D> points;
  double r = 1.0;  ///< grey-zone outer radius
};

struct GeoParams {
  int n = 0;              ///< number of nodes
  double side = 1.0;      ///< nodes sampled uniformly in [0, side]^2
  double r = 2.0;         ///< grey zone: (1, r] pairs become G'-only edges
  int max_attempts = 64;  ///< resampling attempts to obtain a connected G
};

/// Samples points uniformly at random until G (unit-disk layer) is
/// connected; throws ContractViolation if max_attempts is exhausted — choose
/// a denser configuration instead. Pairs at distance <= 1 join G; pairs in
/// (1, r] join G' only.
GeoNet random_geometric(const GeoParams& params, Rng& rng);

/// Deterministically connected geographic network: a rows x cols grid with
/// spacing < 1 plus bounded random jitter. Sweeping `spacing` sweeps Δ.
/// Requires 0 < spacing < 1 and 0 <= jitter < (1 - spacing) / 2.
GeoNet jittered_grid_geo(int rows, int cols, double spacing, double jitter,
                         double r, Rng& rng);

// ---------------------------------------------------------------------------
// Synthetic unreliability overlays.
// ---------------------------------------------------------------------------

/// Dual graph whose reliable layer is `g` and whose G' adds each non-edge
/// independently with probability p_extra.
DualGraph with_random_gprime(const Graph& g, double p_extra, Rng& rng);

/// Dual graph whose reliable layer is `g` and whose G' is complete — the
/// maximal-unreliability overlay. Served implicitly (the G'-only layer is
/// K_n minus g, never materialized), so it scales to any n a sparse `g`
/// scales to.
DualGraph with_complete_gprime(Graph g);

}  // namespace dualcast
