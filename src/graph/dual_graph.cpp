#include "graph/dual_graph.hpp"

#include <algorithm>
#include <limits>

#include "util/assert.hpp"

namespace dualcast {

DualGraph::DualGraph(Graph g, Graph gprime)
    : g_(std::move(g)), gp_(std::move(gprime)) {
  DC_EXPECTS(g_.finalized() && gp_.finalized());
  DC_EXPECTS_MSG(g_.n() == gp_.n(), "G and G' must share a vertex set");
  n_ = g_.n();

  for (int u = 0; u < n(); ++u) {
    for (const int v : g_.neighbors(u)) {
      DC_EXPECTS_MSG(gp_.has_edge(u, v), "dual graph requires E(G) ⊆ E(G')");
    }
    for (const int v : gp_.neighbors(u)) {
      if (u < v && !g_.has_edge(u, v)) gp_only_edges_.emplace_back(u, v);
    }
  }
  gp_only_edge_count_ = static_cast<std::int64_t>(gp_only_edges_.size());

  // Pack the G'-only adjacency into CSR: degree pass, prefix sums, scatter,
  // then sort each row (rows are short; construction cost only).
  gp_only_offsets_.assign(static_cast<std::size_t>(n()) + 1, 0);
  for (const auto& [u, v] : gp_only_edges_) {
    ++gp_only_offsets_[static_cast<std::size_t>(u) + 1];
    ++gp_only_offsets_[static_cast<std::size_t>(v) + 1];
  }
  for (int v = 0; v < n(); ++v) {
    gp_only_offsets_[static_cast<std::size_t>(v) + 1] +=
        gp_only_offsets_[static_cast<std::size_t>(v)];
  }
  gp_only_neighbors_.resize(
      static_cast<std::size_t>(2 * gp_only_edges_.size()));
  gp_only_edge_index_.resize(gp_only_neighbors_.size());
  std::vector<std::int64_t> cursor(gp_only_offsets_.begin(),
                                   gp_only_offsets_.end() - 1);
  for (std::size_t e = 0; e < gp_only_edges_.size(); ++e) {
    const auto& [u, v] = gp_only_edges_[e];
    const std::size_t iu =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(u)]++);
    const std::size_t iv =
        static_cast<std::size_t>(cursor[static_cast<std::size_t>(v)]++);
    gp_only_neighbors_[iu] = v;
    gp_only_neighbors_[iv] = u;
    gp_only_edge_index_[iu] = static_cast<std::int32_t>(e);
    gp_only_edge_index_[iv] = static_cast<std::int32_t>(e);
  }
  // Per-row sort by neighbor id, co-sorting the edge indices (rows are
  // short; construction cost only).
  std::vector<std::pair<int, std::int32_t>> row_scratch;
  for (int v = 0; v < n(); ++v) {
    const std::size_t begin =
        static_cast<std::size_t>(gp_only_offsets_[static_cast<std::size_t>(v)]);
    const std::size_t end = static_cast<std::size_t>(
        gp_only_offsets_[static_cast<std::size_t>(v) + 1]);
    row_scratch.clear();
    for (std::size_t k = begin; k < end; ++k) {
      row_scratch.emplace_back(gp_only_neighbors_[k], gp_only_edge_index_[k]);
    }
    std::sort(row_scratch.begin(), row_scratch.end());
    for (std::size_t k = begin; k < end; ++k) {
      gp_only_neighbors_[k] = row_scratch[k - begin].first;
      gp_only_edge_index_[k] = row_scratch[k - begin].second;
    }
  }

  gp_max_degree_ = gp_.max_degree();
}

DualGraph DualGraph::protocol(Graph g) {
  Graph copy = g;
  return DualGraph(std::move(g), std::move(copy));
}

DualGraph DualGraph::implicit_dual_clique(int n, int bridge_index,
                                          bool with_bridge) {
  DC_EXPECTS_MSG(n >= 4 && n % 2 == 0, "dual clique needs an even n >= 4");
  const int half = n / 2;
  DC_EXPECTS(bridge_index >= 0 && bridge_index < half);
  DualGraph d;
  d.n_ = n;
  d.rep_ = Rep::implicit_dual_clique;
  d.half_ = half;
  d.bridge_a_ = with_bridge ? bridge_index : -1;
  d.bridge_b_ = with_bridge ? half + bridge_index : -1;
  d.gp_only_edge_count_ = static_cast<std::int64_t>(half) * half -
                          (with_bridge ? 1 : 0);
  d.gp_max_degree_ = n - 1;
  return d;
}

DualGraph DualGraph::protocol_dual_clique(int n, int bridge_index) {
  DualGraph d = implicit_dual_clique(n, bridge_index);
  d.rep_ = Rep::protocol_dual_clique;
  d.gp_only_edge_count_ = 0;
  d.gp_max_degree_ = d.half_;  // h - 1 clique neighbors plus the bridge
  d.gp_only_offsets_.assign(static_cast<std::size_t>(n) + 1, 0);
  return d;
}

DualGraph DualGraph::implicit_complete_gprime(Graph g) {
  DC_EXPECTS(g.finalized() && g.n() >= 1);
  DualGraph d;
  d.n_ = g.n();
  d.rep_ = Rep::implicit_complete_gprime;
  d.g_ = std::move(g);
  d.gp_max_degree_ = d.n_ - 1;
  d.gp_only_edge_count_ =
      static_cast<std::int64_t>(d.n_) * (d.n_ - 1) / 2 - d.g_.edge_count();
  // Prefix counts of overlay edges keyed by their lower endpoint, for
  // edge-index decode: row u contributes (n-1-u) pairs minus u's
  // G-neighbors above u.
  d.overlay_row_start_.assign(static_cast<std::size_t>(d.n_) + 1, 0);
  for (int u = 0; u < d.n_; ++u) {
    std::int64_t above = 0;
    for (const int w : d.g_.neighbors(u)) above += w > u ? 1 : 0;
    d.overlay_row_start_[static_cast<std::size_t>(u) + 1] =
        d.overlay_row_start_[static_cast<std::size_t>(u)] +
        (d.n_ - 1 - u - above);
  }
  return d;
}

DualGraph::Structure DualGraph::structure() const {
  if (is_dual_clique()) return Structure::dual_clique;
  return gprime_complete() ? Structure::gprime_complete : Structure::general;
}

bool DualGraph::gprime_complete() const {
  if (rep_ != Rep::explicit_layers) return rep_ != Rep::protocol_dual_clique;
  return n_ >= 1 &&
         gp_.edge_count() == static_cast<std::int64_t>(n_) * (n_ - 1) / 2;
}

const Graph& DualGraph::g() const {
  DC_EXPECTS_MSG(!is_dual_clique(),
                 "g(): a dual clique has no materialized G; use g_layer()");
  return g_;
}

const Graph& DualGraph::gprime() const {
  DC_EXPECTS_MSG(rep_ == Rep::explicit_layers,
                 "gprime(): implicit network has no materialized G'; use "
                 "gprime_layer()");
  return gp_;
}

LayerView DualGraph::g_layer() const {
  if (is_dual_clique()) {
    return LayerView::dual_cliques(n_, half_, bridge_a_, bridge_b_);
  }
  return LayerView::explicit_csr(n_, g_.csr_offsets(), g_.csr_neighbors());
}

LayerView DualGraph::gprime_layer() const {
  if (rep_ == Rep::explicit_layers) {
    return LayerView::explicit_csr(n_, gp_.csr_offsets(), gp_.csr_neighbors());
  }
  if (rep_ == Rep::protocol_dual_clique) return g_layer();
  return LayerView::complete(n_);
}

LayerView DualGraph::gp_only_layer() const {
  switch (rep_) {
    case Rep::explicit_layers:
    case Rep::protocol_dual_clique:  // all-zero offsets: no G'-only edges
      return LayerView::explicit_csr(n_, gp_only_offsets_, gp_only_neighbors_);
    case Rep::implicit_dual_clique:
      return LayerView::complete_bipartite(n_, half_, bridge_a_, bridge_b_);
    case Rep::implicit_complete_gprime:
      return LayerView::complement_of_sparse(n_, g_.csr_offsets(),
                                             g_.csr_neighbors());
  }
  return {};
}

std::pair<int, int> DualGraph::gp_only_edge(std::int64_t idx) const {
  DC_EXPECTS(idx >= 0 && idx < gp_only_edge_count_);
  switch (rep_) {
    case Rep::explicit_layers:
    case Rep::protocol_dual_clique:  // unreachable: no G'-only edges
      return gp_only_edges_[static_cast<std::size_t>(idx)];
    case Rep::implicit_dual_clique: {
      // The order the explicit construction enumerates (u ascending, then
      // v ascending).
      const std::int64_t f = dual_edge_index().slot(idx);
      return {static_cast<int>(f / half_), half_ + static_cast<int>(f % half_)};
    }
    case Rep::implicit_complete_gprime: {
      // Find the lower endpoint by prefix search, then select the k-th
      // non-G-neighbor above it by walking the gaps of its sorted row.
      const auto it = std::upper_bound(overlay_row_start_.begin(),
                                       overlay_row_start_.end(), idx);
      const int u = static_cast<int>(it - overlay_row_start_.begin()) - 1;
      std::int64_t k = idx - overlay_row_start_[static_cast<std::size_t>(u)];
      int prev = u;
      for (const int w : g_.neighbors(u)) {
        if (w <= u) continue;
        const std::int64_t gap = w - prev - 1;
        if (k < gap) return {u, prev + 1 + static_cast<int>(k)};
        k -= gap;
        prev = w;
      }
      return {u, prev + 1 + static_cast<int>(k)};
    }
  }
  return {-1, -1};
}

DualGraph::DualEdgeIndex DualGraph::dual_edge_index() const {
  if (bridge_a_ < 0) return {std::numeric_limits<std::int64_t>::max()};
  return {static_cast<std::int64_t>(bridge_a_) * half_ + (bridge_b_ - half_)};
}

const std::vector<std::pair<int, int>>& DualGraph::gp_only_edges() const {
  DC_EXPECTS_MSG(rep_ == Rep::explicit_layers,
                 "gp_only_edges(): implicit networks never materialize the "
                 "edge list; use gp_only_edge_count()/gp_only_edge()");
  return gp_only_edges_;
}

std::span<const int> DualGraph::gp_only_neighbors(int v) const {
  DC_EXPECTS(rep_ == Rep::explicit_layers);
  DC_EXPECTS(v >= 0 && v < n());
  const std::int64_t begin = gp_only_offsets_[static_cast<std::size_t>(v)];
  const std::int64_t end = gp_only_offsets_[static_cast<std::size_t>(v) + 1];
  return {gp_only_neighbors_.data() + begin,
          static_cast<std::size_t>(end - begin)};
}

bool DualGraph::g_connected() const {
  if (is_dual_clique()) return bridge_a_ >= 0;
  return g_.is_connected();
}

std::size_t DualGraph::approx_heap_bytes() const {
  std::size_t bytes = g_.approx_heap_bytes() + gp_.approx_heap_bytes();
  bytes += gp_only_edges_.capacity() * sizeof(std::pair<int, int>);
  bytes += gp_only_offsets_.capacity() * sizeof(std::int64_t);
  bytes += gp_only_neighbors_.capacity() * sizeof(int);
  bytes += gp_only_edge_index_.capacity() * sizeof(std::int32_t);
  bytes += overlay_row_start_.capacity() * sizeof(std::int64_t);
  return bytes;
}

}  // namespace dualcast
