#pragma once

// LayerView: one layer of a dual graph (G, the G'-only overlay, or G'
// itself) behind a uniform read interface, served either from explicit CSR
// storage or from an *implicit* structural description that never
// materializes the O(n²) entries of a dense layer.
//
// The paper's lower-bound constructions are exactly the networks where the
// explicit representation is quadratic: the §3 dual clique's G' is K_n and
// its G is two half cliques, so CSR storage caps clique-like networks near
// n = 4096 while sparse grids already run at 65536. A LayerView answers
// degree / adjacency / neighbor-iteration queries in O(1) per neighbor
// from a handful of integers instead:
//
//   explicit_csr          — spans over caller-owned CSR arrays (the classic
//                           representation; zero behavior change).
//   complete              — K_n (the dual clique's G').
//   dual_cliques          — cliques on [0, half) and [half, n) plus an
//                           optional bridge edge (the dual clique's G).
//   complete_bipartite    — every cross pair of [0, half) × [half, n) minus
//                           an optional missing pair (the dual clique's
//                           G'-only overlay: K_n minus G = the bipartite
//                           complement of the two cliques, with the bridge
//                           removed).
//   complement_of_sparse  — K_n minus an explicit sparse graph, self
//                           excluded (the G'-only overlay of any sparse-G
//                           network whose G' is complete).
//
// Views are cheap value types (a tag + a few ints + two spans); the
// explicit / complement variants borrow the owning DualGraph's storage and
// must not outlive it.

#include <cstdint>
#include <span>

#include "util/assert.hpp"

namespace dualcast {

class LayerView {
 public:
  enum class Structure : std::uint8_t {
    explicit_csr,
    complete,
    dual_cliques,
    complete_bipartite,
    complement_of_sparse,
  };

  LayerView() = default;

  /// Spans over CSR arrays: offsets of size n+1, per-row sorted neighbors.
  static LayerView explicit_csr(int n, std::span<const std::int64_t> offsets,
                                std::span<const int> neighbors) {
    LayerView v;
    v.structure_ = Structure::explicit_csr;
    v.n_ = n;
    v.offsets_ = offsets;
    v.neighbors_ = neighbors;
    return v;
  }

  /// K_n.
  static LayerView complete(int n) {
    LayerView v;
    v.structure_ = Structure::complete;
    v.n_ = n;
    return v;
  }

  /// Cliques on [0, half) and [half, n); when bridge_a >= 0, one extra edge
  /// (bridge_a, bridge_b) with bridge_a < half <= bridge_b.
  static LayerView dual_cliques(int n, int half, int bridge_a, int bridge_b) {
    DC_EXPECTS(half >= 1 && half < n);
    DC_EXPECTS(bridge_a < 0 || (bridge_a < half && bridge_b >= half));
    LayerView v;
    v.structure_ = Structure::dual_cliques;
    v.n_ = n;
    v.half_ = half;
    v.ex_a_ = bridge_a;
    v.ex_b_ = bridge_b;
    return v;
  }

  /// Every pair of [0, half) × [half, n); when hole_a >= 0, the pair
  /// (hole_a, hole_b) with hole_a < half <= hole_b is absent.
  static LayerView complete_bipartite(int n, int half, int hole_a,
                                      int hole_b) {
    DC_EXPECTS(half >= 1 && half < n);
    DC_EXPECTS(hole_a < 0 || (hole_a < half && hole_b >= half));
    LayerView v;
    v.structure_ = Structure::complete_bipartite;
    v.n_ = n;
    v.half_ = half;
    v.ex_a_ = hole_a;
    v.ex_b_ = hole_b;
    return v;
  }

  /// K_n minus the CSR graph passed in (self always excluded).
  static LayerView complement_of_sparse(int n,
                                        std::span<const std::int64_t> offsets,
                                        std::span<const int> neighbors) {
    LayerView v;
    v.structure_ = Structure::complement_of_sparse;
    v.n_ = n;
    v.offsets_ = offsets;
    v.neighbors_ = neighbors;
    return v;
  }

  Structure structure() const { return structure_; }
  bool is_explicit() const { return structure_ == Structure::explicit_csr; }
  int n() const { return n_; }

  /// The split point of the two-sided variants (dual_cliques,
  /// complete_bipartite).
  int half() const { return half_; }
  /// The exception pair: the bridge of dual_cliques (present), the hole of
  /// complete_bipartite (absent); (-1, -1) when there is none.
  int exception_a() const { return ex_a_; }
  int exception_b() const { return ex_b_; }

  int degree(int v) const;
  bool has_edge(int u, int v) const;

  /// Visits v's neighbors in ascending order. O(degree) for explicit rows;
  /// O(n) for the dense implicit variants (use the structural accessors
  /// when that matters).
  template <typename Fn>
  void for_each_neighbor(int v, Fn&& fn) const {
    switch (structure_) {
      case Structure::explicit_csr: {
        const auto row = explicit_row(v);
        for (const int u : row) fn(u);
        return;
      }
      case Structure::complete: {
        for (int u = 0; u < n_; ++u) {
          if (u != v) fn(u);
        }
        return;
      }
      case Structure::dual_cliques: {
        if (v < half_) {
          for (int u = 0; u < half_; ++u) {
            if (u != v) fn(u);
          }
          if (v == ex_a_) fn(ex_b_);
        } else {
          if (v == ex_b_) fn(ex_a_);
          for (int u = half_; u < n_; ++u) {
            if (u != v) fn(u);
          }
        }
        return;
      }
      case Structure::complete_bipartite: {
        if (v < half_) {
          for (int u = half_; u < n_; ++u) {
            if (v == ex_a_ && u == ex_b_) continue;
            fn(u);
          }
        } else {
          for (int u = 0; u < half_; ++u) {
            if (v == ex_b_ && u == ex_a_) continue;
            fn(u);
          }
        }
        return;
      }
      case Structure::complement_of_sparse: {
        const auto row = explicit_row(v);
        std::size_t k = 0;
        for (int u = 0; u < n_; ++u) {
          if (k < row.size() && row[k] == u) {
            ++k;
            continue;
          }
          if (u != v) fn(u);
        }
        return;
      }
    }
  }

  /// True if some neighbor of v satisfies `pred`; stops at the first hit
  /// (unlike for_each_neighbor, which always visits the whole row).
  template <typename Pred>
  bool any_neighbor(int v, Pred&& pred) const {
    switch (structure_) {
      case Structure::explicit_csr: {
        for (const int u : explicit_row(v)) {
          if (pred(u)) return true;
        }
        return false;
      }
      case Structure::complete: {
        for (int u = 0; u < n_; ++u) {
          if (u != v && pred(u)) return true;
        }
        return false;
      }
      case Structure::dual_cliques: {
        const int lo = v < half_ ? 0 : half_;
        const int hi = v < half_ ? half_ : n_;
        for (int u = lo; u < hi; ++u) {
          if (u != v && pred(u)) return true;
        }
        if (v == ex_a_) return pred(ex_b_);
        if (v == ex_b_) return pred(ex_a_);
        return false;
      }
      case Structure::complete_bipartite: {
        const int lo = v < half_ ? half_ : 0;
        const int hi = v < half_ ? n_ : half_;
        const int skip = v == ex_a_ ? ex_b_ : (v == ex_b_ ? ex_a_ : -1);
        for (int u = lo; u < hi; ++u) {
          if (u != skip && pred(u)) return true;
        }
        return false;
      }
      case Structure::complement_of_sparse: {
        const auto row = explicit_row(v);
        std::size_t k = 0;
        for (int u = 0; u < n_; ++u) {
          if (k < row.size() && row[k] == u) {
            ++k;
            continue;
          }
          if (u != v && pred(u)) return true;
        }
        return false;
      }
    }
    return false;
  }

 private:
  std::span<const int> explicit_row(int v) const {
    const std::int64_t begin = offsets_[static_cast<std::size_t>(v)];
    const std::int64_t end = offsets_[static_cast<std::size_t>(v) + 1];
    return neighbors_.subspan(static_cast<std::size_t>(begin),
                              static_cast<std::size_t>(end - begin));
  }

  Structure structure_ = Structure::explicit_csr;
  int n_ = 0;
  int half_ = 0;
  int ex_a_ = -1;
  int ex_b_ = -1;
  std::span<const std::int64_t> offsets_;
  std::span<const int> neighbors_;
};

}  // namespace dualcast
