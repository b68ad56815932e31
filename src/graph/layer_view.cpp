#include "graph/layer_view.hpp"

#include <algorithm>

namespace dualcast {

namespace {

bool sorted_row_contains(std::span<const int> row, int u) {
  return std::binary_search(row.begin(), row.end(), u);
}

}  // namespace

int LayerView::degree(int v) const {
  DC_EXPECTS(v >= 0 && v < n_);
  switch (structure_) {
    case Structure::explicit_csr:
      return static_cast<int>(explicit_row(v).size());
    case Structure::complete:
      return n_ - 1;
    case Structure::dual_cliques:
      return (v < half_ ? half_ : n_ - half_) - 1 +
             ((v == ex_a_ || v == ex_b_) ? 1 : 0);
    case Structure::complete_bipartite:
      return (v < half_ ? n_ - half_ : half_) -
             ((v == ex_a_ || v == ex_b_) ? 1 : 0);
    case Structure::complement_of_sparse:
      return n_ - 1 - static_cast<int>(explicit_row(v).size());
  }
  return 0;
}

bool LayerView::has_edge(int u, int v) const {
  DC_EXPECTS(u >= 0 && u < n_ && v >= 0 && v < n_);
  if (u == v) return false;
  const bool is_exception = ex_a_ >= 0 && ((u == ex_a_ && v == ex_b_) ||
                                           (u == ex_b_ && v == ex_a_));
  switch (structure_) {
    case Structure::explicit_csr:
      return sorted_row_contains(explicit_row(u), v);
    case Structure::complete:
      return true;
    case Structure::dual_cliques:
      return (u < half_) == (v < half_) || is_exception;
    case Structure::complete_bipartite:
      return (u < half_) != (v < half_) && !is_exception;
    case Structure::complement_of_sparse:
      return !sorted_row_contains(explicit_row(u), v);
  }
  return false;
}

}  // namespace dualcast
