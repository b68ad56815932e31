// LayerView and the implicit DualGraph representations: every implicit
// variant must answer degree / neighbors / has_edge / edge-index queries
// exactly as the explicit construction it replaces.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/layer_view.hpp"
#include "test_support.hpp"
#include "util/rng.hpp"

namespace dualcast {
namespace {

std::vector<int> neighbors_of(const LayerView& view, int v) {
  std::vector<int> out;
  view.for_each_neighbor(v, [&](int u) { out.push_back(u); });
  return out;
}

/// Asserts `view` describes exactly the same layer as the explicit `ref`.
void expect_layer_equals(const LayerView& view, const LayerView& ref) {
  ASSERT_EQ(view.n(), ref.n());
  for (int v = 0; v < view.n(); ++v) {
    EXPECT_EQ(view.degree(v), ref.degree(v)) << "v=" << v;
    EXPECT_EQ(neighbors_of(view, v), neighbors_of(ref, v)) << "v=" << v;
    for (int u = 0; u < view.n(); ++u) {
      EXPECT_EQ(view.has_edge(v, u), ref.has_edge(v, u))
          << "v=" << v << " u=" << u;
    }
  }
}

TEST(LayerView, CompleteMatchesExplicitKn) {
  const Graph kn = complete_graph(11);
  expect_layer_equals(
      LayerView::complete(11),
      LayerView::explicit_csr(11, kn.csr_offsets(), kn.csr_neighbors()));
}

TEST(LayerView, DualCliquesMatchesExplicitConstruction) {
  // Two cliques on [0,5) / [5,10) plus the bridge (2, 7).
  const Graph g = testing::two_cliques_graph(10, 2);
  expect_layer_equals(
      LayerView::dual_cliques(10, 5, 2, 7),
      LayerView::explicit_csr(10, g.csr_offsets(), g.csr_neighbors()));
}

TEST(LayerView, CompleteBipartiteWithHoleMatchesExplicit) {
  // A x B cross edges minus the hole (1, 6).
  Graph g(9);
  for (int a = 0; a < 4; ++a) {
    for (int b = 4; b < 9; ++b) {
      if (!(a == 1 && b == 6)) g.add_edge(a, b);
    }
  }
  g.finalize();
  expect_layer_equals(
      LayerView::complete_bipartite(9, 4, 1, 6),
      LayerView::explicit_csr(9, g.csr_offsets(), g.csr_neighbors()));
}

TEST(LayerView, ComplementOfSparseMatchesExplicitComplement) {
  Rng rng(99);
  Graph sparse(13);
  for (int e = 0; e < 15; ++e) {
    const int u = static_cast<int>(rng.uniform_int(0, 12));
    const int v = static_cast<int>(rng.uniform_int(0, 12));
    if (u != v) sparse.add_edge(u, v);
  }
  sparse.finalize();
  Graph complement(13);
  for (int u = 0; u < 13; ++u) {
    for (int v = u + 1; v < 13; ++v) {
      if (!sparse.has_edge(u, v)) complement.add_edge(u, v);
    }
  }
  complement.finalize();
  expect_layer_equals(
      LayerView::complement_of_sparse(13, sparse.csr_offsets(),
                                      sparse.csr_neighbors()),
      LayerView::explicit_csr(13, complement.csr_offsets(),
                              complement.csr_neighbors()));
}

// ---------------------------------------------------------------------------
// Implicit DualGraph representations vs the explicit construction.
// ---------------------------------------------------------------------------

void expect_dual_graphs_equal(const DualGraph& a, const DualGraph& b) {
  ASSERT_EQ(a.n(), b.n());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  EXPECT_EQ(a.gprime_complete(), b.gprime_complete());
  EXPECT_EQ(a.g_connected(), b.g_connected());
  ASSERT_EQ(a.gp_only_edge_count(), b.gp_only_edge_count());
  for (std::int64_t e = 0; e < a.gp_only_edge_count(); ++e) {
    EXPECT_EQ(a.gp_only_edge(e), b.gp_only_edge(e)) << "edge " << e;
  }
  expect_layer_equals(a.g_layer(), b.g_layer());
  expect_layer_equals(a.gprime_layer(), b.gprime_layer());
  expect_layer_equals(a.gp_only_layer(), b.gp_only_layer());
}

TEST(ImplicitDualGraph, DualCliqueMatchesExplicitEdgeForEdge) {
  for (const int bridge_index : {0, 3}) {
    const DualGraph expl(testing::two_cliques_graph(16, bridge_index),
                         complete_graph(16));
    const DualGraph impl = DualGraph::implicit_dual_clique(16, bridge_index);
    EXPECT_FALSE(expl.is_implicit());
    EXPECT_TRUE(impl.is_implicit());
    expect_dual_graphs_equal(impl, expl);
  }
}

TEST(ImplicitDualGraph, BridgelessDualCliqueMatchesExplicit) {
  const DualGraph expl(testing::two_cliques_graph(12, -1), complete_graph(12));
  const DualGraph impl =
      DualGraph::implicit_dual_clique(12, 0, /*with_bridge=*/false);
  expect_dual_graphs_equal(impl, expl);
  EXPECT_FALSE(impl.g_connected());
}

TEST(ImplicitDualGraph, ProtocolDualCliqueMatchesExplicitProtocolModel) {
  // (n, bridge index): the bridge at a side's first, middle and last node.
  for (const auto& [n, b] : {std::pair{4, 0}, std::pair{12, 3},
                             std::pair{16, 7}, std::pair{24, 0}}) {
    const DualGraph impl = DualGraph::protocol_dual_clique(n, b);
    EXPECT_TRUE(impl.is_implicit());
    EXPECT_EQ(impl.structure(), DualGraph::Structure::dual_clique);
    EXPECT_FALSE(impl.gprime_complete());
    EXPECT_EQ(impl.max_degree(), n / 2);
    expect_dual_graphs_equal(
        impl, DualGraph::protocol(testing::two_cliques_graph(n, b)));
  }
}

TEST(ImplicitDualGraph, CompleteGprimeMatchesExplicit) {
  Rng rng(5);
  Graph g(14);
  for (int v = 0; v + 1 < 14; ++v) g.add_edge(v, v + 1);
  for (int e = 0; e < 8; ++e) {
    const int u = static_cast<int>(rng.uniform_int(0, 13));
    const int v = static_cast<int>(rng.uniform_int(0, 13));
    if (u != v) g.add_edge(u, v);
  }
  g.finalize();
  Graph g_copy = g;
  const DualGraph expl(std::move(g_copy), complete_graph(14));
  const DualGraph impl = with_complete_gprime(std::move(g));
  EXPECT_TRUE(impl.is_implicit());
  EXPECT_EQ(impl.structure(), DualGraph::Structure::gprime_complete);
  expect_dual_graphs_equal(impl, expl);
}

}  // namespace
}  // namespace dualcast
