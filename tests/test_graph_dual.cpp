#include "graph/dual_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "graph/generators.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

TEST(DualGraph, RequiresContainment) {
  Graph g(3);
  g.add_edge(0, 1);
  g.finalize();
  Graph gp(3);
  gp.add_edge(0, 2);  // missing (0,1)!
  gp.finalize();
  EXPECT_THROW(DualGraph(g, gp), ContractViolation);
}

TEST(DualGraph, RequiresSameVertexCount) {
  Graph g(3);
  g.finalize();
  Graph gp(4);
  gp.finalize();
  EXPECT_THROW(DualGraph(g, gp), ContractViolation);
}

TEST(DualGraph, GPrimeOnlyEdgesIndexed) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.add_edge(1, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  ASSERT_EQ(net.gp_only_edges().size(), 2u);
  for (const auto& [u, v] : net.gp_only_edges()) {
    EXPECT_TRUE(net.gprime().has_edge(u, v));
    EXPECT_FALSE(net.g().has_edge(u, v));
    EXPECT_LT(u, v);
  }
}

TEST(DualGraph, GPrimeOnlyNeighbors) {
  Graph g(4);
  g.add_edge(0, 1);
  g.finalize();
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.add_edge(0, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  const auto nb = net.gp_only_neighbors(0);
  EXPECT_EQ(nb.size(), 2u);
  EXPECT_TRUE(net.gp_only_neighbors(1).empty());
}

TEST(DualGraph, ProtocolModelHasNoUnreliableEdges) {
  const DualGraph net = DualGraph::protocol(ring_graph(10));
  EXPECT_TRUE(net.gp_only_edges().empty());
  EXPECT_EQ(net.g().edge_count(), net.gprime().edge_count());
  EXPECT_EQ(net.max_degree(), 2);
}

TEST(DualGraph, CompleteFlagDetection) {
  const DualGraph complete = DualGraph::protocol(complete_graph(6));
  EXPECT_TRUE(complete.gprime_complete());
  EXPECT_EQ(complete.structure(), DualGraph::Structure::gprime_complete);
  const DualGraph ring = DualGraph::protocol(ring_graph(6));
  EXPECT_FALSE(ring.gprime_complete());
  EXPECT_EQ(ring.structure(), DualGraph::Structure::general);
}

TEST(DualGraph, OverlayCsrViewsMatchPerVertexQueries) {
  Graph g = ring_graph(8);
  Graph gp = ring_graph(8);
  gp.add_edge(0, 4);
  gp.add_edge(1, 5);
  gp.add_edge(1, 3);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  const auto offsets = net.gp_only_csr_offsets();
  const auto flat = net.gp_only_csr_neighbors();
  ASSERT_EQ(offsets.size(), static_cast<std::size_t>(net.n()) + 1);
  EXPECT_EQ(offsets.front(), 0);
  EXPECT_EQ(offsets.back(), static_cast<std::int64_t>(flat.size()));
  EXPECT_EQ(flat.size(), 2 * net.gp_only_edges().size());
  for (int v = 0; v < net.n(); ++v) {
    const auto nb = net.gp_only_neighbors(v);
    ASSERT_EQ(static_cast<std::int64_t>(nb.size()),
              offsets[static_cast<std::size_t>(v) + 1] -
                  offsets[static_cast<std::size_t>(v)]);
    EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
    for (std::size_t i = 0; i < nb.size(); ++i) {
      EXPECT_EQ(nb[i],
                flat[static_cast<std::size_t>(
                    offsets[static_cast<std::size_t>(v)]) + i]);
    }
  }
}

TEST(DualGraph, MaxDegreeIsGPrimeDegree) {
  Graph g(5);
  g.add_edge(0, 1);
  g.finalize();
  Graph gp = g;
  gp.add_edge(0, 2);
  gp.add_edge(0, 3);
  gp.add_edge(0, 4);
  gp.finalize();
  const DualGraph net(std::move(g), std::move(gp));
  EXPECT_EQ(net.max_degree(), 4);
  EXPECT_EQ(net.g().max_degree(), 1);
}

}  // namespace
}  // namespace dualcast
