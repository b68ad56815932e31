// Structural tests for the paper's two lower-bound networks: the §3 dual
// clique and the §4.2 bracelet.

#include <gtest/gtest.h>

#include <set>

#include "graph/generators.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"

namespace dualcast {
namespace {

class DualCliqueParam : public ::testing::TestWithParam<int> {};

TEST_P(DualCliqueParam, Structure) {
  const int n = GetParam();
  const DualCliqueNet dc = dual_clique(n);
  EXPECT_TRUE(dc.net.is_implicit());
  EXPECT_EQ(dc.net.n(), n);
  EXPECT_EQ(static_cast<int>(dc.side_a.size()), n / 2);
  EXPECT_EQ(static_cast<int>(dc.side_b.size()), n / 2);

  // G: two cliques plus one bridge.
  const std::int64_t half = n / 2;
  const LayerView g = dc.net.g_layer();
  std::int64_t degree_sum = 0;
  for (int v = 0; v < n; ++v) degree_sum += g.degree(v);
  EXPECT_EQ(degree_sum, 2 * (half * (half - 1) + 1));
  EXPECT_TRUE(g.has_edge(dc.bridge_a, dc.bridge_b));
  EXPECT_TRUE(dc.net.g_connected());

  // G' complete (so the fast path applies).
  EXPECT_TRUE(dc.net.gprime_complete());

  // Constant diameter: at most 3 (across the bridge), on the explicit
  // reference layer (test_graph_layer_view pins it edge for edge).
  EXPECT_LE(testing::two_cliques_graph(n, 0).diameter(), 3);
}

TEST_P(DualCliqueParam, SidesAreCliquesAndOnlyBridgeCrosses) {
  const int n = GetParam();
  const DualCliqueNet dc = dual_clique(n, /*bridge_index=*/1);
  const LayerView g = dc.net.g_layer();
  for (std::size_t i = 0; i < dc.side_a.size(); ++i) {
    for (std::size_t j = i + 1; j < dc.side_a.size(); ++j) {
      EXPECT_TRUE(g.has_edge(dc.side_a[i], dc.side_a[j]));
      EXPECT_TRUE(g.has_edge(dc.side_b[i], dc.side_b[j]));
    }
  }
  int cross_edges = 0;
  for (const int a : dc.side_a) {
    for (const int b : dc.side_b) {
      if (g.has_edge(a, b)) {
        ++cross_edges;
        EXPECT_EQ(a, dc.bridge_a);
        EXPECT_EQ(b, dc.bridge_b);
      }
    }
  }
  EXPECT_EQ(cross_edges, 1);
}

INSTANTIATE_TEST_SUITE_P(Sizes, DualCliqueParam,
                         ::testing::Values(4, 8, 16, 64, 128));

TEST(DualClique, BridgeIndexSelectsEndpoints) {
  const DualCliqueNet dc = dual_clique(16, 5);
  EXPECT_EQ(dc.bridge_a, 5);
  EXPECT_EQ(dc.bridge_b, 8 + 5);
}

TEST(DualClique, RejectsBadSizes) {
  EXPECT_THROW(dual_clique(3), ContractViolation);
  EXPECT_THROW(dual_clique(7), ContractViolation);
  EXPECT_THROW(dual_clique(8, 4), ContractViolation);  // index out of side
}

TEST(DualClique, WithoutBridgeIsDisconnectedButGPrimeComplete) {
  const DualCliqueNet dc = dual_clique_without_bridge(12);
  EXPECT_TRUE(dc.net.is_implicit());
  EXPECT_FALSE(dc.net.g_connected());
  EXPECT_TRUE(dc.net.gprime_complete());
  EXPECT_FALSE(dc.net.g_layer().has_edge(dc.bridge_a, dc.bridge_b));
}

class BraceletParam : public ::testing::TestWithParam<int> {};

TEST_P(BraceletParam, Structure) {
  const int n_target = GetParam();
  const BraceletNet br = bracelet(n_target);
  const int k = br.band_len;
  EXPECT_GE(k, 2);
  EXPECT_EQ(br.net.n(), 2 * k * k);
  EXPECT_LE(br.net.n(), n_target);
  ASSERT_EQ(static_cast<int>(br.heads_a.size()), k);
  ASSERT_EQ(static_cast<int>(br.heads_b.size()), k);
  ASSERT_EQ(static_cast<int>(br.bands.size()), 2 * k);
  EXPECT_TRUE(br.net.g().is_connected());
}

TEST_P(BraceletParam, BandsAreReliablePaths) {
  const BraceletNet br = bracelet(GetParam());
  const int k = br.band_len;
  for (const auto& band : br.bands) {
    ASSERT_EQ(static_cast<int>(band.size()), k);
    for (int pos = 0; pos + 1 < k; ++pos) {
      EXPECT_TRUE(br.net.g().has_edge(band[static_cast<std::size_t>(pos)],
                                      band[static_cast<std::size_t>(pos + 1)]));
    }
  }
}

TEST_P(BraceletParam, GPrimeOnlyEdgesAreExactlyCrossHeadPairs) {
  const BraceletNet br = bracelet(GetParam());
  std::set<std::pair<int, int>> expected;
  for (const int a : br.heads_a) {
    for (const int b : br.heads_b) {
      if (a == br.clasp_a && b == br.clasp_b) continue;  // clasp is in G
      expected.insert({std::min(a, b), std::max(a, b)});
    }
  }
  std::set<std::pair<int, int>> actual(br.net.gp_only_edges().begin(),
                                       br.net.gp_only_edges().end());
  EXPECT_EQ(actual, expected);
}

TEST_P(BraceletParam, ClaspConnectsMatchingHeads) {
  const BraceletNet br = bracelet(GetParam(), /*clasp_index=*/1);
  EXPECT_TRUE(br.net.g().has_edge(br.clasp_a, br.clasp_b));
  EXPECT_EQ(br.clasp_a, br.heads_a[1]);
  EXPECT_EQ(br.clasp_b, br.heads_b[1]);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BraceletParam,
                         ::testing::Values(8, 32, 100, 512, 2048));

TEST(Bracelet, FarEndpointsFormClique) {
  const BraceletNet br = bracelet(72);  // k = 6
  const int k = br.band_len;
  for (std::size_t i = 0; i < br.bands.size(); ++i) {
    for (std::size_t j = i + 1; j < br.bands.size(); ++j) {
      EXPECT_TRUE(br.net.g().has_edge(
          br.bands[i][static_cast<std::size_t>(k - 1)],
          br.bands[j][static_cast<std::size_t>(k - 1)]));
    }
  }
}

TEST(Bracelet, DiameterIsOrderBandLength) {
  const BraceletNet br = bracelet(128);  // k = 8
  const int diam = br.net.g().diameter();
  EXPECT_GE(diam, br.band_len);
  EXPECT_LE(diam, 2 * br.band_len + 2);
}

TEST(Bracelet, RejectsTooSmall) {
  EXPECT_THROW(bracelet(4), ContractViolation);
}

}  // namespace
}  // namespace dualcast
