#include "graph/generators.hpp"

#include <cmath>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dualcast {

Graph line_graph(int n) {
  DC_EXPECTS(n >= 1);
  Graph g(n);
  for (int v = 0; v + 1 < n; ++v) g.add_edge(v, v + 1);
  g.finalize();
  return g;
}

Graph ring_graph(int n) {
  DC_EXPECTS(n >= 3);
  Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  g.finalize();
  return g;
}

Graph grid_graph(int rows, int cols) {
  DC_EXPECTS(rows >= 1 && cols >= 1);
  Graph g(rows * cols);
  const auto id = [cols](int r, int c) { return r * cols + c; };
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (c + 1 < cols) g.add_edge(id(r, c), id(r, c + 1));
      if (r + 1 < rows) g.add_edge(id(r, c), id(r + 1, c));
    }
  }
  g.finalize();
  return g;
}

Graph star_graph(int n) {
  DC_EXPECTS(n >= 2);
  Graph g(n);
  for (int v = 1; v < n; ++v) g.add_edge(0, v);
  g.finalize();
  return g;
}

Graph complete_graph(int n) {
  DC_EXPECTS(n >= 1);
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.finalize();
  return g;
}

Graph random_tree(int n, Rng& rng) {
  DC_EXPECTS(n >= 1);
  Graph g(n);
  for (int v = 1; v < n; ++v) {
    g.add_edge(v, static_cast<int>(rng.uniform_int(0, v - 1)));
  }
  g.finalize();
  return g;
}

namespace {

DualCliqueNet make_dual_clique(int n, int bridge_index, bool with_bridge) {
  DualCliqueNet out;
  out.net = DualGraph::implicit_dual_clique(n, bridge_index, with_bridge);
  const int half = n / 2;
  out.bridge_a = bridge_index;
  out.bridge_b = half + bridge_index;
  out.side_a.reserve(static_cast<std::size_t>(half));
  out.side_b.reserve(static_cast<std::size_t>(half));
  for (int v = 0; v < half; ++v) {
    out.side_a.push_back(v);
    out.side_b.push_back(half + v);
  }
  return out;
}

}  // namespace

DualCliqueNet dual_clique(int n, int bridge_index) {
  return make_dual_clique(n, bridge_index, /*with_bridge=*/true);
}

DualCliqueNet dual_clique_without_bridge(int n) {
  return make_dual_clique(n, /*bridge_index=*/0, /*with_bridge=*/false);
}

BraceletNet bracelet(int n_target, int clasp_index) {
  DC_EXPECTS_MSG(n_target >= 8, "bracelet needs n_target >= 8 (k >= 2)");
  const int k = static_cast<int>(std::sqrt(static_cast<double>(n_target) / 2.0));
  DC_EXPECTS(k >= 2);
  DC_EXPECTS(clasp_index >= 0 && clasp_index < k);
  const int n = 2 * k * k;

  // Node layout: band i (0 <= i < 2k) occupies ids [i*k, (i+1)*k); position 0
  // is the head. Bands 0..k-1 are side A; bands k..2k-1 are side B.
  BraceletNet out;
  out.band_len = k;
  const auto node = [k](int band, int pos) { return band * k + pos; };

  Graph g(n);
  out.bands.resize(static_cast<std::size_t>(2 * k));
  for (int band = 0; band < 2 * k; ++band) {
    auto& members = out.bands[static_cast<std::size_t>(band)];
    members.reserve(static_cast<std::size_t>(k));
    for (int pos = 0; pos < k; ++pos) {
      members.push_back(node(band, pos));
      if (pos + 1 < k) g.add_edge(node(band, pos), node(band, pos + 1));
    }
    if (band < k) {
      out.heads_a.push_back(node(band, 0));
    } else {
      out.heads_b.push_back(node(band, 0));
    }
  }
  // Far endpoints joined into a clique (keeps G connected, per §4.2).
  for (int i = 0; i < 2 * k; ++i) {
    for (int j = i + 1; j < 2 * k; ++j) {
      g.add_edge(node(i, k - 1), node(j, k - 1));
    }
  }
  // The clasp: one reliable edge between matching heads.
  out.clasp_a = out.heads_a[static_cast<std::size_t>(clasp_index)];
  out.clasp_b = out.heads_b[static_cast<std::size_t>(clasp_index)];
  g.add_edge(out.clasp_a, out.clasp_b);
  g.finalize();

  // G' = G plus every cross pair of heads (a_i, b_j).
  Graph gp = g;
  for (const int a : out.heads_a) {
    for (const int b : out.heads_b) {
      if (!(a == out.clasp_a && b == out.clasp_b)) gp.add_edge(a, b);
    }
  }
  gp.finalize();

  out.net = DualGraph(std::move(g), std::move(gp));
  return out;
}

namespace {

GeoNet geo_from_points(std::vector<Point2D> points, double r) {
  const int n = static_cast<int>(points.size());
  Graph g(n);
  Graph gp(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const double d = distance(points[static_cast<std::size_t>(u)],
                                points[static_cast<std::size_t>(v)]);
      if (d <= 1.0) {
        g.add_edge(u, v);
        gp.add_edge(u, v);
      } else if (d <= r) {
        gp.add_edge(u, v);
      }
    }
  }
  g.finalize();
  gp.finalize();
  return GeoNet{DualGraph(std::move(g), std::move(gp)), std::move(points), r};
}

}  // namespace

GeoNet random_geometric(const GeoParams& params, Rng& rng) {
  DC_EXPECTS(params.n >= 1);
  DC_EXPECTS(params.side > 0.0);
  DC_EXPECTS(params.r >= 1.0);
  for (int attempt = 0; attempt < params.max_attempts; ++attempt) {
    std::vector<Point2D> points(static_cast<std::size_t>(params.n));
    for (auto& p : points) {
      p.x = rng.uniform01() * params.side;
      p.y = rng.uniform01() * params.side;
    }
    GeoNet net = geo_from_points(std::move(points), params.r);
    if (net.net.g().is_connected()) return net;
  }
  DC_EXPECTS_MSG(false,
                 "random_geometric: could not sample a connected G layer; "
                 "increase density (smaller side or larger n)");
  __builtin_unreachable();
}

GeoNet jittered_grid_geo(int rows, int cols, double spacing, double jitter,
                         double r, Rng& rng) {
  DC_EXPECTS(rows >= 1 && cols >= 1);
  DC_EXPECTS(spacing > 0.0 && spacing < 1.0);
  DC_EXPECTS(jitter >= 0.0 && jitter < (1.0 - spacing) / 2.0);
  DC_EXPECTS(r >= 1.0);
  std::vector<Point2D> points;
  points.reserve(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols));
  for (int row = 0; row < rows; ++row) {
    for (int col = 0; col < cols; ++col) {
      const double jx = (rng.uniform01() * 2.0 - 1.0) * jitter;
      const double jy = (rng.uniform01() * 2.0 - 1.0) * jitter;
      points.push_back(Point2D{col * spacing + jx, row * spacing + jy});
    }
  }
  GeoNet net = geo_from_points(std::move(points), r);
  // Adjacent grid points sit within spacing + 2*jitter < 1, so G contains the
  // grid and is connected by construction.
  DC_ENSURES(net.net.g().is_connected());
  return net;
}

DualGraph with_complete_gprime(Graph g) {
  return DualGraph::implicit_complete_gprime(std::move(g));
}

DualGraph with_random_gprime(const Graph& g, double p_extra, Rng& rng) {
  DC_EXPECTS(g.finalized());
  DC_EXPECTS(p_extra >= 0.0 && p_extra <= 1.0);
  Graph gp = g;
  for (int u = 0; u < g.n(); ++u) {
    for (int v = u + 1; v < g.n(); ++v) {
      if (!g.has_edge(u, v) && rng.bernoulli(p_extra)) gp.add_edge(u, v);
    }
  }
  gp.finalize();
  Graph gcopy = g;
  return DualGraph(std::move(gcopy), std::move(gp));
}

}  // namespace dualcast
