// DeliveryResolver: the LayerView sweep must agree with a
// from-first-principles reference on random graphs, random transmit sets,
// every edge kind, with and without collision detection; so must the
// structured path on dual cliques.

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "graph/generators.hpp"
#include "sim/delivery_resolver.hpp"
#include "test_support.hpp"
#include "util/assert.hpp"
#include "util/rng.hpp"

namespace dualcast {
namespace {

struct Resolved {
  /// (receiver, sender, transmitter_index), sorted: the strategies and the
  /// reference emit deliveries in different orders (transmitter-major,
  /// side-major, receiver-major); the *set* must match.
  std::vector<std::tuple<int, int, int>> deliveries;
  std::vector<int> colliders;
};

void canonicalize(Resolved& r) {
  std::sort(r.deliveries.begin(), r.deliveries.end());
  std::sort(r.colliders.begin(), r.colliders.end());
}

/// One resolved round as the resolver leaves it: the record's runs and
/// explicit deliveries, and the colliders in emission order.
struct Round {
  RoundRecord record;
  std::vector<int> colliders;
};

/// On the structured path `transmitters` must be ascending, as the
/// engine's are.
Round resolve_round(DeliveryResolver::Path path, const DualGraph& net,
                    const std::vector<int>& transmitters,
                    const EdgeSet& edges, bool collision_detection) {
  DeliveryResolver resolver;
  resolver.reset(&net, collision_detection);
  resolver.force_path(path);
  Round out;
  out.record.transmitters = transmitters;
  std::vector<int> tx_index_of(static_cast<std::size_t>(net.n()), -1);
  for (std::size_t i = 0; i < transmitters.size(); ++i) {
    tx_index_of[static_cast<std::size_t>(transmitters[i])] =
        static_cast<int>(i);
  }
  resolver.resolve(tx_index_of, edges, out.record);
  out.colliders = resolver.colliders();
  return out;
}

Resolved resolve_with(DeliveryResolver::Path path, const DualGraph& net,
                      const std::vector<int>& transmitters,
                      const EdgeSet& edges, bool collision_detection) {
  const Round round =
      resolve_round(path, net, transmitters, edges, collision_detection);
  Resolved out;
  for_each_delivery(round.record, [&](const Delivery& d) {
    out.deliveries.emplace_back(d.receiver, d.sender, d.transmitter_index);
  });
  out.colliders = round.colliders;
  canonicalize(out);
  return out;
}

/// First-principles §2 receive rule: u receives from v iff u listens, v
/// transmits, {u,v} is in G or an activated G'-only edge, and v is u's only
/// such transmitting neighbor.
Resolved resolve_reference(const DualGraph& net,
                           const std::vector<int>& transmitters,
                           const EdgeSet& edges, bool collision_detection) {
  // The round's topology as an n × n matrix: G (all of G' under Kind::all)
  // plus the mask's edges, decoded one index at a time.
  const std::size_t n = static_cast<std::size_t>(net.n());
  std::vector<char> linked(n * n, 0);
  const auto link = [&](int u, int v) {
    linked[static_cast<std::size_t>(u) * n + static_cast<std::size_t>(v)] = 1;
    linked[static_cast<std::size_t>(v) * n + static_cast<std::size_t>(u)] = 1;
  };
  const LayerView layer = edges.kind == EdgeSet::Kind::all
                              ? net.gprime_layer()
                              : net.g_layer();
  for (int u = 0; u < net.n(); ++u) {
    layer.for_each_neighbor(u, [&](int v) { link(u, v); });
  }
  if (edges.kind == EdgeSet::Kind::mask) {
    for_each_mask_bit(edges.mask, [&](std::int64_t idx) {
      const auto [a, b] = net.gp_only_edge(idx);
      link(a, b);
    });
  }
  const auto edge_active = [&](int u, int v) {
    return linked[static_cast<std::size_t>(u) * n +
                  static_cast<std::size_t>(v)] != 0;
  };
  std::vector<char> is_tx(n, 0);
  for (const int v : transmitters) is_tx[static_cast<std::size_t>(v)] = 1;
  Resolved out;
  for (int u = 0; u < net.n(); ++u) {
    if (is_tx[static_cast<std::size_t>(u)]) continue;
    int count = 0;
    int sender = -1;
    for (std::size_t i = 0; i < transmitters.size(); ++i) {
      if (edge_active(u, transmitters[i])) {
        ++count;
        sender = transmitters[i];
      }
    }
    if (count == 1) {
      const auto it =
          std::find(transmitters.begin(), transmitters.end(), sender);
      out.deliveries.emplace_back(
          u, sender, static_cast<int>(it - transmitters.begin()));
    } else if (count >= 2 && collision_detection) {
      out.colliders.push_back(u);
    }
  }
  canonicalize(out);
  return out;
}

DualGraph random_dual(int n, double p_g, double p_extra, Rng& rng) {
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p_g)) g.add_edge(u, v);
    }
  }
  g.finalize();
  Graph gp = g;
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (!g.has_edge(u, v) && rng.bernoulli(p_extra)) gp.add_edge(u, v);
    }
  }
  gp.finalize();
  return DualGraph(std::move(g), std::move(gp));
}

TEST(DeliveryResolverDifferential, SweepMatchesReference) {
  Rng rng(2024);
  int rounds_checked = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const int n = 8 + static_cast<int>(rng.uniform_int(0, 56));
    const DualGraph net =
        random_dual(n, 0.05 + 0.4 * rng.uniform01(),
                    0.05 + 0.4 * rng.uniform01(), rng);
    const std::int64_t m_extra =
        static_cast<std::int64_t>(net.gp_only_edges().size());
    for (int round = 0; round < 8; ++round) {
      // Random transmit set, dense and sparse alike.
      const double p_tx = rng.uniform01();
      std::vector<int> transmitters;
      for (int v = 0; v < n; ++v) {
        if (rng.bernoulli(p_tx)) transmitters.push_back(v);
      }
      // Random edge kind.
      EdgeSet edges;
      const int kind = static_cast<int>(rng.uniform_int(0, 2));
      if (kind == 1) {
        edges = EdgeSet::all();
      } else if (kind == 2 && m_extra > 0) {
        std::vector<std::int32_t> idx;
        for (std::int64_t e = 0; e < m_extra; ++e) {
          if (rng.bernoulli(0.4)) idx.push_back(static_cast<std::int32_t>(e));
        }
        edges = EdgeSet::some(std::move(idx));
      }
      for (const bool collision : {false, true}) {
        const Resolved reference =
            resolve_reference(net, transmitters, edges, collision);
        const Resolved sweep = resolve_with(DeliveryResolver::Path::sweep,
                                            net, transmitters, edges,
                                            collision);
        ASSERT_EQ(sweep.deliveries, reference.deliveries)
            << "sweep vs reference, n=" << n << " trial=" << trial;
        ASSERT_EQ(sweep.colliders, reference.colliders);
        ++rounds_checked;
      }
    }
  }
  EXPECT_GE(rounds_checked, 600);
}

// An explicit network resolves on the sweep even on a dense round: every
// other node transmitting over a half-dense G.
TEST(DeliveryResolverHeuristic, AutoResolvesDenseRoundsOnSweep) {
  Rng rng(7);
  const DualGraph net = random_dual(256, 0.5, 0.2, rng);
  DeliveryResolver resolver;
  resolver.reset(&net, false);

  std::vector<int> tx_index_of(256, -1);
  RoundRecord record;
  for (int v = 0; v < 256; v += 2) {
    tx_index_of[static_cast<std::size_t>(v)] =
        static_cast<int>(record.transmitters.size());
    record.transmitters.push_back(v);
  }
  resolver.resolve(tx_index_of, EdgeSet::none(), record);
  EXPECT_EQ(resolver.last_path(), DeliveryResolver::Path::sweep);
}

// The structured path serves every dual clique, and every dual clique is
// implicit: its mask application computes edge indices — a word-wise walk
// per transmitter, or a row-by-row decode of the set bits — instead of
// reading an overlay. It must agree with the first-principles reference
// computed on an explicit twin (two cliques + bridge under K_n, untagged,
// so it resolves on the sweep). Rows span and straddle mask words,
// the bridge sits at a row's start, middle or end (or is absent), and
// rounds have a few transmitters (the walk, for heavy masks) or most nodes
// transmitting (the row decode). A side with two or more transmitters
// collides whatever the mask adds, so the structured path applies only the
// mask edges into a side that can still hear; the fourth shape, one side
// dense and the other silent or a single transmitter, is the round in
// which exactly one side's edges decide, and it reaches both the walk and
// the decode. The first two shapes may list a side's pair out of order:
// the sweep resolves any order, while the structured path, whose runs are
// merged against the ascending transmitters, must reject it.
TEST(DeliveryResolverDifferential, StructuredMatchesSweepAndReference) {
  Rng rng(4242);
  int rounds_checked = 0;
  int unsorted_rounds = 0;
  int one_side_walks = 0;
  int one_side_decodes = 0;
  for (const int n : {8, 12, 24, 136, 200}) {
    const int h = n / 2;
    for (const int bridge_index : {0, n / 4, h - 1, -1}) {
      const DualGraph explicit_net(
          testing::two_cliques_graph(n, bridge_index), complete_graph(n));
      const DualGraph implicit_net = DualGraph::implicit_dual_clique(
          n, std::max(bridge_index, 0), bridge_index >= 0);
      ASSERT_NE(explicit_net.structure(), DualGraph::Structure::dual_clique);
      ASSERT_EQ(implicit_net.structure(), DualGraph::Structure::dual_clique);
      const std::int64_t m_extra = implicit_net.gp_only_edge_count();
      ASSERT_EQ(explicit_net.gp_only_edge_count(), m_extra);
      for (int round = 0; round < 32; ++round) {
        // Four shapes: one side silent (its listeners hear only the bridge
        // and the mask), one or two transmitters on each side, most nodes
        // transmitting, or one side dense and the other silent or a single
        // transmitter. A sparse side leads with its bridge endpoint half
        // the time.
        std::vector<int> transmitters;
        const int shape = round % 4;
        const bool a_first = (round / 16) % 2 == 0;
        if (shape < 2) {
          for (const int lo : {0, h}) {
            if (shape == 0 && (lo == 0) == a_first) continue;
            const int first = bridge_index >= 0 && rng.bernoulli(0.5)
                                  ? lo + bridge_index
                                  : lo + static_cast<int>(
                                             rng.uniform_int(0, h - 1));
            const int second =
                lo + static_cast<int>(rng.uniform_int(0, h - 1));
            transmitters.push_back(first);
            if (second != first && rng.bernoulli(0.5)) {
              transmitters.push_back(second);
            }
          }
        } else if (shape == 2) {
          const double p_tx = 0.7 + 0.3 * rng.uniform01();
          for (int v = 0; v < n; ++v) {
            if (rng.bernoulli(p_tx)) transmitters.push_back(v);
          }
        } else {
          // The dense side has at least two transmitters, so only its mask
          // edges (into the quiet side) can decide a listener.
          const int dense_lo = a_first ? 0 : h;
          const int quiet_lo = h - dense_lo;
          const double p_tx = 0.2 + 0.8 * rng.uniform01();
          const int forced = static_cast<int>(rng.uniform_int(0, h - 1));
          const int forced2 =
              (forced + 1 + static_cast<int>(rng.uniform_int(0, h - 2))) % h;
          const int single = rng.bernoulli(0.5)
                                 ? quiet_lo + static_cast<int>(
                                                  rng.uniform_int(0, h - 1))
                                 : -1;
          for (int v = 0; v < n; ++v) {
            if ((v < h) == a_first ? v - dense_lo == forced ||
                                         v - dense_lo == forced2 ||
                                         rng.bernoulli(p_tx)
                                   : v == single) {
              transmitters.push_back(v);
            }
          }
        }
        EdgeSet edges;
        const int kind = (round / 4) % 4;
        if (kind == 1) {
          edges = EdgeSet::all();
        } else if (kind >= 2) {
          const double p_edge = 0.02 + 0.96 * rng.uniform01();
          std::vector<std::int32_t> idx;
          for (std::int64_t e = 0; e < m_extra; ++e) {
            if (rng.bernoulli(p_edge)) {
              idx.push_back(static_cast<std::int32_t>(e));
            }
          }
          edges = EdgeSet::some(std::move(idx));
          if (shape == 3) {
            // The resolver walks when the deciding transmitters' G'-only
            // degrees sum below the mask's size, and decodes otherwise.
            const LayerView overlay = implicit_net.gp_only_layer();
            std::int64_t visits = 0;
            for (const int v : transmitters) {
              if ((v < h) == a_first) visits += overlay.degree(v);
            }
            ++(visits < edges.count ? one_side_walks : one_side_decodes);
          }
        }
        const bool ascending =
            std::is_sorted(transmitters.begin(), transmitters.end());
        if (!ascending) ++unsorted_rounds;
        for (const bool collision : {false, true}) {
          const Resolved reference =
              resolve_reference(explicit_net, transmitters, edges, collision);
          const std::pair<DeliveryResolver::Path, const DualGraph*> runs[] = {
              {DeliveryResolver::Path::sweep, &explicit_net},
              {DeliveryResolver::Path::structured, &implicit_net},
              {DeliveryResolver::Path::sweep, &implicit_net},
          };
          for (const auto& [path, net] : runs) {
            if (!ascending && path == DeliveryResolver::Path::structured) {
              EXPECT_THROW(
                  resolve_with(path, *net, transmitters, edges, collision),
                  ContractViolation)
                  << "n=" << n << " bridge=" << bridge_index
                  << " round=" << round;
              continue;
            }
            const Resolved got =
                resolve_with(path, *net, transmitters, edges, collision);
            ASSERT_EQ(got.deliveries, reference.deliveries)
                << "n=" << n << " bridge=" << bridge_index
                << " round=" << round << " path=" << static_cast<int>(path)
                << " implicit=" << net->is_implicit();
            ASSERT_EQ(got.colliders, reference.colliders);
          }
          ++rounds_checked;
        }
      }
    }
  }
  EXPECT_GE(rounds_checked, 1280);
  EXPECT_GT(unsorted_rounds, 0);
  EXPECT_GT(one_side_walks, 0);
  EXPECT_GT(one_side_decodes, 0);
}

// A side that hears one transmitter is one run, and so is K_n when one
// node transmits with every G'-only edge active. Shapes: K_n on the fast
// path; both sides lone in one round; and one lone side beside a dense one,
// whose mask edges and the bridge bump some of the lone side's listeners
// into the run's skips. At n = 130 and 200 the sides straddle 64-node
// words. The runs must expand to the reference's deliveries, ascending
// within a run; the skips must be ascending and inside their run; a run's
// count must be what it expands to; and the skips must appear, in order,
// in one stretch of the colliders.
TEST(DeliveryResolverDifferential, RunsMatchReference) {
  Rng rng(777);
  int kn_runs = 0;
  int both_lone = 0;
  int skipped_runs = 0;
  for (const int n : {8, 130, 200}) {
    const int h = n / 2;
    for (const int bridge_index : {0, h / 2, h - 1, -1}) {
      const DualGraph explicit_net(
          testing::two_cliques_graph(n, bridge_index), complete_graph(n));
      const DualGraph implicit_net = DualGraph::implicit_dual_clique(
          n, std::max(bridge_index, 0), bridge_index >= 0);
      const std::int64_t m_extra = implicit_net.gp_only_edge_count();
      const auto pick = [&](int lo) {
        return bridge_index >= 0 && rng.bernoulli(0.5)
                   ? lo + bridge_index
                   : lo + static_cast<int>(rng.uniform_int(0, h - 1));
      };
      for (int round = 0; round < 24; ++round) {
        std::vector<int> transmitters;
        EdgeSet edges;
        const int shape = round % 3;
        if (shape == 0) {
          transmitters = {static_cast<int>(rng.uniform_int(0, n - 1))};
          edges = EdgeSet::all();
        } else {
          const bool a_lone = rng.bernoulli(0.5);
          const int lone_lo = a_lone ? 0 : h;
          const int other_lo = h - lone_lo;
          transmitters.push_back(pick(lone_lo));
          if (shape == 1) {
            transmitters.push_back(pick(other_lo));
          } else {
            const double p_tx = 0.3 + 0.5 * rng.uniform01();
            for (int v = other_lo; v < other_lo + h; ++v) {
              if (rng.bernoulli(p_tx)) transmitters.push_back(v);
            }
          }
          std::sort(transmitters.begin(), transmitters.end());
          if (rng.bernoulli(0.75)) {
            const double p_edge = 0.01 + 0.1 * rng.uniform01();
            std::vector<std::int32_t> idx;
            for (std::int64_t e = 0; e < m_extra; ++e) {
              if (rng.bernoulli(p_edge)) {
                idx.push_back(static_cast<std::int32_t>(e));
              }
            }
            edges = EdgeSet::some(std::move(idx));
          }
        }
        for (const bool collision : {false, true}) {
          SCOPED_TRACE("n=" + std::to_string(n) + " bridge=" +
                       std::to_string(bridge_index) + " round=" +
                       std::to_string(round) +
                       " collision=" + std::to_string(collision));
          const Resolved reference =
              resolve_reference(explicit_net, transmitters, edges, collision);
          const Round got =
              resolve_round(DeliveryResolver::Path::auto_select, implicit_net,
                            transmitters, edges, collision);
          const RoundRecord& record = got.record;

          // Each run: after the previous one, ascending, its count what it
          // expands to, its skips ascending and inside it.
          int previous_hi = 0;
          std::size_t skip = 0;
          std::int64_t in_runs = 0;
          for (const DeliveryRun& run : record.runs) {
            ASSERT_LE(previous_hi, run.lo);
            previous_hi = run.hi;
            int last = run.lo - 1;
            std::int64_t count = 0;
            for_each_delivery(std::span(&run, 1), record.run_skips,
                              record.transmitters, {},
                              [&](const Delivery& d) {
                                ASSERT_GT(d.receiver, last);
                                ASSERT_LT(d.receiver, run.hi);
                                last = d.receiver;
                                ++count;
                              });
            ASSERT_EQ(count, run.count);
            in_runs += count;
            for (; skip < record.run_skips.size() &&
                   record.run_skips[skip] < run.hi;
                 ++skip) {
              ASSERT_GE(record.run_skips[skip], run.lo);
              ASSERT_TRUE(skip == 0 || record.run_skips[skip - 1] <
                                           record.run_skips[skip]);
            }
          }
          ASSERT_EQ(skip, record.run_skips.size());
          ASSERT_EQ(delivery_count(record),
                    in_runs + static_cast<std::int64_t>(
                                  record.deliveries.size()));
          // With collision detection, the skips are colliders, emitted
          // together and in order.
          if (collision && !record.run_skips.empty()) {
            ASSERT_NE(std::search(got.colliders.begin(), got.colliders.end(),
                                  record.run_skips.begin(),
                                  record.run_skips.end()),
                      got.colliders.end());
          }

          Resolved expanded;
          for_each_delivery(record, [&](const Delivery& d) {
            expanded.deliveries.emplace_back(d.receiver, d.sender,
                                             d.transmitter_index);
          });
          expanded.colliders = got.colliders;
          canonicalize(expanded);
          ASSERT_EQ(expanded.deliveries, reference.deliveries);
          ASSERT_EQ(expanded.colliders, reference.colliders);

          if (shape == 0) kn_runs += record.runs.size() == 1 ? 1 : 0;
          if (record.runs.size() == 2) ++both_lone;
          if (!record.run_skips.empty()) ++skipped_runs;
        }
      }
    }
  }
  EXPECT_GT(kn_runs, 0);
  EXPECT_GT(both_lone, 0);
  EXPECT_GT(skipped_runs, 0);
}

TEST(DeliveryResolverHeuristic, AutoSelectsStructuredOnDualCliques) {
  const DualCliqueNet dc = dual_clique(32, 3);
  DeliveryResolver resolver;
  resolver.reset(&dc.net, false);
  std::vector<int> tx_index_of(32, -1);
  RoundRecord record;
  record.transmitters = {1, 2, 5};
  for (std::size_t i = 0; i < record.transmitters.size(); ++i) {
    tx_index_of[static_cast<std::size_t>(record.transmitters[i])] =
        static_cast<int>(i);
  }
  resolver.resolve(tx_index_of, EdgeSet::none(), record);
  EXPECT_EQ(resolver.last_path(), DeliveryResolver::Path::structured);
}

}  // namespace
}  // namespace dualcast
