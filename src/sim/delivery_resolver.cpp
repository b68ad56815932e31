#include "sim/delivery_resolver.hpp"

#include <algorithm>
#include <bit>
#include <span>

#include "util/assert.hpp"

namespace dualcast {

void DeliveryResolver::reset(const DualGraph* net, bool collision_detection) {
  DC_EXPECTS(net != nullptr && net->n() >= 1);
  net_ = net;
  dual_clique_ = net->structure() == DualGraph::Structure::dual_clique;
  gprime_complete_ = net->gprime_complete();
  collision_detection_ = collision_detection;
  const std::size_t n = static_cast<std::size_t>(net->n());
  hear_count_.assign(n, 0);
  last_sender_.assign(n, -1);
  last_tx_index_.assign(n, -1);
  touched_.clear();
  colliders_.clear();
}

void DeliveryResolver::resolve(const std::vector<int>& tx_index_of,
                               const EdgeSet& edges, RoundRecord& record) {
  DC_EXPECTS(net_ != nullptr);
  const int n = net_->n();
  const std::vector<int>& transmitters = record.transmitters;
  const int tx_count = static_cast<int>(transmitters.size());

  colliders_.clear();

  // Fast path: with all G'-only edges active on a complete G', either the
  // unique transmitter reaches everyone (one run) or >= 2 transmitters
  // collide everywhere. This keeps dense-round attacks on clique networks
  // O(1) — under any representation.
  if (forced_ == Path::auto_select && edges.kind == EdgeSet::Kind::all &&
      gprime_complete_) {
    last_ = Path::sweep;
    if (tx_count == 1) {
      record.runs.push_back(DeliveryRun{0, n, transmitters[0], 0, n - 1});
    } else if (tx_count >= 2 && collision_detection_) {
      for (int u = 0; u < n; ++u) {
        if (tx_index_of[static_cast<std::size_t>(u)] < 0) {
          colliders_.push_back(u);
        }
      }
    }
    return;
  }

  DC_EXPECTS_MSG(forced_ != Path::structured || dual_clique_,
                 "structured path forced on a network without a "
                 "dual-clique structure tag");
  touched_.clear();
  // Per-side counting beats the sweep on clique sides at every density:
  // O(tx + mask bits), and a side that hears one sender is one run.
  if (forced_ == Path::structured ||
      (forced_ == Path::auto_select && dual_clique_)) {
    last_ = Path::structured;
    resolve_structured(tx_index_of, edges, record);
  } else {
    last_ = Path::sweep;
    resolve_sweep(tx_index_of, edges, record);
  }
}

void DeliveryResolver::resolve_sweep(const std::vector<int>& tx_index_of,
                                     const EdgeSet& edges,
                                     RoundRecord& record) {
  const std::vector<int>& transmitters = record.transmitters;
  const int tx_count = static_cast<int>(transmitters.size());
  const LayerView g_view = net_->g_layer();
  const LayerView overlay_view = net_->gp_only_layer();
  for (int ti = 0; ti < tx_count; ++ti) {
    const int v = transmitters[static_cast<std::size_t>(ti)];
    g_view.for_each_neighbor(v, [&](int u) { bump(u, v, ti); });
    if (edges.kind == EdgeSet::Kind::all) {
      overlay_view.for_each_neighbor(v, [&](int u) { bump(u, v, ti); });
    }
  }
  apply_sparse_edges(tx_index_of, edges, transmitters);
  finalize(tx_index_of, record);
}

void DeliveryResolver::resolve_structured(const std::vector<int>& tx_index_of,
                                          const EdgeSet& edges,
                                          RoundRecord& record) {
  // G is two cliques on [0, h) / [h, n) plus an optional bridge: a
  // listener's contender count is its side's transmitter total, plus the
  // bridge and any mask-activated overlay edges, which are registered as
  // ordinary bumps first. Per-side totals then resolve whole sides at once:
  //
  //   side total 0  — only bumped listeners can hear: the touched_ pass.
  //   side total 1  — every side listener hears the side's transmitter,
  //                   except bumped ones (>= 2 contenders): one
  //                   DeliveryRun whose skips are those bumped listeners,
  //                   sorted, O(bumped log bumped).
  //   side total >= 2 — everyone on the side collides; with collision
  //                   detection off the side costs nothing at all.
  //
  // With Kind::all under a complete G' the network is effectively K_n, so
  // both "sides" share the global transmitter total and the bridge adds
  // nothing. Under G' = G (protocol_dual_clique) Kind::all adds no edge.
  const int n = net_->n();
  const int h = net_->dual_half();
  const int ba = net_->dual_bridge_a();
  const int bb = net_->dual_bridge_b();
  const bool all = edges.kind == EdgeSet::Kind::all && gprime_complete_;
  const std::vector<int>& transmitters = record.transmitters;

  int tx_a = 0;
  int tx_b = 0;
  int first_a = -1;
  int first_b = -1;
  int previous = -1;
  for (const int v : transmitters) {
    // A run's readers merge the transmitters in as they walk it, so an
    // out-of-order transmitter would be expanded as its own receiver.
    DC_EXPECTS_MSG(v > previous, "record.transmitters must be ascending");
    previous = v;
    if (v < h) {
      if (tx_a == 0) first_a = v;
      ++tx_a;
    } else {
      if (tx_b == 0) first_b = v;
      ++tx_b;
    }
  }

  // A side with >= 2 transmitters collides whatever G' adds (§2), so mask
  // edges are applied only into a side that can still hear.
  if (edges.kind == EdgeSet::Kind::mask) {
    check_mask(edges);
    apply_dual_clique_mask(tx_index_of, edges, transmitters, tx_a <= 1,
                           tx_b <= 1);
  }
  if (!all && ba >= 0) {
    const int ta_idx = tx_index_of[static_cast<std::size_t>(ba)];
    const int tb_idx = tx_index_of[static_cast<std::size_t>(bb)];
    if (tb_idx >= 0) bump(ba, bb, tb_idx);
    if (ta_idx >= 0) bump(bb, ba, ta_idx);
  }

  struct Side {
    int lo, hi, total, sender;
  };
  const int tx_total = tx_a + tx_b;
  const int first_any = first_a >= 0 ? first_a : first_b;
  const Side sides[2] = {
      {0, h, all ? tx_total : tx_a, all ? first_any : first_a},
      {h, n, all ? tx_total : tx_b, all ? first_any : first_b},
  };
  for (const Side& side : sides) {
    if (side.total == 1) {
      // One run over the side; its bumped listeners collide and are the
      // run's skips, ascending.
      const std::size_t first_skip = record.run_skips.size();
      collect_bumped(side.lo, side.hi, tx_index_of, record.run_skips);
      const auto skips = std::span(record.run_skips).subspan(first_skip);
      const int side_tx = side.lo == 0 ? tx_a : tx_b;
      record.runs.push_back(DeliveryRun{
          side.lo, side.hi, side.sender,
          tx_index_of[static_cast<std::size_t>(side.sender)],
          side.hi - side.lo - side_tx - static_cast<int>(skips.size())});
      if (collision_detection_) {
        colliders_.insert(colliders_.end(), skips.begin(), skips.end());
      }
    } else if (side.total >= 2 && collision_detection_) {
      for (int u = side.lo; u < side.hi; ++u) {
        if (tx_index_of[static_cast<std::size_t>(u)] < 0) {
          colliders_.push_back(u);
        }
      }
    }
  }

  // Bump-only listeners (their side total is 0), plus scratch reset.
  for (const int u : touched_) {
    const Side& side = sides[u < h ? 0 : 1];
    if (side.total == 0 && tx_index_of[static_cast<std::size_t>(u)] < 0) {
      if (hear_count_[static_cast<std::size_t>(u)] == 1) {
        record.deliveries.push_back(
            Delivery{u, last_sender_[static_cast<std::size_t>(u)],
                     last_tx_index_[static_cast<std::size_t>(u)]});
      } else if (collision_detection_) {
        colliders_.push_back(u);
      }
    }
    hear_count_[static_cast<std::size_t>(u)] = 0;
    last_sender_[static_cast<std::size_t>(u)] = -1;
    last_tx_index_[static_cast<std::size_t>(u)] = -1;
  }
}

void DeliveryResolver::collect_bumped(int lo, int hi,
                                      const std::vector<int>& tx_index_of,
                                      std::vector<int>& out) const {
  const std::size_t first = out.size();
  for (const int u : touched_) {
    if (u >= lo && u < hi && tx_index_of[static_cast<std::size_t>(u)] < 0) {
      out.push_back(u);
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

void DeliveryResolver::check_mask(const EdgeSet& edges) const {
  // Validate the mask's range once, up front (not per bit, and before
  // either strategy — the walk would otherwise silently skip invalid
  // indices): find the highest set bit.
  std::int64_t top = -1;
  for (std::size_t w = edges.mask.size(); w-- > 0;) {
    if (edges.mask[w] != 0) {
      top = static_cast<std::int64_t>(w) * 64 + 63 -
            std::countl_zero(edges.mask[w]);
      break;
    }
  }
  DC_EXPECTS_MSG(top < net_->gp_only_edge_count(),
                 "edge mask addresses past the G'-only edge index space");
}

void DeliveryResolver::apply_sparse_edges(const std::vector<int>& tx_index_of,
                                          const EdgeSet& edges,
                                          const std::vector<int>& transmitters) {
  if (edges.kind != EdgeSet::Kind::mask) return;
  check_mask(edges);
  if (dual_clique_) {
    apply_dual_clique_mask(tx_index_of, edges, transmitters, true, true);
    return;
  }

  // Two equivalent strategies (same delivery set; only the bump order, and
  // thus record.deliveries order, differs — no consumer depends on it):
  //
  //   per-edge — visit each mask bit and bump across its edge when an
  //              endpoint transmits. O(popcount) with an edge-index decode
  //              and two tx lookups per edge.
  //   walk     — walk each *transmitter's* G'-only row testing its edge
  //              indices against the mask words directly.
  //              O(Σ gp_deg(tx)) — the win whenever transmitters are sparse
  //              against a heavy overlay (decay tails under i.i.d. loss).
  //              Explicit overlays walk their per-row edge index arrays;
  //              dual cliques compute the indices (apply_dual_clique_mask).
  //
  // The choice is a deterministic function of the round's transmitter set
  // and selection size, so replays stay bit-identical.
  const LayerView overlay = net_->gp_only_layer();
  std::int64_t walk_visits = 0;
  for (const int v : transmitters) walk_visits += overlay.degree(v);
  const bool walk = walk_visits < edges.count;
  if (walk && !net_->is_implicit()) {
    const auto gp_off = net_->gp_only_csr_offsets();
    const auto gp_neighbors = net_->gp_only_csr_neighbors();
    const auto gp_edge_idx = net_->gp_only_csr_edge_indices();
    for (int ti = 0; ti < static_cast<int>(transmitters.size()); ++ti) {
      const int v = transmitters[static_cast<std::size_t>(ti)];
      const std::size_t begin =
          static_cast<std::size_t>(gp_off[static_cast<std::size_t>(v)]);
      const std::size_t end =
          static_cast<std::size_t>(gp_off[static_cast<std::size_t>(v) + 1]);
      for (std::size_t k = begin; k < end; ++k) {
        if (edges.test(gp_edge_idx[k])) bump(gp_neighbors[k], v, ti);
      }
    }
    return;
  }
  // tx_index_of maps each endpoint straight to its transmitter slot, so
  // activating an edge costs O(1) instead of a scan over the round's
  // transmitter list. One loop, two inlined decoders: the explicit
  // representation indexes the flat edge list directly (the out-of-line
  // gp_only_edge call is measurable at this edge rate); the implicit
  // complete-G' overlay decodes by prefix search.
  const auto apply_edges = [&](auto&& decode) {
    for_each_mask_bit(edges.mask, [&](std::int64_t idx) {
      const auto [a, b] = decode(idx);
      const int ta = tx_index_of[static_cast<std::size_t>(a)];
      if (ta >= 0) bump(b, a, ta);
      const int tb = tx_index_of[static_cast<std::size_t>(b)];
      if (tb >= 0) bump(a, b, tb);
    });
  };
  if (!net_->is_implicit()) {
    const auto& gp_only = net_->gp_only_edges();
    apply_edges(
        [&](std::int64_t idx) { return gp_only[static_cast<std::size_t>(idx)]; });
  } else {
    apply_edges([&](std::int64_t idx) { return net_->gp_only_edge(idx); });
  }
}

void DeliveryResolver::apply_dual_clique_mask(
    const std::vector<int>& tx_index_of, const EdgeSet& edges,
    const std::vector<int>& transmitters, bool hear_a, bool hear_b) {
  // A side-A transmitter's G'-only edges reach only side B, and the
  // reverse: only transmitters whose far side can hear decide anything.
  if (!hear_a && !hear_b) return;
  const int h = net_->dual_half();
  const auto decides = [&](int v) { return v < h ? hear_b : hear_a; };
  const LayerView overlay = net_->gp_only_layer();
  std::int64_t walk_visits = 0;
  for (const int v : transmitters) {
    if (decides(v)) walk_visits += overlay.degree(v);
  }
  const bool walk = walk_visits < edges.count;

  // A side-A node's G'-only edges are one index range and a side-B node's
  // a stride-h column (DualGraph::DualEdgeIndex). Both strategies bump in
  // the order the explicit overlay's walk and per-edge loops do.
  const int ba = net_->dual_bridge_a();
  const int bb = net_->dual_bridge_b();
  const DualGraph::DualEdgeIndex edge_index = net_->dual_edge_index();
  // on_b(b) for each set edge (a, b) of row a, a mask word at a time.
  const auto for_each_in_row = [&](int a, auto&& on_b) {
    const std::int64_t f0 = static_cast<std::int64_t>(a) * h;
    for_each_mask_bit(edges.mask, edge_index.index(f0),
                      edge_index.index(f0 + h), [&](std::int64_t idx) {
                        on_b(h + static_cast<int>(edge_index.slot(idx) - f0));
                      });
  };

  if (walk) {
    for (int ti = 0; ti < static_cast<int>(transmitters.size()); ++ti) {
      const int v = transmitters[static_cast<std::size_t>(ti)];
      if (!decides(v)) continue;
      if (v < h) {
        for_each_in_row(v, [&](int b) { bump(b, v, ti); });
        continue;
      }
      for (int a = 0; a < h; ++a) {  // column v - h, one bit per row
        if (a == ba && v == bb) continue;
        const std::int64_t f = static_cast<std::int64_t>(a) * h + (v - h);
        if (edges.test(edge_index.index(f))) bump(a, v, ti);
      }
    }
    return;
  }
  // Decode the set bits row by row; with side A deaf, only the rows of
  // side-A transmitters.
  for (int a = 0; a < h; ++a) {
    const int ta = hear_b ? tx_index_of[static_cast<std::size_t>(a)] : -1;
    if (!hear_a && ta < 0) continue;
    for_each_in_row(a, [&](int b) {
      if (ta >= 0) bump(b, a, ta);
      const int tb =
          hear_a ? tx_index_of[static_cast<std::size_t>(b)] : -1;
      if (tb >= 0) bump(a, b, tb);
    });
  }
}

void DeliveryResolver::finalize(const std::vector<int>& tx_index_of,
                                RoundRecord& record) {
  for (const int u : touched_) {
    if (tx_index_of[static_cast<std::size_t>(u)] >= 0) continue;
    if (hear_count_[static_cast<std::size_t>(u)] == 1) {
      record.deliveries.push_back(
          Delivery{u, last_sender_[static_cast<std::size_t>(u)],
                   last_tx_index_[static_cast<std::size_t>(u)]});
    } else if (collision_detection_ &&
               hear_count_[static_cast<std::size_t>(u)] >= 2) {
      colliders_.push_back(u);
    }
  }
  // Reset scratch.
  for (const int u : touched_) {
    hear_count_[static_cast<std::size_t>(u)] = 0;
    last_sender_[static_cast<std::size_t>(u)] = -1;
    last_tx_index_[static_cast<std::size_t>(u)] = -1;
  }
}

}  // namespace dualcast
