#pragma once

// The adversary's per-round choice: which G'-only edges join the
// communication topology this round (§2: "the edges in E plus some subset of
// the edges in E' \ E"). Edges are referenced by their index in the
// network's G'-only edge index space (DualGraph::gp_only_edge()).
//
// `none` and `all` are first-class so the engine can fast-path the common
// adversary strategies. Arbitrary subsets are *mask-native*: blocked 64-bit
// words over the edge index space (bit e set = edge e active), which is what
// both sides of the hot path already speak — the i.i.d. adversary samples
// edges word-parallel and keeps the `present` words it draws, and the
// resolver's sparse-application strategies test/iterate mask words directly.
// The old index-vector representation survives only as the `some()`
// compatibility constructor, which packs to a mask (and collapses an empty
// selection to `none`, so no-op rounds take the resolver's no-overlay fast
// path).
//
// Allocation discipline: adversaries fill a caller-provided EdgeSet in place
// (LinkProcess::choose_* out-parameter). The engine rotates the mask buffer
// through the round record and the history's reusable last-record, so a
// steady-state round performs no mask allocations.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.hpp"

namespace dualcast {

struct EdgeSet {
  enum class Kind : std::uint8_t { none, all, mask };

  Kind kind = Kind::none;
  /// Blocked bits over the G'-only edge index space; meaningful ONLY when
  /// kind == mask — under other kinds the vector may hold stale words from
  /// an earlier round (set_none/set_all leave it untouched, which is what
  /// lets begin_mask_overwrite skip the refill). May be shorter than the
  /// full space — absent words are all-zero (the some() constructor sizes
  /// to the highest set bit).
  std::vector<std::uint64_t> mask;
  /// Number of set bits in `mask` (maintained by the fill helpers).
  std::int64_t count = 0;

  void set_none() {
    kind = Kind::none;
    count = 0;
  }
  void set_all() {
    kind = Kind::all;
    count = 0;
  }

  /// Starts a mask round over an edge index space of `edge_count` edges:
  /// kind becomes mask, the buffer is sized to ceil(edge_count / 64) zeroed
  /// words (reusing capacity), count resets. Write words (or set_bit), then
  /// call finish_mask().
  void begin_mask(std::int64_t edge_count) {
    kind = Kind::mask;
    count = 0;
    mask.assign(static_cast<std::size_t>((edge_count + 63) / 64), 0);
  }

  /// begin_mask for producers that set_word *every* word (the i.i.d.
  /// adversary's block loop): skips the O(words) zero-fill when the buffer
  /// is already the right size — on a steady-state hot path that fill is
  /// pure wasted bandwidth. The skip is real because neither set_none()
  /// nor the engine's record rotation shrinks the buffer (under lean
  /// history the same sized words circulate adversary -> record -> back).
  /// Words grown into are still value-initialized.
  void begin_mask_overwrite(std::int64_t edge_count) {
    kind = Kind::mask;
    count = 0;
    mask.resize(static_cast<std::size_t>((edge_count + 63) / 64));
  }

  /// Stores one whole 64-bit block (word `w` of the mask) and accounts its
  /// population. The word-parallel producers' primitive.
  void set_word(std::size_t w, std::uint64_t bits) {
    mask[w] = bits;
    count += std::popcount(bits);
  }

  /// Sets one edge bit (must not already be set).
  void set_bit(std::int64_t idx) {
    mask[static_cast<std::size_t>(idx) / 64] |=
        std::uint64_t{1} << (static_cast<std::uint64_t>(idx) % 64);
    ++count;
  }

  bool test(std::int64_t idx) const {
    const std::size_t w = static_cast<std::size_t>(idx) / 64;
    if (w >= mask.size()) return false;
    return (mask[w] >> (static_cast<std::uint64_t>(idx) % 64)) & 1u;
  }

  /// Normalizes an empty selection: an all-zero mask collapses to `none`,
  /// so low-activation rounds skip the sparse-application machinery.
  void finish_mask() {
    if (kind == Kind::mask && count == 0) set_none();
  }

  static EdgeSet none() { return {}; }
  static EdgeSet all() { return EdgeSet{Kind::all, {}, 0}; }

  /// Compatibility constructor: packs an index vector into a mask (sized to
  /// the highest index; duplicates are counted once; an empty selection
  /// collapses to `none`). Indices must be non-negative.
  static EdgeSet some(const std::vector<std::int32_t>& indices) {
    EdgeSet e;
    std::int32_t max_idx = -1;
    for (const std::int32_t idx : indices) {
      DC_EXPECTS_MSG(idx >= 0, "EdgeSet::some: negative edge index");
      max_idx = std::max(max_idx, idx);
    }
    e.begin_mask(static_cast<std::int64_t>(max_idx) + 1);
    for (const std::int32_t idx : indices) {
      if (!e.test(idx)) e.set_bit(idx);
    }
    e.finish_mask();
    return e;
  }
};

/// Visits the set bits of `mask` in [lo, hi) ascending: fn(edge_index).
/// Bits past the end of the mask read as zero.
template <typename Fn>
void for_each_mask_bit(const std::vector<std::uint64_t>& mask,
                       std::int64_t lo, std::int64_t hi, Fn&& fn) {
  hi = std::min(hi, static_cast<std::int64_t>(mask.size()) * 64);
  if (lo >= hi) return;
  const std::size_t w_lo = static_cast<std::size_t>(lo) / 64;
  const std::size_t w_hi = static_cast<std::size_t>(hi - 1) / 64;
  for (std::size_t w = w_lo; w <= w_hi; ++w) {
    std::uint64_t bits = mask[w];
    if (w == w_lo) bits &= ~std::uint64_t{0} << (lo % 64);
    if (w == w_hi) bits &= ~std::uint64_t{0} >> (63 - (hi - 1) % 64);
    while (bits != 0) {
      fn(static_cast<std::int64_t>(w) * 64 + std::countr_zero(bits));
      bits &= bits - 1;
    }
  }
}

/// Visits every set bit of `mask` ascending: fn(edge_index).
template <typename Fn>
void for_each_mask_bit(const std::vector<std::uint64_t>& mask, Fn&& fn) {
  for_each_mask_bit(mask, 0, static_cast<std::int64_t>(mask.size()) * 64, fn);
}

}  // namespace dualcast
