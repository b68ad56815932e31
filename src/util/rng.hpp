#pragma once

// Deterministic, forkable pseudo-random number generation.
//
// Every stochastic component of the simulator (each node process, each
// adversary, each pre-simulation an adversary runs privately) draws from its
// own `Rng` stream forked from a single master seed. This gives:
//   * reproducibility — one seed determines the whole execution;
//   * independence in the model-theoretic sense — an oblivious adversary's
//     stream shares no state with node streams, so it provably cannot depend
//     on node coin flips;
//   * exact power-of-two Bernoulli coins (`coin_pow2`), which the Decay
//     family of algorithms uses, avoiding floating-point edge cases.
//
// The generator is xoshiro256** seeded via SplitMix64 — fast, high quality,
// and trivially portable.

#include <array>
#include <cstdint>
#include <string_view>

#include "util/assert.hpp"

namespace dualcast {

// Seeding and forking are defined inline, like the draws below: the engine
// forks one stream per node at the start of every trial.

/// One step of the SplitMix64 sequence; also used as a mixing function.
inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

/// Stateless mix of a value (SplitMix64 finalizer). Used for stream derivation.
inline std::uint64_t mix64(std::uint64_t x) {
  std::uint64_t state = x;
  return splitmix64(state);
}

namespace simd::detail {
struct RngLanes;
}

/// A forkable pseudo-random stream (xoshiro256**).
class Rng {
 public:
  /// Creates a stream from a 64-bit seed (expanded via SplitMix64).
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) : seed_(seed) {
    std::uint64_t sm = seed;
    for (auto& word : s_) word = splitmix64(sm);
    // xoshiro's all-zero state is degenerate; SplitMix64 cannot produce
    // four zero outputs in a row, but guard anyway.
    if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) s_[0] = 1;
  }

  // The draw methods are defined inline: they sit on the engine's
  // per-node-per-round and per-edge-per-round hot paths, where a function
  // call per draw is measurable.

  /// Next raw 64-bit value.
  std::uint64_t next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform01() {
    // 53 high bits -> double in [0,1).
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform integer in the inclusive range [lo, hi]. Requires lo <= hi.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Bernoulli trial with probability exactly 2^-i, i >= 0, via i fair bits.
  /// i = 0 always succeeds. Requires 0 <= i <= 63.
  bool coin_pow2(int i) {
    DC_EXPECTS(i >= 0 && i <= 63);
    if (i == 0) return true;
    return bits(i) == 0;
  }

  /// k uniformly random bits packed into the low bits of the result.
  /// Requires 0 <= k <= 64; k == 0 yields 0.
  std::uint64_t bits(int k) {
    DC_EXPECTS(k >= 0 && k <= 64);
    if (k == 0) return 0;
    return next_u64() >> (64 - k);
  }

  /// 64 independent Bernoulli(2^-i) trials packed into one word: bit j of
  /// the result is set with probability exactly 2^-i, independently across
  /// bits (the AND of i raw words sets a bit iff all i of its fair bits came
  /// up 1). Costs i draws for 64 trials — the word-parallel form of 64
  /// coin_pow2(i) calls, and the depth-i rung of a Pow2MaskLadder (the one
  /// implementation; this is a convenience wrapper for callers whose whole
  /// block shares a single index). i == 0 yields all-ones. Requires
  /// 0 <= i <= 63.
  std::uint64_t bernoulli_pow2_mask(int i);

  /// Derives an independent child stream. Distinct tags (or successive calls
  /// with the same tag) give statistically independent streams; forking does
  /// not perturb this stream's own sequence.
  Rng fork(std::uint64_t tag) {
    const std::uint64_t child = mix64(
        seed_ ^ mix64(tag) ^ mix64(0xD1B54A32D192ED03ull + fork_counter_));
    ++fork_counter_;
    return Rng(child);
  }

  /// Derives an independent child stream from a string tag.
  Rng fork(std::string_view tag);

  /// The seed this stream was constructed from (for diagnostics/logging).
  std::uint64_t seed() const { return seed_; }

 private:
  // simd::coin_pow2_lanes steps four adjacent streams' s_ in place (its
  // AVX2 path; util/simd.cpp pins this layout).
  friend struct simd::detail::RngLanes;

  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t seed_ = 0;
  std::uint64_t fork_counter_ = 0;
  std::array<std::uint64_t, 4> s_{};
};

/// Which streams the engine's kernels draw their per-round coins from.
///
///   per_node — every node draws from its own forked stream, consuming
///              exactly the draws its scalar reference would: the kernels
///              replay *byte-identically* against the scalar adapter over
///              it (the default, and what the equality test suite pins).
///   word     — kernels that support it draw one mask per 64-node block from
///              a per-block stream (bernoulli_pow2_mask / Pow2MaskLadder),
///              cutting RNG cost by up to 64/ladder. Same per-trial
///              distribution, different sample path: validated by the
///              distributional differential tests, not byte equality.
enum class RngMode : std::uint8_t { per_node, word };

/// The ladder-aware mask trick: lazily extended prefix masks over one
/// stream, mask(i) = AND of the first i raw words (mask(0) is all-ones), so
/// bit j of mask(i) is a Bernoulli(2^-i) trial. One 64-node block whose
/// nodes sit on *divergent* decay-ladder indices shares a single ladder:
/// node v consumes bit (v mod 64) of mask(i_v). Bits of nested masks are
/// correlated down the ladder but distinct bit lanes are independent, so the
/// contract is: consume at most one mask per bit lane per ladder lifetime
/// (one object per block per round). Total cost: max consumed index draws
/// per block, vs one draw per node.
class Pow2MaskLadder {
 public:
  /// Binds to the block's stream; draws lazily as deeper masks are asked for.
  explicit Pow2MaskLadder(Rng& rng) : rng_(&rng) { masks_[0] = ~std::uint64_t{0}; }

  /// Prefix mask of depth i. Requires 0 <= i <= 63.
  std::uint64_t mask(int i) {
    DC_EXPECTS(i >= 0 && i <= 63);
    while (depth_ < i) {
      masks_[depth_ + 1] = masks_[depth_] & rng_->next_u64();
      ++depth_;
    }
    return masks_[static_cast<std::size_t>(i)];
  }

  /// Raw mask table for word-parallel lane gathers
  /// (simd::gather_ladder_bits): entries [0, depth] are valid after
  /// mask(depth); deeper entries must not be addressed by any gathered
  /// lane.
  const std::uint64_t* levels() const { return masks_.data(); }

 private:
  Rng* rng_;
  int depth_ = 0;
  /// Entries above depth_ are never read; only masks_[0] needs a value
  /// (set in the constructor), so no zero-initialization — one ladder is
  /// constructed per block per round on the word-mode hot path.
  std::array<std::uint64_t, 64> masks_;
};

inline std::uint64_t Rng::bernoulli_pow2_mask(int i) {
  Pow2MaskLadder ladder(*this);
  return ladder.mask(i);
}

}  // namespace dualcast
