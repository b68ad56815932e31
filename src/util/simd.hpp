#pragma once

// Runtime-dispatched SIMD primitives for the engine's word-parallel inner
// loops, with scalar fallbacks that are bit-for-bit equivalent (the
// parity suite in tests/test_util_simd.cpp compares both implementations on
// random inputs, so the dispatched result never depends on the host):
//
//   gather_ladder_bits — the Pow2MaskLadder consumption loop of the
//                        word-RNG kernels: with divergent per-node ladder
//                        indices, lane j of the result is bit j of
//                        masks[lane_index[j]]. The AVX2 path gathers four
//                        ladder masks per step and re-packs the selected
//                        bits; dense holder words gain, sparse ones keep
//                        the scalar set-bit walk (the wrapper picks — the
//                        output is identical either way).
//
//   coin_pow2_lanes    — the per-node-RNG decay coins: one
//                        Rng::coin_pow2 draw from each of a 64-node
//                        block's candidate streams, returned as the
//                        block's transmit word. The AVX2 path loads four
//                        adjacent xoshiro256** states, transposes them and
//                        steps all four at once; every stream ends in the
//                        state its own coin_pow2 call would leave, so the
//                        per-node sample paths do not depend on the host.
//
// Dispatch is decided once per process from CPU capability; force_scalar()
// exists for tests and diagnostics.

#include <cstdint>
#include <span>

#include "util/rng.hpp"

namespace dualcast::simd {

/// True when the dispatched implementations use AVX2 on this host.
bool avx2_active();

/// Test hook: pin the dispatch to the scalar implementations (process-wide;
/// call with false to restore capability-based dispatch).
void force_scalar(bool on);

/// For each set bit j of `lanes`: bit j of the result is bit j of
/// masks[lane_index[j]]; other bits are 0. `lane_index` must have 64
/// entries, each < 64 and valid to read from `masks` (unused lanes may be
/// 0).
std::uint64_t gather_ladder_bits(const std::uint64_t* masks,
                                 const std::uint8_t* lane_index,
                                 std::uint64_t lanes);

/// For each set bit j of `lanes`: bit j of the result is
/// streams[j].coin_pow2(index), drawn in place; other bits are 0 and other
/// streams are untouched. Index 0 draws nothing and succeeds. `lanes` must
/// only address streams (bit j set needs j < streams.size()); a longer span
/// is fine, only its first 64 streams are lanes. Requires 0 <= index <= 63.
std::uint64_t coin_pow2_lanes(std::span<Rng> streams, std::uint64_t lanes,
                              int index);

/// Per-lane-index form: lane j draws coin_pow2(lane_index[j]).
/// `lane_index` must have 64 entries, each <= 63 (unused lanes may be 0).
std::uint64_t coin_pow2_lanes(std::span<Rng> streams, std::uint64_t lanes,
                              const std::uint8_t* lane_index);

namespace detail {
// Both implementations, exposed for the parity tests. The *_avx2 variants
// must only be called when avx2_supported() is true.
bool avx2_supported();
std::uint64_t gather_ladder_bits_scalar(const std::uint64_t* masks,
                                        const std::uint8_t* lane_index,
                                        std::uint64_t lanes);
std::uint64_t gather_ladder_bits_avx2(const std::uint64_t* masks,
                                      const std::uint8_t* lane_index,
                                      std::uint64_t lanes);
std::uint64_t coin_pow2_lanes_scalar(std::span<Rng> streams,
                                     std::uint64_t lanes,
                                     const std::uint8_t* lane_index);
std::uint64_t coin_pow2_lanes_avx2(std::span<Rng> streams,
                                   std::uint64_t lanes,
                                   const std::uint8_t* lane_index);
}  // namespace detail

}  // namespace dualcast::simd
