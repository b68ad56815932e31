// AVX2 / scalar parity for the runtime-dispatched SIMD primitives: on an
// AVX2 host both implementations are exercised against each other and
// against brute-force references; elsewhere the scalar path is checked
// against the references alone (and the dispatcher must report scalar).

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "util/rng.hpp"
#include "util/simd.hpp"

namespace dualcast {
namespace {

TEST(SimdParity, GatherLadderBitsMatchesReferenceAndAvx2) {
  Rng rng(909);
  for (int trial = 0; trial < 400; ++trial) {
    std::uint64_t masks[64];
    masks[0] = ~std::uint64_t{0};
    const int depth = 1 + static_cast<int>(rng.uniform_int(0, 62));
    for (int d = 1; d <= depth; ++d) masks[d] = masks[d - 1] & rng.next_u64();
    std::uint8_t lane_index[64] = {};
    const std::uint64_t lanes = rng.next_u64() & rng.next_u64();
    for (int j = 0; j < 64; ++j) {
      lane_index[j] = static_cast<std::uint8_t>(rng.uniform_int(0, depth));
    }
    std::uint64_t expected = 0;
    for (int j = 0; j < 64; ++j) {
      if ((lanes >> j) & 1u) {
        expected |= masks[lane_index[j]] & (std::uint64_t{1} << j);
      }
    }
    ASSERT_EQ(
        simd::detail::gather_ladder_bits_scalar(masks, lane_index, lanes),
        expected);
    if (simd::detail::avx2_supported()) {
      ASSERT_EQ(
          simd::detail::gather_ladder_bits_avx2(masks, lane_index, lanes),
          expected);
    }
    ASSERT_EQ(simd::gather_ladder_bits(masks, lane_index, lanes), expected);
  }
}

/// `count` streams with distinct seeds (what the engine's per-node forks
/// look like to the primitive).
std::vector<Rng> make_streams(std::size_t count, std::uint64_t seed) {
  Rng master(seed);
  std::vector<Rng> streams;
  for (std::size_t i = 0; i < count; ++i) streams.push_back(master.fork(i));
  return streams;
}

/// The reference: one coin_pow2 per set lane, in lane order.
std::uint64_t reference_coins(std::vector<Rng>& streams, std::uint64_t lanes,
                              const std::uint8_t* lane_index) {
  std::uint64_t out = 0;
  for (int j = 0; j < 64; ++j) {
    if (((lanes >> j) & 1u) &&
        streams[static_cast<std::size_t>(j)].coin_pow2(lane_index[j])) {
      out |= std::uint64_t{1} << j;
    }
  }
  return out;
}

/// Every stream's next draw after the call, so a lane that drew twice, a
/// lane that drew without being active, or a torn state store all show.
std::vector<std::uint64_t> next_draws(std::vector<Rng> streams) {
  std::vector<std::uint64_t> out;
  for (Rng& g : streams) out.push_back(g.next_u64());
  return out;
}

/// Lane words from empty through single-lane and sparse to full.
std::vector<std::uint64_t> lane_words(Rng& rng) {
  std::vector<std::uint64_t> words = {0, 1, std::uint64_t{1} << 63,
                                      0xFull, 0x8000000000000001ull,
                                      0x5555555555555555ull, ~std::uint64_t{0}};
  for (int k = 0; k < 6; ++k) {
    words.push_back(std::uint64_t{1} << rng.uniform_int(0, 63));
    words.push_back(rng.next_u64() & rng.next_u64() & rng.next_u64());
    words.push_back(rng.next_u64());
    words.push_back(rng.next_u64() | rng.next_u64());
  }
  return words;
}

TEST(SimdParity, CoinPow2LanesMatchesPerLaneCoinLoop) {
  Rng rng(1010);
  int hits = 0;
  for (std::size_t size = 1; size <= 130; ++size) {
    const std::uint64_t in_span =
        size >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << size) - 1;
    for (const std::uint64_t word : lane_words(rng)) {
      const std::uint64_t lanes = word & in_span;
      // Shared indices (0 and 63 included), then divergent ones.
      std::vector<std::vector<std::uint8_t>> index_sets;
      for (const int shared : {0, 1, 2, 5, 63}) {
        index_sets.emplace_back(64, static_cast<std::uint8_t>(shared));
      }
      std::vector<std::uint8_t> divergent(64);
      for (auto& i : divergent) {
        i = static_cast<std::uint8_t>(rng.bernoulli(0.2)
                                          ? (rng.bernoulli(0.5) ? 0 : 63)
                                          : rng.uniform_int(1, 6));
      }
      index_sets.push_back(divergent);
      for (const auto& index : index_sets) {
        SCOPED_TRACE(::testing::Message()
                     << "size " << size << " lanes " << std::hex << lanes);
        std::vector<Rng> ref_streams = make_streams(size, 7 * size + lanes);
        std::vector<Rng> scalar_streams = ref_streams;
        std::vector<Rng> avx_streams = ref_streams;
        const std::uint64_t expected =
            reference_coins(ref_streams, lanes, index.data());
        hits += std::popcount(expected);
        ASSERT_EQ(simd::detail::coin_pow2_lanes_scalar(scalar_streams, lanes,
                                                       index.data()),
                  expected);
        ASSERT_EQ(next_draws(scalar_streams), next_draws(ref_streams));
        if (simd::detail::avx2_supported()) {
          ASSERT_EQ(simd::detail::coin_pow2_lanes_avx2(avx_streams, lanes,
                                                       index.data()),
                    expected);
          ASSERT_EQ(next_draws(avx_streams), next_draws(ref_streams));
        }
      }
    }
  }
  EXPECT_GT(hits, 1000) << "coin successes barely exercised";
}

TEST(SimdParity, CoinPow2LanesDispatchBothFormsBothPaths) {
  Rng rng(1111);
  for (const bool scalar : {true, false}) {
    simd::force_scalar(scalar);
    for (const std::size_t size : {std::size_t{3}, std::size_t{64},
                                   std::size_t{67}, std::size_t{130}}) {
      const std::uint64_t lanes =
          rng.next_u64() &
          (size >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << size) - 1);
      for (const int shared : {0, 1, 4, 63}) {
        std::vector<Rng> ref_streams = make_streams(size, size + 99);
        std::vector<Rng> streams = ref_streams;
        const std::vector<std::uint8_t> index(
            64, static_cast<std::uint8_t>(shared));
        const std::uint64_t expected =
            reference_coins(ref_streams, lanes, index.data());
        ASSERT_EQ(simd::coin_pow2_lanes(streams, lanes, shared), expected);
        ASSERT_EQ(next_draws(streams), next_draws(ref_streams));
      }
      std::vector<std::uint8_t> index(64);
      for (auto& i : index) {
        i = static_cast<std::uint8_t>(rng.uniform_int(0, 63));
      }
      std::vector<Rng> ref_streams = make_streams(size, size + 5);
      std::vector<Rng> streams = ref_streams;
      const std::uint64_t expected =
          reference_coins(ref_streams, lanes, index.data());
      ASSERT_EQ(simd::coin_pow2_lanes(streams, lanes, index.data()), expected);
      ASSERT_EQ(next_draws(streams), next_draws(ref_streams));
    }
  }
  simd::force_scalar(false);
}

TEST(SimdDispatch, ForceScalarPinsTheDispatcher) {
  simd::force_scalar(true);
  EXPECT_FALSE(simd::avx2_active());
  simd::force_scalar(false);
  EXPECT_EQ(simd::avx2_active(), simd::detail::avx2_supported());
}

}  // namespace
}  // namespace dualcast
