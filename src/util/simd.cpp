#include "util/simd.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstring>
#include <type_traits>

#if defined(__x86_64__) || defined(__i386__)
#define DUALCAST_X86 1
#include <immintrin.h>
#else
#define DUALCAST_X86 0
#endif

namespace dualcast::simd {
namespace detail {

/// In-place access to a stream's xoshiro256** words (Rng befriends this).
struct RngLanes {
  static std::uint64_t* state(Rng& rng) { return rng.s_.data(); }

  // The four-lane step loads each stream's 32-byte state where it lies in
  // the kernels' std::span<Rng>; a different layout stays correct but
  // changes the access pattern the step was measured with.
  static_assert(std::is_standard_layout_v<Rng>);
  static_assert(sizeof(Rng) == 6 * sizeof(std::uint64_t));
  static_assert(offsetof(Rng, s_) == 2 * sizeof(std::uint64_t));
};

bool avx2_supported() {
#if DUALCAST_X86
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

std::uint64_t gather_ladder_bits_scalar(const std::uint64_t* masks,
                                        const std::uint8_t* lane_index,
                                        std::uint64_t lanes) {
  std::uint64_t out = 0;
  std::uint64_t rest = lanes;
  while (rest != 0) {
    const int j = std::countr_zero(rest);
    out |= masks[lane_index[j]] & (std::uint64_t{1} << j);
    rest &= rest - 1;
  }
  return out;
}

/// Lane j's coin_pow2 draw, as bit j.
std::uint64_t coin_lane(std::span<Rng> streams, const std::uint8_t* lane_index,
                        int j) {
  const std::size_t i = static_cast<std::size_t>(j);
  return std::uint64_t{streams[i].coin_pow2(lane_index[i])} << j;
}

std::uint64_t coin_pow2_lanes_scalar(std::span<Rng> streams,
                                     std::uint64_t lanes,
                                     const std::uint8_t* lane_index) {
  std::uint64_t out = 0;
  for (std::uint64_t rest = lanes; rest != 0; rest &= rest - 1) {
    out |= coin_lane(streams, lane_index, std::countr_zero(rest));
  }
  return out;
}

#if DUALCAST_X86

__attribute__((target("avx2"))) std::uint64_t gather_ladder_bits_avx2(
    const std::uint64_t* masks, const std::uint8_t* lane_index,
    std::uint64_t lanes) {
  std::uint64_t out = 0;
  const __m256i one = _mm256_set1_epi64x(1);
  for (int j = 0; j < 64; j += 4) {
    std::int32_t packed;
    __builtin_memcpy(&packed, lane_index + j, 4);
    const __m128i idx4 = _mm_cvtepu8_epi32(_mm_cvtsi32_si128(packed));
    const __m256i mask4 = _mm256_i32gather_epi64(
        reinterpret_cast<const long long*>(masks), idx4, 8);
    const __m256i shift4 = _mm256_setr_epi64x(j, j + 1, j + 2, j + 3);
    const __m256i bit4 =
        _mm256_and_si256(_mm256_srlv_epi64(mask4, shift4), one);
    alignas(32) std::uint64_t b[4];
    _mm256_store_si256(reinterpret_cast<__m256i*>(b), bit4);
    out |= (b[0] << j) | (b[1] << (j + 1)) | (b[2] << (j + 2)) |
           (b[3] << (j + 3));
  }
  return out & lanes;
}

namespace {

template <int K>
__attribute__((target("avx2"))) inline __m256i rotl4(__m256i x) {
  return _mm256_or_si256(_mm256_slli_epi64(x, K),
                         _mm256_srli_epi64(x, 64 - K));
}

/// State words 2h and 2h + 1 of a stream.
__attribute__((target("avx2"))) inline __m128i load_pair(Rng& rng, int h) {
  return _mm_loadu_si128(
      reinterpret_cast<const __m128i*>(RngLanes::state(rng) + 2 * h));
}

__attribute__((target("avx2"))) inline void store_pair(Rng& rng, int h,
                                                       __m128i words) {
  _mm_storeu_si128(reinterpret_cast<__m128i*>(RngLanes::state(rng) + 2 * h),
                   words);
}

/// Word pair h of streams x (low half) and y (high half).
__attribute__((target("avx2"))) inline __m256i load_pairs(Rng& x, Rng& y,
                                                          int h) {
  return _mm256_inserti128_si256(_mm256_castsi128_si256(load_pair(x, h)),
                                 load_pair(y, h), 1);
}

__attribute__((target("avx2"))) inline void store_pairs(Rng& x, Rng& y,
                                                        int h, __m256i words) {
  store_pair(x, h, _mm256_castsi256_si128(words));
  store_pair(y, h, _mm256_extracti128_si256(words, 1));
}

}  // namespace

__attribute__((target("avx2"))) std::uint64_t coin_pow2_lanes_avx2(
    std::span<Rng> streams, std::uint64_t lanes,
    const std::uint8_t* lane_index) {
  const __m256i zero = _mm256_setzero_si256();
  const __m256i sixty_four = _mm256_set1_epi64x(64);
  std::uint64_t out = 0;
  // 4-groups from here on do not lie wholly inside the span.
  const int vector_end = static_cast<int>(
      std::min<std::size_t>(64, streams.size() & ~std::size_t{3}));
  for (int base = 0; base < 64; base += 4) {
    const unsigned group = static_cast<unsigned>(lanes >> base) & 0xFu;
    if (group == 0) continue;
    if ((group & (group - 1)) == 0 || base >= vector_end) {
      // One active lane, or a group the span ends inside: draw in place.
      for (unsigned g = group; g != 0; g &= g - 1) {
        out |= coin_lane(streams, lane_index, base + std::countr_zero(g));
      }
      continue;
    }
    std::int32_t packed;
    std::memcpy(&packed, lane_index + base, 4);
    const __m256i index4 = _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(packed));
    // Streams a, b, c, d = lanes 0..3. Loading word pairs (a|c, b|d) and
    // unpacking them transposes the four states: s<k> holds word k of all
    // four, lane by lane.
    Rng& a = streams[static_cast<std::size_t>(base)];
    Rng& b = streams[static_cast<std::size_t>(base) + 1];
    Rng& c = streams[static_cast<std::size_t>(base) + 2];
    Rng& d = streams[static_cast<std::size_t>(base) + 3];
    const __m256i ac01 = load_pairs(a, c, 0);
    const __m256i bd01 = load_pairs(b, d, 0);
    const __m256i ac23 = load_pairs(a, c, 1);
    const __m256i bd23 = load_pairs(b, d, 1);
    __m256i s0 = _mm256_unpacklo_epi64(ac01, bd01);
    __m256i s1 = _mm256_unpackhi_epi64(ac01, bd01);
    __m256i s2 = _mm256_unpacklo_epi64(ac23, bd23);
    __m256i s3 = _mm256_unpackhi_epi64(ac23, bd23);
    // Rng::next_u64 four lanes wide. AVX2 has no 64-bit multiply: x * 5 is
    // (x << 2) + x and x * 9 is (x << 3) + x.
    const __m256i x5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
    const __m256i r7 = rotl4<7>(x5);
    const __m256i result = _mm256_add_epi64(_mm256_slli_epi64(r7, 3), r7);
    const __m256i t = _mm256_slli_epi64(s1, 17);
    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl4<45>(s3);
    // coin_pow2(i) succeeds iff the draw's top i bits are zero. An index-0
    // lane shifts by 64, which yields 0: it succeeds, as coin_pow2(0) does.
    const __m256i top =
        _mm256_srlv_epi64(result, _mm256_sub_epi64(sixty_four, index4));
    const unsigned hit = static_cast<unsigned>(_mm256_movemask_pd(
        _mm256_castsi256_pd(_mm256_cmpeq_epi64(top, zero))));
    out |= std::uint64_t{hit & group} << base;
    // Store back only the lanes that drew: active, with a nonzero index.
    const unsigned drew =
        group & ~static_cast<unsigned>(_mm256_movemask_pd(
                    _mm256_castsi256_pd(_mm256_cmpeq_epi64(index4, zero))));
    const __m256i ac01_next = _mm256_unpacklo_epi64(s0, s1);
    const __m256i bd01_next = _mm256_unpackhi_epi64(s0, s1);
    const __m256i ac23_next = _mm256_unpacklo_epi64(s2, s3);
    const __m256i bd23_next = _mm256_unpackhi_epi64(s2, s3);
    if (drew == 0xFu) {
      store_pairs(a, c, 0, ac01_next);
      store_pairs(b, d, 0, bd01_next);
      store_pairs(a, c, 1, ac23_next);
      store_pairs(b, d, 1, bd23_next);
      continue;
    }
    if (drew & 1u) {
      store_pair(a, 0, _mm256_castsi256_si128(ac01_next));
      store_pair(a, 1, _mm256_castsi256_si128(ac23_next));
    }
    if (drew & 2u) {
      store_pair(b, 0, _mm256_castsi256_si128(bd01_next));
      store_pair(b, 1, _mm256_castsi256_si128(bd23_next));
    }
    if (drew & 4u) {
      store_pair(c, 0, _mm256_extracti128_si256(ac01_next, 1));
      store_pair(c, 1, _mm256_extracti128_si256(ac23_next, 1));
    }
    if (drew & 8u) {
      store_pair(d, 0, _mm256_extracti128_si256(bd01_next, 1));
      store_pair(d, 1, _mm256_extracti128_si256(bd23_next, 1));
    }
  }
  return out;
}

#else  // !DUALCAST_X86

std::uint64_t gather_ladder_bits_avx2(const std::uint64_t* masks,
                                      const std::uint8_t* lane_index,
                                      std::uint64_t lanes) {
  return gather_ladder_bits_scalar(masks, lane_index, lanes);
}

std::uint64_t coin_pow2_lanes_avx2(std::span<Rng> streams,
                                   std::uint64_t lanes,
                                   const std::uint8_t* lane_index) {
  return coin_pow2_lanes_scalar(streams, lanes, lane_index);
}

#endif  // DUALCAST_X86

}  // namespace detail

namespace {

std::atomic<bool> g_force_scalar{false};

bool use_avx2() {
  static const bool supported = detail::avx2_supported();
  return supported && !g_force_scalar.load(std::memory_order_relaxed);
}

}  // namespace

bool avx2_active() { return use_avx2(); }

void force_scalar(bool on) {
  g_force_scalar.store(on, std::memory_order_relaxed);
}

std::uint64_t gather_ladder_bits(const std::uint64_t* masks,
                                 const std::uint8_t* lane_index,
                                 std::uint64_t lanes) {
  // Sparse lane words lose to the fixed 16-gather cost; the cutover point
  // is approximate (both paths produce identical bits).
  if (use_avx2() && std::popcount(lanes) >= 16) {
    return detail::gather_ladder_bits_avx2(masks, lane_index, lanes);
  }
  return detail::gather_ladder_bits_scalar(masks, lane_index, lanes);
}

std::uint64_t coin_pow2_lanes(std::span<Rng> streams, std::uint64_t lanes,
                              const std::uint8_t* lane_index) {
  DC_EXPECTS(streams.size() >= 64 || (lanes >> streams.size()) == 0);
  if (use_avx2()) {
    return detail::coin_pow2_lanes_avx2(streams, lanes, lane_index);
  }
  return detail::coin_pow2_lanes_scalar(streams, lanes, lane_index);
}

std::uint64_t coin_pow2_lanes(std::span<Rng> streams, std::uint64_t lanes,
                              int index) {
  DC_EXPECTS(index >= 0 && index <= 63);
  std::uint8_t lane_index[64];
  std::memset(lane_index, index, sizeof lane_index);
  return coin_pow2_lanes(streams, lanes, lane_index);
}

}  // namespace dualcast::simd
