#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <set>
#include <vector>

#include "util/assert.hpp"

namespace dualcast {
namespace {

TEST(Rng, SameSeedSameSequence) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a.next_u64(), b.next_u64()) << "diverged at step " << i;
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, Uniform01MeanNearHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) sum += rng.uniform01();
  EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Rng, UniformIntBoundsInclusive) {
  Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 10000; ++i) {
    const auto v = rng.uniform_int(-2, 5);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 8u) << "all values in [-2,5] should occur";
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_int(9, 9), 9);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(5);
  EXPECT_THROW(rng.uniform_int(3, 2), ContractViolation);
}

TEST(Rng, UniformIntRoughlyUniform) {
  Rng rng(17);
  std::vector<int> counts(10, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    ++counts[static_cast<std::size_t>(rng.uniform_int(0, 9))];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.1, 0.01);
  }
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
    EXPECT_FALSE(rng.bernoulli(-0.5));
    EXPECT_TRUE(rng.bernoulli(1.5));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(29);
  const double p = 0.3;
  int hits = 0;
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) {
    if (rng.bernoulli(p)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / trials, p, 0.01);
}

TEST(Rng, CoinPow2Frequencies) {
  Rng rng(31);
  const int trials = 200000;
  for (const int i : {0, 1, 2, 4}) {
    int hits = 0;
    for (int t = 0; t < trials; ++t) {
      if (rng.coin_pow2(i)) ++hits;
    }
    const double expected = std::ldexp(1.0, -i);
    EXPECT_NEAR(static_cast<double>(hits) / trials, expected,
                0.01 + expected * 0.05)
        << "i=" << i;
  }
}

TEST(Rng, CoinPow2ZeroAlwaysTrue) {
  Rng rng(37);
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(rng.coin_pow2(0));
}

TEST(Rng, CoinPow2RejectsBadExponent) {
  Rng rng(37);
  EXPECT_THROW(rng.coin_pow2(-1), ContractViolation);
  EXPECT_THROW(rng.coin_pow2(64), ContractViolation);
}

TEST(Rng, BitsWidth) {
  Rng rng(41);
  EXPECT_EQ(rng.bits(0), 0u);
  for (int k = 1; k <= 64; ++k) {
    const std::uint64_t v = rng.bits(k);
    if (k < 64) {
      ASSERT_LT(v, std::uint64_t{1} << k) << "k=" << k;
    }
  }
}

TEST(Rng, ForkIndependentOfParentConsumption) {
  // fork(tag) must not perturb the parent stream's own outputs.
  Rng a(99);
  Rng b(99);
  (void)a.fork(1);
  std::vector<std::uint64_t> va;
  std::vector<std::uint64_t> vb;
  for (int i = 0; i < 100; ++i) {
    va.push_back(a.next_u64());
    vb.push_back(b.next_u64());
  }
  EXPECT_EQ(va, vb);
}

TEST(Rng, ForkDistinctTagsDistinctStreams) {
  Rng parent(123);
  Rng c1 = parent.fork(1);
  Rng c2 = parent.fork(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForkSameTagTwiceStillDistinct) {
  // The fork counter makes successive forks independent even with equal tags.
  Rng parent(123);
  Rng c1 = parent.fork(7);
  Rng c2 = parent.fork(7);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u64() == c2.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForkByStringTag) {
  Rng parent(55);
  Rng a = parent.fork("adversary");
  Rng b = parent.fork("node");
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LE(equal, 1);
}

TEST(Rng, ForkReproducible) {
  Rng p1(77);
  Rng p2(77);
  Rng a = p1.fork(3);
  Rng b = p2.fork(3);
  for (int i = 0; i < 100; ++i) ASSERT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, SeedingAndForkArithmeticArePinned) {
  // Every sample path hangs off these values: node v's stream is the v-th
  // numeric fork of the trial's master, the adversary's a string fork.
  EXPECT_EQ(mix64(0), 0xe220a8397b1dcdafull);
  EXPECT_EQ(mix64(1), 0x910a2dec89025cc1ull);
  EXPECT_EQ(mix64(0xDEADBEEFull), 0x4adfb90f68c9eb9bull);
  std::uint64_t state = 42;
  EXPECT_EQ(splitmix64(state), 0xbdd732262feb6e95ull);
  EXPECT_EQ(splitmix64(state), 0x28efe333b266f103ull);
  EXPECT_EQ(state, 0x3c6ef372fe94f854ull);
  EXPECT_EQ(Rng(1).next_u64(), 0xb3f2af6d0fc710c5ull);
  EXPECT_EQ(Rng(1).fork(0).next_u64(), 0x983bee952005d755ull);
  EXPECT_EQ(Rng(1).fork(1).next_u64(), 0xef240c5259756210ull);
  EXPECT_EQ(Rng(1).fork("link-process").next_u64(), 0xe5f0afd1895c8064ull);
  // Successive forks of one master, as the engine makes them for n = 2.
  Rng master(1);
  EXPECT_EQ(master.fork(0).next_u64(), 0x983bee952005d755ull);
  EXPECT_EQ(master.fork(1).next_u64(), 0x623e63bf4b338916ull);
  EXPECT_EQ(master.fork("link-process").next_u64(), 0x4057e0ca6d842df0ull);
}

class RngPow2Param : public ::testing::TestWithParam<int> {};

TEST_P(RngPow2Param, MatchesExpectedProbability) {
  const int i = GetParam();
  Rng rng(1000 + static_cast<std::uint64_t>(i));
  const int trials = 400000;
  int hits = 0;
  for (int t = 0; t < trials; ++t) {
    if (rng.coin_pow2(i)) ++hits;
  }
  const double expected = std::ldexp(1.0, -i);
  const double sigma =
      std::sqrt(expected * (1 - expected) / trials);
  EXPECT_NEAR(static_cast<double>(hits) / trials, expected, 6 * sigma + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Ladder, RngPow2Param, ::testing::Values(1, 2, 3, 5, 8));

TEST(RngWordMask, MatchesExpectedProbabilityPerBit) {
  // bernoulli_pow2_mask(i): each of the 64 bits is Bernoulli(2^-i).
  for (const int i : {0, 1, 3, 6}) {
    Rng rng(9000 + static_cast<std::uint64_t>(i));
    const int masks = 8000;
    std::int64_t set_bits = 0;
    for (int t = 0; t < masks; ++t) {
      set_bits += std::popcount(rng.bernoulli_pow2_mask(i));
    }
    const double trials = 64.0 * masks;
    const double expected = std::ldexp(1.0, -i);
    const double sigma = std::sqrt(expected * (1 - expected) / trials);
    EXPECT_NEAR(static_cast<double>(set_bits) / trials, expected,
                6 * sigma + 1e-9)
        << "i=" << i;
  }
}

TEST(RngWordMask, LanesAreIndependentAcrossDraws) {
  // No lane should be stuck: over many masks every bit position mixes.
  Rng rng(4242);
  std::array<int, 64> lane_hits{};
  const int masks = 4000;
  for (int t = 0; t < masks; ++t) {
    const std::uint64_t m = rng.bernoulli_pow2_mask(2);
    for (int b = 0; b < 64; ++b) lane_hits[static_cast<std::size_t>(b)] +=
        static_cast<int>((m >> b) & 1u);
  }
  const double expected = masks * 0.25;
  const double sigma = std::sqrt(masks * 0.25 * 0.75);
  for (int b = 0; b < 64; ++b) {
    EXPECT_NEAR(lane_hits[static_cast<std::size_t>(b)], expected, 6 * sigma)
        << "lane " << b;
  }
}

TEST(Pow2MaskLadderTest, MasksAreNestedPrefixes) {
  // mask(i+1) ⊆ mask(i), mask(0) is all-ones, and deepening is lazy over
  // one stream: the same ladder depth from the same stream state is
  // reproducible.
  Rng a(13);
  Rng b(13);
  Pow2MaskLadder la(a);
  Pow2MaskLadder lb(b);
  EXPECT_EQ(la.mask(0), ~std::uint64_t{0});
  std::uint64_t prev = la.mask(0);
  for (int i = 1; i <= 12; ++i) {
    const std::uint64_t m = la.mask(i);
    EXPECT_EQ(m & ~prev, 0u) << "mask(" << i << ") not nested";
    prev = m;
  }
  // Asking out of order resolves to the same masks (lazy prefix property).
  EXPECT_EQ(lb.mask(12), la.mask(12));
  EXPECT_EQ(lb.mask(5), la.mask(5));
}

TEST(Pow2MaskLadderTest, LadderDepthMatchesProbability) {
  // Consuming one lane per ladder (the kernel contract) at depth i is a
  // Bernoulli(2^-i) trial.
  Rng rng(2718);
  const int trials = 60000;
  const int depth = 4;
  int hits = 0;
  for (int t = 0; t < trials; ++t) {
    Pow2MaskLadder ladder(rng);
    hits += static_cast<int>((ladder.mask(depth) >> (t % 64)) & 1u);
  }
  const double expected = std::ldexp(1.0, -depth);
  const double sigma = std::sqrt(expected * (1 - expected) / trials);
  EXPECT_NEAR(static_cast<double>(hits) / trials, expected, 6 * sigma);
}

}  // namespace
}  // namespace dualcast
