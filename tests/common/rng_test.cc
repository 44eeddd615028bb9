#include "common/rng.h"

#include <gtest/gtest.h>

#include <cmath>

namespace ppr {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformDoubleInHalfOpenUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.UniformDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformDoubleMeanIsHalf) {
  Rng rng(8);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.UniformDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, UniformIntRespectsBound) {
  Rng rng(9);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.UniformInt(17), 17u);
  }
}

TEST(RngTest, UniformIntCoversSupport) {
  Rng rng(10);
  std::vector<int> counts(8, 0);
  for (int i = 0; i < 8000; ++i) {
    ++counts[rng.UniformInt(8)];
  }
  for (int c : counts) {
    EXPECT_GT(c, 800);  // each bucket near 1000
    EXPECT_LT(c, 1200);
  }
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(12);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(RngTest, NormalMomentsMatchStandardNormal) {
  Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.03);
}

TEST(RngTest, NormalScalesAndShifts) {
  Rng rng(14);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.Normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, ExponentialMeanIsInverseRate) {
  Rng rng(15);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.Exponential(4.0);
    EXPECT_GE(x, 0.0);
    sum += x;
  }
  EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(16);
  Rng child = parent.Fork();
  // The child stream must not mirror the parent.
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (parent.Next() == child.Next()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~std::uint64_t{0});
  Rng rng(17);
  EXPECT_NE(rng(), rng());
}

// Pins the first draws of one seed, so the stream every seeded
// experiment depends on cannot change unnoticed. The integer-exact
// draws are compared exactly; Normal goes through libm and is compared
// to within 4 ulps.
TEST(RngTest, FirstDrawsPinned) {
  Rng next(2024), uniform(2024), integer(2024), coin(2024), normal(2024);
  const std::uint64_t kNext[] = {0x0E48715A13D7772Eull, 0xC837F3EE8A7A1065ull,
                                 0x1272314B15EE5001ull, 0x28E323A6ABE2A46Bull};
  const double kUniform[] = {0.055792889110163335, 0.78210377286675503,
                            0.072054940062963313, 0.15971587008597021};
  const std::uint64_t kInteger[] = {14, 5, 1, 11, 7, 5, 8, 12};
  const bool kCoin[] = {true, false, true, true, false, true, false, true};
  const double kNormal[] = {0.48134687406176407, 1.2324336570310905,
                           0.023078911007318733, -0.060044502727841918};
  for (const auto v : kNext) EXPECT_EQ(next.Next(), v);
  for (const auto v : kUniform) EXPECT_EQ(uniform.UniformDouble(), v);
  for (const auto v : kInteger) EXPECT_EQ(integer.UniformInt(16), v);
  for (const auto v : kCoin) EXPECT_EQ(coin.Bernoulli(0.3), v);
  for (const auto v : kNormal) EXPECT_DOUBLE_EQ(normal.Normal(), v);
}

}  // namespace
}  // namespace ppr
