#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/error.hpp"
#include "util/stats.hpp"

namespace greenhpc::util {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(Rng, UniformMeanConverges) {
  Rng rng(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(std::sqrt(s.variance()), std::sqrt(1.0 / 12.0), 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto v = rng.uniform_int(3, 8);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 8);
    saw_lo |= v == 3;
    saw_hi |= v == 8;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng rng(17);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(42, 42), 42);
}

TEST(Rng, NormalMoments) {
  Rng rng(19);
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.normal(10.0, 3.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(s.variance()), 3.0, 0.05);
}

TEST(Rng, ExponentialMean) {
  Rng rng(23);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(rng.exponential(0.5));
  EXPECT_NEAR(s.mean(), 2.0, 0.05);
}

TEST(Rng, WeibullMeanMatchesGammaFormula) {
  Rng rng(29);
  const double shape = 0.9, scale = 100.0;
  RunningStats s;
  for (int i = 0; i < 200000; ++i) s.add(rng.weibull(shape, scale));
  const double expected = scale * std::tgamma(1.0 + 1.0 / shape);
  EXPECT_NEAR(s.mean() / expected, 1.0, 0.02);
}

TEST(Rng, PoissonSmallMean) {
  Rng rng(31);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(static_cast<double>(rng.poisson(3.5)));
  EXPECT_NEAR(s.mean(), 3.5, 0.1);
  EXPECT_NEAR(s.variance(), 3.5, 0.2);
}

TEST(Rng, PoissonLargeMeanUsesApproximation) {
  Rng rng(37);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(static_cast<double>(rng.poisson(200.0)));
  EXPECT_NEAR(s.mean(), 200.0, 1.0);
  EXPECT_NEAR(std::sqrt(s.variance()), std::sqrt(200.0), 0.5);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(41);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, CategoricalProportions) {
  Rng rng(43);
  std::vector<double> weights = {1.0, 2.0, 7.0};
  std::vector<int> counts(3, 0);
  for (int i = 0; i < 100000; ++i) ++counts[rng.categorical(weights)];
  EXPECT_NEAR(counts[0] / 100000.0, 0.1, 0.01);
  EXPECT_NEAR(counts[1] / 100000.0, 0.2, 0.01);
  EXPECT_NEAR(counts[2] / 100000.0, 0.7, 0.01);
}

TEST(Rng, CategoricalSkipsZeroWeights) {
  Rng rng(47);
  std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.categorical(weights), 1u);
}

TEST(Rng, LogUniformRangeAndShape) {
  Rng rng(53);
  RunningStats log_s;
  for (int i = 0; i < 100000; ++i) {
    const double v = rng.log_uniform(1.0, 128.0);
    EXPECT_GE(v, 1.0);
    EXPECT_LE(v, 128.0);
    log_s.add(std::log2(v));
  }
  EXPECT_NEAR(log_s.mean(), 3.5, 0.05);  // uniform in [0,7] bits
}

TEST(Rng, PreconditionViolationsThrow) {
  Rng rng(61);
  EXPECT_THROW((void)rng.uniform(2.0, 1.0), InvalidArgument);
  EXPECT_THROW((void)rng.uniform_int(5, 4), InvalidArgument);
  EXPECT_THROW((void)rng.normal(0.0, -1.0), InvalidArgument);
  EXPECT_THROW((void)rng.exponential(0.0), InvalidArgument);
  EXPECT_THROW((void)rng.weibull(0.0, 1.0), InvalidArgument);
  EXPECT_THROW((void)rng.poisson(0.0), InvalidArgument);
  EXPECT_THROW((void)rng.bernoulli(1.5), InvalidArgument);
  EXPECT_THROW((void)rng.categorical({}), InvalidArgument);
  EXPECT_THROW((void)rng.categorical({0.0, 0.0}), InvalidArgument);
  EXPECT_THROW((void)rng.log_uniform(0.0, 1.0), InvalidArgument);
}

}  // namespace
}  // namespace greenhpc::util
