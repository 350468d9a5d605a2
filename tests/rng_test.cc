#include "util/rng.h"

#include <gtest/gtest.h>

#include "util/stats.h"

namespace flowdiff {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.uniform() == b.uniform()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformInRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(2.0, 7.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 7.0);
  }
}

TEST(Rng, UniformIntInclusive) {
  Rng rng(5);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(1, 4);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 4);
    saw_lo |= v == 1;
    saw_hi |= v == 4;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliEdgeCases) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(9);
  int hits = 0;
  for (int i = 0; i < 10000; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(hits / 10000.0, 0.3, 0.03);
}

TEST(Rng, ExponentialMean) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.exponential(50.0));
  EXPECT_NEAR(s.mean(), 50.0, 2.0);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) {
    s.add(static_cast<double>(rng.poisson(7.0)));
  }
  EXPECT_NEAR(s.mean(), 7.0, 0.2);
}

TEST(Rng, LognormalTargetsMeanAndSd) {
  // The Benson et al. traffic model: lognormal ON/OFF with mean 100 ms and
  // sd 30 ms — the parameterization must hit those moments directly.
  Rng rng(21);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) {
    s.add(rng.lognormal_mean_sd(100.0, 30.0));
  }
  EXPECT_NEAR(s.mean(), 100.0, 1.5);
  EXPECT_NEAR(s.stddev(), 30.0, 1.5);
}

TEST(Rng, NormalWithZeroSpreadReturnsMeanAndKeepsStreamInStep) {
  Rng zero(17);
  Rng unit(17);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(zero.normal(4.5, 0.0), 4.5);
    unit.normal(4.5, 1.0);
  }
  // Both generators consumed the same draws, so they stay in lockstep.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(zero.uniform(), unit.uniform());
  }
}

TEST(Rng, ForkDecorrelates) {
  Rng parent(31);
  Rng child = parent.fork();
  std::vector<double> a;
  std::vector<double> b;
  for (int i = 0; i < 2000; ++i) {
    a.push_back(parent.uniform());
    b.push_back(child.uniform());
  }
  EXPECT_LT(std::abs(pearson(a, b)), 0.08);
}

}  // namespace
}  // namespace flowdiff
