#include "util/stats.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/rng.h"

namespace flowdiff {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(RunningStats, SingleValue) {
  RunningStats s;
  s.add(42.0);
  EXPECT_EQ(s.count(), 1u);
  EXPECT_DOUBLE_EQ(s.mean(), 42.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 42.0);
  EXPECT_DOUBLE_EQ(s.max(), 42.0);
}

TEST(RunningStats, KnownMeanAndVariance) {
  RunningStats s;
  for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(v);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential) {
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.normal(10.0, 3.0);
    whole.add(v);
    (i < 400 ? left : right).add(v);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-6);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmpty) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(Pearson, PerfectPositiveCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
}

TEST(Pearson, PerfectNegativeCorrelation) {
  std::vector<double> x{1, 2, 3, 4, 5};
  std::vector<double> y{10, 8, 6, 4, 2};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesGivesZero) {
  std::vector<double> x{3, 3, 3, 3};
  std::vector<double> y{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(pearson(x, y), 0.0);
}

TEST(Pearson, IndependentSeriesNearZero) {
  Rng rng(7);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(rng.uniform());
    y.push_back(rng.uniform());
  }
  EXPECT_LT(std::abs(pearson(x, y)), 0.05);
}

TEST(ChiSquared, IdenticalDistributionsAreZero) {
  std::vector<double> o{0.5, 0.3, 0.2};
  EXPECT_DOUBLE_EQ(chi_squared(o, o), 0.0);
}

TEST(ChiSquared, KnownValue) {
  std::vector<double> observed{10, 20, 30};
  std::vector<double> expected{20, 20, 20};
  // (100 + 0 + 100) / 20 = 10.
  EXPECT_DOUBLE_EQ(chi_squared(observed, expected), 10.0);
}

TEST(ChiSquared, ZeroExpectedCellPenalizedByObserved) {
  std::vector<double> observed{5, 1};
  std::vector<double> expected{0, 1};
  EXPECT_DOUBLE_EQ(chi_squared(observed, expected), 5.0);
}

TEST(Percentile, MedianAndExtremes) {
  std::vector<double> data{5, 1, 3, 2, 4};
  EXPECT_DOUBLE_EQ(percentile(data, 50), 3.0);
  EXPECT_DOUBLE_EQ(percentile(data, 0), 1.0);
  EXPECT_DOUBLE_EQ(percentile(data, 100), 5.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(EmpiricalCdf, MonotoneAndEndsAtOne) {
  std::vector<double> data{3, 1, 2, 2, 5};
  const auto cdf = empirical_cdf(data);
  ASSERT_FALSE(cdf.empty());
  double prev_v = -1e300;
  double prev_f = 0.0;
  for (const auto& [v, f] : cdf) {
    EXPECT_GT(v, prev_v);
    EXPECT_GE(f, prev_f);
    prev_v = v;
    prev_f = f;
  }
  EXPECT_DOUBLE_EQ(cdf.back().second, 1.0);
  // Duplicate value collapsed: 2 appears with cumulative fraction 3/5.
  EXPECT_DOUBLE_EQ(cdf[1].first, 2.0);
  EXPECT_DOUBLE_EQ(cdf[1].second, 0.6);
}

// Property sweep: Pearson is always within [-1, 1] and symmetric.
class PearsonPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PearsonPropertyTest, BoundedAndSymmetric) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  std::vector<double> x;
  std::vector<double> y;
  const int n = 3 + GetParam() % 50;
  for (int i = 0; i < n; ++i) {
    x.push_back(rng.normal(0, 1 + GetParam() % 5));
    y.push_back(rng.normal(0, 1) + 0.1 * x.back() * (GetParam() % 3));
  }
  const double r = pearson(x, y);
  EXPECT_GE(r, -1.0 - 1e-12);
  EXPECT_LE(r, 1.0 + 1e-12);
  EXPECT_NEAR(pearson(y, x), r, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PearsonPropertyTest,
                         ::testing::Range(1, 25));

}  // namespace
}  // namespace flowdiff
