// Statistical primitives used by the FlowDiff signatures.
//
// The paper compares behavioral models with a handful of classic statistics:
// mean/standard deviation (ISL, CRT), Pearson correlation (the PC signature,
// which the paper calls partial correlation), and a chi-squared fitness test
// (CI signature). All of them are implemented here on contiguous ranges.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace flowdiff {

/// Single-pass accumulator for mean / variance / extremes (Welford).
class RunningStats {
 public:
  void add(double x);

  [[nodiscard]] std::size_t count() const { return count_; }
  [[nodiscard]] double mean() const;
  /// Sample variance (n-1 denominator); 0 for fewer than two samples.
  [[nodiscard]] double variance() const;
  [[nodiscard]] double stddev() const;
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] double sum() const { return sum_; }

  /// Merges another accumulator into this one (parallel Welford).
  void merge(const RunningStats& other);

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Pearson correlation coefficient of two equal-length series.
/// Returns 0 when either series has zero variance or fewer than 2 points.
double pearson(std::span<const double> x, std::span<const double> y);

/// Chi-squared fitness statistic sum((O-E)^2 / E) over paired observed and
/// expected values; cells with E == 0 contribute O (a bounded penalty for
/// flows appearing where none were expected).
double chi_squared(std::span<const double> observed,
                   std::span<const double> expected);

/// p-th percentile (0..100) of a copy of the data (linear interpolation).
/// Returns 0 for empty input.
double percentile(std::span<const double> data, double p);

/// Empirical CDF evaluated at sorted sample points; `points[i].first` is the
/// value, `.second` the cumulative fraction <= value.
std::vector<std::pair<double, double>> empirical_cdf(
    std::span<const double> data);

}  // namespace flowdiff
