#include "util/stats.h"

#include <algorithm>
#include <cmath>

namespace flowdiff {

void RunningStats::add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const { return count_ == 0 ? 0.0 : mean_; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

void RunningStats::merge(const RunningStats& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  const double delta = other.mean_ - mean_;
  const auto n1 = static_cast<double>(count_);
  const auto n2 = static_cast<double>(other.count_);
  const double n = n1 + n2;
  m2_ += other.m2_ + delta * delta * n1 * n2 / n;
  mean_ = (n1 * mean_ + n2 * other.mean_) / n;
  count_ += other.count_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

double pearson(std::span<const double> x, std::span<const double> y) {
  const std::size_t n = std::min(x.size(), y.size());
  if (n < 2) return 0.0;
  double mx = 0.0;
  double my = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    mx += x[i];
    my += y[i];
  }
  mx /= static_cast<double>(n);
  my /= static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  if (sxx <= 0.0 || syy <= 0.0) return 0.0;
  return sxy / std::sqrt(sxx * syy);
}

double chi_squared(std::span<const double> observed,
                   std::span<const double> expected) {
  const std::size_t n = std::min(observed.size(), expected.size());
  double chi2 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    if (expected[i] > 0.0) {
      const double d = observed[i] - expected[i];
      chi2 += d * d / expected[i];
    } else {
      chi2 += observed[i];
    }
  }
  return chi2;
}

double percentile(std::span<const double> data, double p) {
  if (data.empty()) return 0.0;
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  const double clamped = std::clamp(p, 0.0, 100.0);
  const double rank = clamped / 100.0 * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

std::vector<std::pair<double, double>> empirical_cdf(
    std::span<const double> data) {
  std::vector<double> sorted(data.begin(), data.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<std::pair<double, double>> cdf;
  cdf.reserve(sorted.size());
  const auto n = static_cast<double>(sorted.size());
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    // Collapse runs of equal values into one point at the final fraction.
    if (!cdf.empty() && cdf.back().first == sorted[i]) {
      cdf.back().second = static_cast<double>(i + 1) / n;
    } else {
      cdf.emplace_back(sorted[i], static_cast<double>(i + 1) / n);
    }
  }
  return cdf;
}

}  // namespace flowdiff
