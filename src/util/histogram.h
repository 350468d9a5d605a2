// Fixed-bin-width histogram with peak extraction.
//
// The delay-distribution (DD) signature bins inter-flow delays (the paper
// uses 20 ms bins) and compares the *peaks* of the resulting frequency
// distribution between two logs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace flowdiff {

class Histogram {
 public:
  /// Bins [0, bin_width), [bin_width, 2*bin_width), ... Values below `origin`
  /// are clamped into the first bin.
  explicit Histogram(double bin_width, double origin = 0.0);

  void add(double value);
  /// Drops every sample, keeping the bin storage for reuse.
  void clear() {
    counts_.clear();
    total_ = 0;
  }

  [[nodiscard]] double bin_width() const { return bin_width_; }
  [[nodiscard]] double origin() const { return origin_; }
  [[nodiscard]] std::size_t bin_count() const { return counts_.size(); }
  [[nodiscard]] std::uint64_t count_at(std::size_t bin) const;
  [[nodiscard]] std::uint64_t total() const { return total_; }

  /// Midpoint value of a bin.
  [[nodiscard]] double bin_center(std::size_t bin) const;

  /// Bin index of the global mode; 0 if empty.
  [[nodiscard]] std::size_t mode_bin() const;

  struct Peak {
    double center = 0.0;       ///< Bin midpoint value.
    std::uint64_t count = 0;   ///< Samples in the peak bin.
    double fraction = 0.0;     ///< count / total.
  };

  /// Local maxima whose count is at least `min_fraction` of the total,
  /// strongest first. A bin is a local maximum if it is >= both neighbors
  /// and strictly greater than at least one of them (plateaus report their
  /// first bin).
  [[nodiscard]] std::vector<Peak> peaks(double min_fraction = 0.05) const;

  /// Strongest peak, or a zero Peak when the histogram is empty.
  [[nodiscard]] Peak top_peak() const;

  [[nodiscard]] const std::vector<std::uint64_t>& counts() const {
    return counts_;
  }

 private:
  double bin_width_;
  double origin_;
  std::uint64_t total_ = 0;
  std::vector<std::uint64_t> counts_;
};

}  // namespace flowdiff
