// Self-measurement for a measurement tool: a process-wide metrics registry.
//
// FlowDiff diagnoses other systems from their control traffic; this module
// gives the pipeline the same courtesy. Counters, gauges (with a high-water
// mark), and fixed-bucket latency histograms (reusing util/histogram) live
// in a named registry that exporters (obs/export.h) can snapshot.
//
// Observability is off by default. Every mutation checks one relaxed atomic
// flag first, so instrumented hot paths pay a single predictable branch
// when disabled — perfbench's obs.overhead_pct row times the production
// path with obs off and on.
//
// Call-site idiom (resolves the name lookup once):
//
//   static obs::Counter& events =
//       obs::Registry::global().counter("sim.events.dispatched");
//   events.inc();
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/histogram.h"

namespace flowdiff::obs {

namespace detail {
extern std::atomic<bool> g_enabled;  ///< Exposed so enabled() can inline.
}  // namespace detail

/// Global observability switch. Mutations on Counter/Gauge/LatencyHistogram
/// and Span creation are no-ops while disabled. Inline on purpose: the
/// disabled fast path must cost one relaxed load and a branch, not a call.
[[nodiscard]] inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

class Counter {
 public:
  void inc(std::uint64_t n = 1) {
    if (!enabled()) return;
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Signed instantaneous value plus the peak it ever reached (the peak is
/// what matters for e.g. event-queue depth, which is back to ~0 by the time
/// anyone exports).
class Gauge {
 public:
  void set(std::int64_t v) {
    if (!enabled()) return;
    value_.store(v, std::memory_order_relaxed);
    bump_peak(v);
  }
  void add(std::int64_t delta) {
    if (!enabled()) return;
    bump_peak(value_.fetch_add(delta, std::memory_order_relaxed) + delta);
  }
  [[nodiscard]] std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t peak() const {
    return peak_.load(std::memory_order_relaxed);
  }
  void reset() {
    value_.store(0, std::memory_order_relaxed);
    peak_.store(0, std::memory_order_relaxed);
  }

 private:
  void bump_peak(std::int64_t v) {
    std::int64_t seen = peak_.load(std::memory_order_relaxed);
    while (v > seen &&
           !peak_.compare_exchange_weak(seen, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::int64_t> value_{0};
  std::atomic<std::int64_t> peak_{0};
};

struct HistogramSnapshot {
  double bin_width = 1.0;
  double origin = 0.0;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::vector<std::uint64_t> counts;  ///< Per-bin, trailing zeros trimmed.

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : sum / static_cast<double>(count);
  }

  /// Approximate quantile from the fixed-width bins (midpoint of the bin
  /// where the cumulative count crosses q, clamped to [min, max] so sparse
  /// histograms never report a quantile beyond an observed value);
  /// exporters and the time-series sampler share this.
  [[nodiscard]] double quantile(double q) const;
};

/// Fixed-bucket latency histogram: wraps util Histogram with sum/min/max
/// tracking and a mutex (the underlying bins are not thread safe).
class LatencyHistogram {
 public:
  explicit LatencyHistogram(double bin_width, double origin = 0.0)
      : hist_(bin_width, origin) {}

  void observe(double value);
  [[nodiscard]] std::uint64_t count() const;
  [[nodiscard]] HistogramSnapshot snapshot() const;
  void reset();

 private:
  mutable std::mutex mu_;
  Histogram hist_;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

struct GaugeSnapshot {
  std::int64_t value = 0;
  std::int64_t peak = 0;
};

/// Aggregated per-name span timing (filled in by obs/trace.h; carried here
/// so one Snapshot covers everything the exporters print).
struct SpanAggregate {
  std::uint64_t count = 0;
  double total_ms = 0.0;
  double max_ms = 0.0;
};

/// A coherent copy of every metric, ordered by name. Exporters consume
/// this; obs::snapshot() (export.h) also merges in span aggregates.
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, GaugeSnapshot>> gauges;
  std::vector<std::pair<std::string, HistogramSnapshot>> histograms;
  std::vector<std::pair<std::string, SpanAggregate>> spans;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty() &&
           spans.empty();
  }
};

/// Named metric registry. Lookup registers on first use and returns a
/// stable reference; instruments live for the life of the process.
class Registry {
 public:
  static Registry& global();

  Counter& counter(std::string_view name);
  Gauge& gauge(std::string_view name);
  /// The (bin_width, origin) of the first registration wins; later lookups
  /// by the same name ignore their arguments.
  LatencyHistogram& histogram(std::string_view name, double bin_width,
                              double origin = 0.0);

  [[nodiscard]] Snapshot snapshot() const;
  /// Zeroes every value but keeps the registrations (references stay valid).
  void reset();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>, std::less<>>
      histograms_;
};

}  // namespace flowdiff::obs
