// Temporal observability: fixed-memory time series over the metrics
// registry, and the self-watchdog drawn from them.
//
// The registry (obs/metrics.h) only answers "what is the value now"; the
// paper's evaluation (Figs. 9-12) and any long monitor run need "how did it
// evolve". A Sampler snapshots every registered counter/gauge/histogram at
// a caller-chosen virtual-time cadence into per-metric Series ring buffers.
// Each Series holds at most Series::kDefaultCapacity points; on overflow
// adjacent points are merged 2:1 (downsample-on-overflow), so memory stays
// fixed while the whole run remains covered at halving resolution.
// Counters additionally get a derived "<name>.rate" per-second series,
// histograms derived ".count"/".mean"/".p50"/".p99" series.
//
// Sampling is driven externally: every SlidingMonitor samples the
// process-wide Sampler::global() once per closed window with the window's
// virtual end time. The sampler keeps one clock: a sample at or before the
// last accepted one is refused, so every series is time-ordered and
// tenants closing windows at the same end time share one registry
// snapshot. Sampler::sample() is a no-op while obs is disabled, so
// instrumented paths pay nothing when off.
//
// Self-watchdog: FlowDiff watches a data center; the Sampler watches
// FlowDiff. Each accepted sample feeds an EWMA per pipeline health series
// (event-queue depth, controller service-time p99, the monitor's
// per-window modeling cost) and files a flight-recorder warning, counted
// by obs.watchdog.alerts, when the newest value blows past the smoothed
// history -- i.e. when the diagnoser itself starts to degrade.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace flowdiff::obs {

/// One stored point: a bucket of >=1 raw samples. After k compactions every
/// full bucket covers 2^k raw samples; t_begin/t_end bracket the virtual
/// time the bucket absorbed.
struct SeriesPoint {
  double t_begin = 0.0;
  double t_end = 0.0;
  double mean = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::uint64_t count = 0;

  [[nodiscard]] bool operator==(const SeriesPoint&) const = default;
};

/// Append-only series with bounded memory. Appends must carry
/// non-decreasing timestamps (virtual seconds). Not thread safe on its own;
/// the owning Sampler serializes access.
class Series {
 public:
  static constexpr std::size_t kDefaultCapacity = 512;

  explicit Series(std::size_t capacity = kDefaultCapacity)
      : capacity_(capacity < 2 ? 2 : capacity) {}

  void append(double t, double value);

  /// Stored buckets plus the partial tail bucket, oldest first. The first
  /// point's t_begin is the first appended timestamp and the last point's
  /// t_end the most recent one; t_begin is strictly increasing.
  [[nodiscard]] std::vector<SeriesPoint> points() const;

  /// Raw samples folded into each full bucket (doubles per compaction).
  [[nodiscard]] std::uint64_t stride() const { return stride_; }
  /// Raw samples ever appended.
  [[nodiscard]] std::uint64_t total() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }
  /// Most recent raw sample (count==1 bucket); empty() must be false.
  [[nodiscard]] SeriesPoint last() const;

  void clear();

 private:
  void compact();

  std::size_t capacity_;
  std::uint64_t stride_ = 1;
  std::uint64_t total_ = 0;
  SeriesPoint acc_{};      ///< Accumulating bucket; count==0 when empty.
  SeriesPoint last_raw_{};
  std::vector<SeriesPoint> points_;
};

/// Snapshots the metrics registry into named Series and runs the
/// self-watchdog over them. All public entry points are thread safe;
/// sample() is a no-op while obs is disabled.
class Sampler {
 public:
  /// Process-wide instance: every SlidingMonitor feeds it once per window
  /// and the CLI's --series/report paths and the telemetry plane read it.
  static Sampler& global();

  /// Snapshots every registered metric at virtual time `t` (seconds), then
  /// runs the watchdog over the points this sample appended. Refused (a
  /// no-op) unless `t` is after the last accepted sample.
  void sample(double t);

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::optional<Series> find(std::string_view name) const;
  /// Name -> series copies, ordered by name.
  [[nodiscard]] std::vector<std::pair<std::string, Series>> series() const;
  /// Accepted sample() calls (each covers the whole registry).
  [[nodiscard]] std::uint64_t samples_taken() const;
  /// Watchdog warnings filed so far; each watched series is judged once
  /// per accepted sample.
  [[nodiscard]] std::uint64_t watchdog_alerts() const;

  /// Drops every series, the clock and the watchdog state and count.
  void clear();

 private:
  /// EWMA state of one watched series.
  struct Watch {
    double ewma = 0.0;
    std::size_t samples = 0;
  };

  Series& series_locked(const std::string& name);
  /// Judges the watched series this sample appended to at `t`.
  void watch_locked(double t);

  mutable std::mutex mu_;
  std::map<std::string, Series, std::less<>> series_;
  std::map<std::string, std::pair<double, double>, std::less<>>
      last_counter_;  ///< name -> (t, value) of the previous sample.
  /// Time of the last accepted sample; -inf until the first.
  double last_t_ = -std::numeric_limits<double>::infinity();
  std::uint64_t samples_ = 0;
  /// One per watched series, in the order of the rules in timeseries.cc.
  std::array<Watch, 3> watches_{};
  std::uint64_t watchdog_alerts_ = 0;
};

// --- Series exporters ------------------------------------------------------

/// CSV with one row per stored point:
///   series,t_begin,t_end,mean,min,max,count
[[nodiscard]] std::string render_series_csv(
    const std::vector<std::pair<std::string, Series>>& series);
[[nodiscard]] std::string render_series_csv(const Sampler& sampler);

/// {"series": {"name": {"stride": N, "points": [[t_begin,t_end,mean,min,
/// max,count], ...]}, ...}} — parse_series_json() inverts the points.
[[nodiscard]] std::string render_series_json(
    const std::vector<std::pair<std::string, Series>>& series);
[[nodiscard]] std::string render_series_json(const Sampler& sampler);

/// Point-vector forms of the two renderers, for pre-filtered views (e.g.
/// the telemetry plane's ?from=/?to= time-range queries). Same formats;
/// the JSON form emits "stride": 0, since a filtered slice no longer has
/// a single compaction stride.
[[nodiscard]] std::string render_series_csv(
    const std::vector<std::pair<std::string, std::vector<SeriesPoint>>>&
        series);
[[nodiscard]] std::string render_series_json(
    const std::vector<std::pair<std::string, std::vector<SeriesPoint>>>&
        series);

/// Inverse of render_series_json: name -> points. nullopt on malformed
/// input.
[[nodiscard]] std::optional<
    std::vector<std::pair<std::string, std::vector<SeriesPoint>>>>
parse_series_json(std::string_view text);

/// Inverse of render_series_csv: name -> points, rows of one series
/// grouped in file order. nullopt on a malformed header, row arity
/// mismatch, or non-numeric cell.
[[nodiscard]] std::optional<
    std::vector<std::pair<std::string, std::vector<SeriesPoint>>>>
parse_series_csv(std::string_view text);

}  // namespace flowdiff::obs
