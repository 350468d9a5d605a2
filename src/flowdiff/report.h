// Self-contained run reports: the monitor's WindowAudit trail, the sampled
// metric time series, per-alarm diagnosis, and the flight-recorder tail
// joined into one Markdown (or HTML) document — the artifact `flowdiff
// report` and `flowdiff monitor --report=FILE` hand an operator after a
// run, in the spirit of the paper's per-window evaluation figures.
#pragma once

#include <string>

#include "flowdiff/monitor.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"

namespace flowdiff::core {

struct RunReportOptions {
  /// Emit HTML instead of Markdown (same content, table markup).
  bool html = false;
  std::string title = "FlowDiff run report";
  /// Metric series sections rendered (priority series first, then the
  /// rest alphabetically until the cap).
  std::size_t max_series = 12;
  /// Rows per series table; longer series are evenly subsampled.
  std::size_t max_rows_per_series = 12;
  /// Newest flight-recorder events included in the excerpt.
  std::size_t recorder_tail = 40;
};

/// Renders the joined report from a coherent monitor snapshot. The sampler
/// and recorder are usually obs::Sampler::global() /
/// obs::FlightRecorder::global() after a monitor run with observability
/// enabled; empty ones degrade to a summary-only document. The telemetry
/// plane's /report endpoint renders mid-run: the snapshot was taken under
/// the commit lock, so the report never shows a half-committed window.
/// After flush(), pass SlidingMonitor::snapshot().
[[nodiscard]] std::string render_run_report(
    const MonitorSnapshot& snap, const obs::Sampler& sampler,
    const obs::FlightRecorder& recorder, const RunReportOptions& options = {});

}  // namespace flowdiff::core
