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

/// Renders the joined report from a coherent monitor snapshot. The sampler
/// and recorder are usually obs::Sampler::global() /
/// obs::FlightRecorder::global() after a monitor run with observability
/// enabled; empty ones degrade to a summary-only document. The telemetry
/// plane's /report endpoint renders mid-run: the snapshot was taken under
/// the commit lock, so the report never shows a half-committed window.
/// After flush(), pass SlidingMonitor::snapshot(). `html` selects HTML
/// over Markdown (same content, table markup). The document shows at most
/// 12 metric series (priority series first, then the rest alphabetically),
/// 12 evenly subsampled rows per series, and the newest 40 flight-recorder
/// events.
[[nodiscard]] std::string render_run_report(const MonitorSnapshot& snap,
                                            const obs::Sampler& sampler,
                                            const obs::FlightRecorder& recorder,
                                            bool html = false);

}  // namespace flowdiff::core
