// MonitorOptions: the one validated bundle of monitoring knobs, and the
// only way to build a monitor.
//
// Every entry point (CLI monitor/report, the serve daemon's per-tenant
// shards, the corpus replayer, tests, benches) fills in the public knobs
// and hands the bundle to SlidingMonitor or MonitorManager, whose
// constructors run validate() and throw std::invalid_argument with its
// message, so no monitor exists whose window, sanitizer horizon or other
// knobs were not checked together. validate() rejects combinations that
// make no sense (with a message naming the offending pair); nothing is
// silently clamped or ignored. monitor_config() lowers the bundle onto
// the two sub-configs the monitor's modeler and sanitizer are built from.
// Retention is not an option: every monitor keeps 4096 audits and 256
// explained windows; an alarm's report rotates out with its provenance.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flowdiff/flowdiff.h"
#include "flowdiff/task_automaton.h"
#include "ingest/sanitizer.h"

namespace flowdiff::core {

/// What MonitorOptions lowers to: the modeling/diff facade's config (the
/// service set) and the ingest sanitizer's (the lateness horizon).
struct MonitorConfig {
  FlowDiffConfig flowdiff;
  ingest::SanitizerConfig ingest;
};

struct MonitorOptions {
  /// Window length (event time). Must be positive.
  SimDuration window = 30 * kSecond;
  /// Adopt each *clean* window as the new baseline (alarmed windows never
  /// rebaseline, so a persistent fault keeps alarming).
  bool rolling_baseline = false;
  /// Route ingest through the StreamSanitizer: raw capture arrivals may be
  /// out of order, duplicated, or truncated; the monitor then windows the
  /// restored stream, stamps each WindowAudit with its StreamQuality, and
  /// diffs in degraded mode (confidence grading, alarm suppression) when
  /// the window shows corruption. Over a clean stream this is invariant:
  /// identical alarms, audits, and reports.
  bool sanitize = false;
  /// Sanitizer reorder horizon. Setting it without `sanitize` is an error
  /// (validate() rejects it rather than silently ignoring the horizon);
  /// unset with `sanitize` uses the SanitizerConfig default (1s).
  std::optional<SimDuration> lateness;
  /// Maintain window aggregates incrementally at feed time, as the only
  /// per-window store, so closing a window runs the cheap finalize instead
  /// of a from-scratch model build (bit-identical). Off keeps each window's
  /// raw events and rebuilds it from scratch — the oracle mode the
  /// identity tests compare against.
  bool incremental = true;
  /// No longer a knob: windows are modeled serially, so validate() rejects
  /// any nonzero value and monitor_config() ignores it. Kept only because
  /// perfbench/flowbench.cc assigns it; the next benchmark change deletes
  /// it. (serve's cross-tenant pool is ManagerConfig::workers.)
  int workers = 0;
  /// Telemetry-plane endpoint ("ADDR:PORT", ":PORT", or "PORT"); empty
  /// serves nothing. Must parse via obs::parse_listen_address. Outside the
  /// monitor's own scope: only validated there.
  std::string listen;
  /// Domain knowledge: special-purpose service IPs.
  std::set<Ipv4> services;
  /// Learned task automata changes are validated against.
  std::vector<TaskAutomaton> tasks;

  /// Nullopt when the combination is coherent; otherwise a one-line
  /// message naming the offending knob(s). Nothing is clamped or fixed
  /// up — the caller decides how to surface the rejection.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// The modeler and sanitizer configs these options lower to (the
  /// SanitizerConfig default horizon when `lateness` is unset).
  [[nodiscard]] MonitorConfig monitor_config() const;
};

/// Returns `options` when validate() accepts them; otherwise throws
/// std::invalid_argument carrying validate()'s message. The monitor and
/// manager constructors run it first.
const MonitorOptions& validated(const MonitorOptions& options);

}  // namespace flowdiff::core
