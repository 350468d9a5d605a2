// MonitorOptions: the one validated bundle of monitoring knobs.
//
// Before this existed every entry point (CLI monitor/report, tests, the
// serve daemon's per-tenant shards) assembled its own MonitorConfig from
// loose flags — sanitize here, lateness there, window length somewhere
// else — and inconsistent combinations were silently clamped or ignored.
// MonitorOptions is the API boundary instead: callers fill in the public
// knobs, validate() rejects combinations that make no sense (with a
// message naming the offending pair), and monitor_config() lowers the
// validated bundle onto the internal MonitorConfig that SlidingMonitor —
// and every per-tenant shard a MonitorManager creates — actually runs.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flowdiff/monitor.h"
#include "flowdiff/task_automaton.h"

namespace flowdiff::core {

struct MonitorOptions {
  /// Window length (event time). Must be positive.
  SimDuration window = 30 * kSecond;
  /// Roll the baseline forward on clean windows.
  bool rolling_baseline = false;
  /// Route ingest through the StreamSanitizer (raw arrival order in,
  /// restored order out, per-window StreamQuality, degraded-mode diffs).
  bool sanitize = false;
  /// Sanitizer reorder horizon. Setting it without `sanitize` is an error
  /// (validate() rejects it rather than silently ignoring the horizon);
  /// unset with `sanitize` uses the SanitizerConfig default (1s).
  std::optional<SimDuration> lateness;
  /// Maintain window aggregates incrementally at feed time, as the only
  /// per-window store, so closing a window runs the cheap finalize instead
  /// of a from-scratch model build (bit-identical; a window past the
  /// DD-pair budget marks its DD pairs unstable). Off keeps each window's
  /// raw events and rebuilds it from scratch — the oracle mode the
  /// identity tests compare against.
  bool incremental = true;
  /// No longer a knob: windows are modeled serially, so validate() rejects
  /// any nonzero value and monitor_config() ignores it. Kept only because
  /// perfbench/flowbench.cc assigns it; the next benchmark change deletes
  /// it. (serve's cross-tenant pool is ManagerConfig::workers.)
  int workers = 0;
  /// Audit / provenance records retained per monitor. 0 = unbounded,
  /// which validate() rejects when `listen` is set: a long-running daemon
  /// with unbounded retention grows without limit.
  std::size_t max_audits = 4096;
  std::size_t max_provenance = 256;
  /// Contributors listed per family in a provenance record (>= 1).
  std::size_t provenance_top_k = 5;
  /// Telemetry-plane endpoint ("ADDR:PORT", ":PORT", or "PORT"); empty
  /// serves nothing. Must parse via obs::parse_listen_address.
  std::string listen;
  /// Domain knowledge: special-purpose service IPs.
  std::set<Ipv4> services;
  /// Learned task automata changes are validated against.
  std::vector<TaskAutomaton> tasks;

  /// Nullopt when the combination is coherent; otherwise a one-line
  /// message naming the offending knob(s). Nothing is clamped or fixed
  /// up — the caller decides how to surface the rejection.
  [[nodiscard]] std::optional<std::string> validate() const;

  /// Lowers the validated bundle onto the internal config SlidingMonitor
  /// consumes. Call only after validate() returned nullopt.
  [[nodiscard]] MonitorConfig monitor_config() const;
};

}  // namespace flowdiff::core
