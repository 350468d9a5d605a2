// Continuous monitoring: FlowDiff as a streaming alarm source.
//
// The paper runs FlowDiff offline over two chosen logs; operationally one
// wants it "frequently building behavioral models" (SectionI). The
// SlidingMonitor consumes the controller's event stream, cuts it into
// fixed windows, adopts the first window as the known-good baseline, and
// diffs every subsequent window against it. Windows with unknown changes
// become alarms; clean windows can optionally roll the baseline forward so
// slow legitimate drift (growing workload) is absorbed.
#pragma once

#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "flowdiff/flowdiff.h"
#include "flowdiff/incremental_model.h"
#include "flowdiff/provenance.h"
#include "ingest/sanitizer.h"
#include "obs/watchdog.h"

namespace flowdiff::core {

struct MonitorOptions;  // flowdiff/monitor_options.h

struct MonitorConfig {
  FlowDiffConfig flowdiff;
  SimDuration window = 30 * kSecond;
  /// Adopt each *clean* window as the new baseline (alarmed windows never
  /// rebaseline, so a persistent fault keeps alarming).
  bool rolling_baseline = false;
  std::vector<TaskAutomaton> tasks;
  /// Audit records retained (oldest rotate out; audits_dropped() counts
  /// them). 0 keeps everything — unbounded, for short offline runs only.
  std::size_t max_audits = 4096;
  /// Snapshot the metrics registry into obs::Sampler::global() once per
  /// closed window (virtual-time cadence; no-op while obs is disabled).
  bool sample_metrics = true;
  /// Run the EWMA watchdog over the pipeline's own series after each
  /// sample and file flight-recorder warnings when the diagnoser itself
  /// degrades.
  bool self_watchdog = true;
  /// Self-watchdog tuning (EWMA weight, warmup, rules); empty rules select
  /// obs::default_pipeline_rules(). Tests use this to induce deterministic
  /// watchdog alerts (and the /healthz 503 flip).
  obs::WatchdogConfig watchdog;
  /// Route feed() through an ingest::StreamSanitizer: raw capture
  /// arrivals may be out of order, duplicated, or truncated; the monitor
  /// then windows the *sanitized* stream, stamps each WindowAudit with its
  /// StreamQuality, and diffs in degraded mode (confidence grading, alarm
  /// suppression) when the window shows corruption. Over a clean stream
  /// this is invariant: identical alarms, audits, and reports.
  bool sanitize = false;
  /// Sanitizer tuning (lateness horizon etc.); used when sanitize is set.
  ingest::SanitizerConfig ingest;
  /// Provenance records retained (every window whose diff produced unknown
  /// or suppressed changes gets one; oldest rotate out, counted by
  /// provenance_dropped()). 0 keeps everything — short offline runs only.
  std::size_t max_provenance = 256;
  /// Contributing components listed per family in a provenance record,
  /// ranked by their share of the family's divergence.
  std::size_t provenance_top_k = 5;
  /// Maintain per-window signature aggregates incrementally at feed time
  /// (the facade's core::IncrementalModeler) and keep nothing else per
  /// window: a closing window only runs the cheap finalize. Bit-identical
  /// to the from-scratch build, except that a window past the DD-pair
  /// budget has its DD pairs marked unstable (its audit says so). Off, or
  /// with an unsupported config (`min_edge_flows == 0`), the monitor keeps
  /// each window's raw events and runs Modeler::build on them — the oracle
  /// mode the identity tests compare against.
  bool incremental = true;
};

struct MonitorAlarm {
  SimTime window_begin = 0;
  SimTime window_end = 0;
  DiffReport report;
  /// Id of the ProvenanceRecord explaining this alarm (0 = none; the
  /// record may have rotated out of the bounded ring).
  std::uint64_t provenance_id = 0;
};

/// Per-window audit record: why the monitor alarmed (or stayed silent) on
/// each window it processed. One entry per processed window, in order —
/// the structured counterpart of the alarm stream, and the paper's
/// "frequently building behavioral models" made accountable.
struct WindowAudit {
  std::size_t index = 0;       ///< Processed-window index (0 = baseline).
  SimTime window_begin = 0;
  SimTime window_end = 0;
  std::size_t events = 0;      ///< Control events modeled in this window.
  double wall_ms = 0.0;        ///< Wall time spent modeling + diffing.
  bool baseline_capture = false;  ///< Window was adopted as the baseline.
  bool alarmed = false;
  bool rebaselined = false;    ///< Clean window rolled the baseline forward.
  std::size_t changes = 0;     ///< Raw signature changes found.
  std::size_t known = 0;       ///< Task-explained changes.
  std::size_t unknown = 0;     ///< Changes that raised (or would raise) alarm.
  std::size_t suppressed = 0;  ///< Unknowns withheld (degraded stream).
  std::string decision;        ///< Human-readable explanation.
  /// Ingest sanitizer's tally for this window (all-zero when
  /// MonitorConfig::sanitize is off).
  ingest::StreamQuality quality;
};

/// Coherent copy of the monitor's committed results, taken under the same
/// lock every window commit holds — the telemetry plane's /audits and
/// /report endpoints read this, so a concurrent scrape observes whole
/// windows only, never a half-committed one.
struct MonitorSnapshot {
  std::size_t windows = 0;
  bool has_baseline = false;
  SimTime baseline_begin = -1;
  std::vector<WindowAudit> audits;   ///< Retained trail, oldest first.
  std::size_t audits_dropped = 0;
  std::vector<MonitorAlarm> alarms;
  /// Retained provenance ring, oldest first (see SlidingMonitor docs).
  std::vector<ProvenanceRecord> provenance;
  std::uint64_t provenance_dropped = 0;
};

/// Live self-assessment of the monitor, the /healthz contract: healthy
/// until the watchdog files a warning or the stream shows hard corruption
/// evidence / suppressed alarms. Target-system alarms do NOT flip health —
/// an alarming monitor is doing its job; a degraded one cannot be trusted
/// to.
struct MonitorHealth {
  bool healthy = true;
  std::vector<std::string> reasons;  ///< Why unhealthy; empty when healthy.
  std::uint64_t watchdog_alerts = 0;
  std::size_t windows = 0;
  std::size_t alarms = 0;
  /// Unknown changes withheld across all windows (degraded stream).
  std::uint64_t suppressed_changes = 0;
  /// Events rejected for arriving older than the newest one ingested (an
  /// unsanitized feed broke its time-order contract) or for carrying a
  /// negative timestamp. Live, not per window.
  std::uint64_t rejected_out_of_order = 0;
  bool stream_degraded = false;
  /// Sanitizer tallies accumulated over every closed window (all-zero
  /// without a sanitizer).
  ingest::StreamQuality quality;
};

/// Every closed window is modeled, diffed and committed on the thread that
/// fed the event closing it. alarms()/audits()/provenance() are for that
/// thread; readers on other threads (the telemetry plane, the serve
/// manager) use snapshot()/health(), which copy under the commit lock.
class SlidingMonitor {
 public:
  explicit SlidingMonitor(MonitorConfig config);
  /// Constructs from the validated public option bundle (the API the CLI
  /// and the per-tenant serve shards share). The caller is expected to
  /// have run MonitorOptions::validate() first; the options' `listen`
  /// field is outside the monitor's scope and ignored here.
  explicit SlidingMonitor(const MonitorOptions& options);

  SlidingMonitor(const SlidingMonitor&) = delete;
  SlidingMonitor& operator=(const SlidingMonitor&) = delete;

  /// Feeds one control event. Timestamps must be non-negative, and without
  /// a sanitizer events must arrive in time order: an event with `ts < 0`,
  /// or older than the newest one already ingested, is rejected and counted
  /// (MonitorHealth::rejected_out_of_order, a note on the window's audit
  /// decision), never modeled. With
  /// MonitorConfig::sanitize they may arrive in raw capture order
  /// (displaced up to the lateness horizon) and the monitor windows the
  /// restored stream. Closing a window (a sanitized event's timestamp
  /// crossing the boundary) models and diffs the window that just ended,
  /// inline. Idle windows in a timestamp gap
  /// are skipped in one step, however long the gap (counted by
  /// monitor.idle_windows_skipped).
  void feed(const of::ControlEvent& event);

  /// Convenience: feeds a whole log.
  void feed(const of::ControlLog& log);

  /// Convenience: feeds a raw arrival sequence (e.g. a corrupted capture
  /// parsed with of::parse_control_events) in the order given.
  void feed(const std::vector<of::ControlEvent>& events);

  /// Closes the current partial window (end of stream / shutdown).
  void flush();

  [[nodiscard]] bool has_baseline() const;
  [[nodiscard]] const std::vector<MonitorAlarm>& alarms() const {
    return alarms_;
  }
  /// Retained audit records (newest max_audits windows), explaining each
  /// window's outcome.
  [[nodiscard]] const std::deque<WindowAudit>& audits() const {
    return audits_;
  }
  /// Audit records rotated out by the max_audits cap.
  [[nodiscard]] std::size_t audits_dropped() const;
  /// Provenance records retained (newest max_provenance), oldest first:
  /// one per window whose diff produced unknown or suppressed changes,
  /// explaining what drove (or withheld) the alarm. Call after flush();
  /// concurrent readers should use snapshot() or find_provenance().
  [[nodiscard]] const std::deque<ProvenanceRecord>& provenance() const {
    return provenance_;
  }
  /// Provenance records rotated out by the max_provenance cap.
  [[nodiscard]] std::uint64_t provenance_dropped() const;
  /// Copy of the record with the given id, taken under the commit lock
  /// (safe from any thread); nullopt if unknown or rotated out.
  [[nodiscard]] std::optional<ProvenanceRecord> find_provenance(
      std::uint64_t id) const;
  [[nodiscard]] std::size_t windows_processed() const;
  [[nodiscard]] SimTime baseline_captured_at() const;
  /// Whole-run sanitizer totals (all-zero when sanitize is off). After
  /// flush(), fed == kept + duplicates + late_dropped + truncated.
  [[nodiscard]] ingest::StreamQuality stream_quality() const;

  /// Coherent copy of every committed result, safe to call from any thread
  /// at any time (the telemetry scrape path). After flush() it is
  /// equivalent to reading alarms()/audits() directly.
  [[nodiscard]] MonitorSnapshot snapshot() const;
  /// Live health verdict (see MonitorHealth); safe from any thread.
  [[nodiscard]] MonitorHealth health() const;
  /// Alerts the self-watchdog has filed so far; safe from any thread.
  [[nodiscard]] std::uint64_t watchdog_alerts() const;

 private:
  /// feed() after the sanitizer (or directly, when sanitize is off).
  void ingest_event(const of::ControlEvent& event);
  /// Rejects one event that breaks the feed contract (time order, ts >= 0).
  void reject_event();
  void close_window(SimTime window_end);
  /// Moves the window start past `count` idle windows without closing
  /// each one (nothing was fed into them, so there is nothing to close).
  void skip_idle_windows(std::uint64_t count);
  [[nodiscard]] bool window_empty() const {
    return inc_ != nullptr ? !inc_state_.active : current_.empty();
  }
  /// Models + diffs the window [begin, window_end) held in inc_state_ (or
  /// current_ in oracle mode) and commits the outcome; the caller resets
  /// the window storage afterwards.
  void process_window(SimTime begin, SimTime window_end,
                      const ingest::StreamQuality& quality,
                      std::uint64_t rejected,
                      std::chrono::steady_clock::time_point close_wall);
  /// Stamps the wall time onto the audit record and files it, together
  /// with the window's provenance record (if the diff produced one).
  void finish_audit(WindowAudit audit,
                    std::chrono::steady_clock::time_point wall_start,
                    std::optional<ProvenanceRecord> record);

  MonitorConfig config_;
  FlowDiff flowdiff_;
  /// flowdiff_'s incremental modeler, set when config_.incremental and the
  /// model config supports it; null in oracle mode.
  const IncrementalModeler* inc_ = nullptr;
  /// Aggregates of the window currently being fed (incremental mode), the
  /// window's only copy. Its storage is reused across windows.
  IncrementalWindowState inc_state_;
  /// Engaged when config_.sanitize; feed() pushes raw arrivals through it
  /// and ingest_event() consumes the restored stream.
  std::optional<ingest::StreamSanitizer> sanitizer_;
  /// Built once in the constructor: the sanitizer's Sink is a
  /// std::function, and rebuilding it per fed event showed up in the
  /// ingest throughput bench.
  ingest::StreamSanitizer::Sink ingest_sink_;
  std::optional<BehaviorModel> baseline_;
  SimTime baseline_begin_ = -1;
  /// Raw events of the window being fed (oracle mode only). Its storage is
  /// recycled across windows, so steady-state windowing allocates nothing.
  of::ControlLog current_;
  /// Start of the open window; -1 until the first accepted event (every
  /// accepted timestamp is >= 0).
  SimTime window_start_ = -1;
  /// Newest timestamp ingested so far (valid once window_start_ >= 0).
  SimTime newest_ts_ = 0;
  /// Rejections not yet attributed to a processed window.
  std::uint64_t window_rejected_ = 0;
  /// All rejections; written by the feed thread, read by health() from any
  /// thread.
  std::atomic<std::uint64_t> rejected_total_{0};
  /// Wall time of the most recent feed()/push batch: the arrival stamp of
  /// the newest event, the first detection-latency clock edge.
  std::chrono::steady_clock::time_point feed_wall_;
  std::vector<MonitorAlarm> alarms_;
  std::deque<WindowAudit> audits_;
  std::size_t audits_dropped_ = 0;
  /// Provenance ring (guarded by mu_ like audits_); the sequence counter
  /// is touched only by the feed thread.
  std::deque<ProvenanceRecord> provenance_;
  std::uint64_t provenance_dropped_ = 0;
  std::uint64_t provenance_seq_ = 0;
  std::size_t windows_ = 0;
  /// Health accumulators (guarded by mu_): sanitizer tallies summed over
  /// every closed window, and unknown changes withheld as low-confidence.
  ingest::StreamQuality quality_total_;
  std::uint64_t suppressed_total_ = 0;
  obs::Watchdog watchdog_;

  /// Guards the committed results (baseline, alarms, audits, provenance,
  /// counters) against snapshot()/health() readers on other threads.
  mutable std::mutex mu_;
};

/// Renders the monitor's audits and alarms as a deterministic transcript:
/// identical runs produce identical text (wall-clock fields are omitted),
/// which is what the golden-trace corpus commits and diffs against. Call
/// after flush().
[[nodiscard]] std::string render_monitor_transcript(
    const SlidingMonitor& monitor);

/// Same transcript rendered from a coherent snapshot — the form the serve
/// daemon uses per tenant shard (and the /tenants/<id>/transcript route
/// serves live). After flush() it is byte-identical to the monitor
/// overload, which is what pins single-tenant serve output to the corpus
/// goldens.
[[nodiscard]] std::string render_monitor_transcript(
    const MonitorSnapshot& snap);

/// Deterministic transcript of the monitor's provenance ring (wall-clock
/// latency fields omitted, like render_monitor_transcript omits wall_ms):
/// the golden corpus pins this byte for byte, and the identity harness
/// requires it invariant between incremental and oracle mode.
/// Call after flush().
[[nodiscard]] std::string render_provenance_transcript(
    const SlidingMonitor& monitor);

}  // namespace flowdiff::core
