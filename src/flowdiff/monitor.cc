#include "flowdiff/monitor.h"

#include <chrono>
#include <limits>
#include <map>
#include <utility>

#include "flowdiff/monitor_options.h"

#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "util/table.h"

namespace flowdiff::core {

namespace {

struct MonitorMetrics {
  obs::Counter& windows =
      obs::Registry::global().counter("monitor.windows");
  obs::Counter& alarms = obs::Registry::global().counter("monitor.alarms");
  obs::Counter& clean = obs::Registry::global().counter("monitor.clean");
  obs::Counter& rebaselines =
      obs::Registry::global().counter("monitor.rebaselines");
  obs::Counter& events = obs::Registry::global().counter("monitor.events");
  obs::LatencyHistogram& window_ms =
      obs::Registry::global().histogram("monitor.window_ms", 5.0);
  obs::LatencyHistogram& events_per_window =
      obs::Registry::global().histogram("monitor.events_per_window", 100.0);
  obs::Gauge& audits_dropped =
      obs::Registry::global().gauge("monitor.audits_dropped");
  // Detection-latency stages (see StageLatency in provenance.h): the
  // wall-clock path from the window's newest event arriving at feed() to
  // the monitor committing its verdict.
  obs::LatencyHistogram& latency_ingest =
      obs::Registry::global().histogram("monitor.latency.ingest_ms", 5.0);
  obs::LatencyHistogram& latency_queue =
      obs::Registry::global().histogram("monitor.latency.queue_ms", 1.0);
  obs::LatencyHistogram& latency_model =
      obs::Registry::global().histogram("monitor.latency.model_ms", 1.0);
  obs::LatencyHistogram& latency_diff =
      obs::Registry::global().histogram("monitor.latency.diff_ms", 1.0);
  obs::LatencyHistogram& latency_decide =
      obs::Registry::global().histogram("monitor.latency.decide_ms", 0.5);
  /// End-to-end newest-event -> verdict, observed for alarmed windows only
  /// (the p50/p99 the throughput bench reports as detection latency).
  obs::LatencyHistogram& latency_event_to_alarm =
      obs::Registry::global().histogram("monitor.latency.event_to_alarm_ms",
                                        5.0);
  /// How far the sanitizer's release watermark trails its newest arrival
  /// (µs of stream time buffered for reordering; 0 without a sanitizer).
  obs::Gauge& watermark_lag_us =
      obs::Registry::global().gauge("monitor.watermark_lag_us");
  /// Windows modeled from delta-maintained aggregates, and the subset that
  /// went past the DD-pair budget (DD stability unknown; the fallbacks name
  /// stays because perfbench's monitor.fallback_share reads it). fallbacks
  /// staying at zero is the incremental path's health signal.
  obs::Counter& incremental_windows =
      obs::Registry::global().counter("monitor.incremental.windows");
  obs::Counter& incremental_fallbacks =
      obs::Registry::global().counter("monitor.incremental.fallbacks");
  /// Events older than the newest one ingested (unsanitized feeds) or with
  /// a negative timestamp, dropped.
  obs::Counter& rejected_out_of_order =
      obs::Registry::global().counter("monitor.rejected_out_of_order");
  /// Idle windows of a timestamp gap stepped over without a close.
  obs::Counter& idle_windows_skipped =
      obs::Registry::global().counter("monitor.idle_windows_skipped");
};

MonitorMetrics& metrics() {
  static MonitorMetrics m;
  return m;
}

/// "CG:1 DD:2" summary of the unknown changes behind an alarm.
std::string family_breakdown(const std::vector<Change>& changes) {
  std::map<std::string, int> per_family;
  for (const auto& change : changes) ++per_family[to_string(change.kind)];
  std::string out;
  for (const auto& [family, count] : per_family) {
    if (!out.empty()) out += ' ';
    out += family + ":" + std::to_string(count);
  }
  return out;
}

}  // namespace

SlidingMonitor::SlidingMonitor(MonitorConfig config)
    : config_(std::move(config)),
      flowdiff_(config_.flowdiff),
      ingest_sink_([this](const of::ControlEvent& e) { ingest_event(e); }),
      feed_wall_(std::chrono::steady_clock::now()),
      watchdog_(config_.watchdog) {
  if (config_.sanitize) sanitizer_.emplace(config_.ingest);
  if (config_.incremental && flowdiff_.incremental_modeler().supported()) {
    inc_ = &flowdiff_.incremental_modeler();
  }
}

SlidingMonitor::SlidingMonitor(const MonitorOptions& options)
    : SlidingMonitor(options.monitor_config()) {}

void SlidingMonitor::feed(const of::ControlEvent& event) {
  feed_wall_ = std::chrono::steady_clock::now();
  if (!sanitizer_) {
    ingest_event(event);
    return;
  }
  // The sanitizer re-times the stream: windowing below happens on the
  // restored order, so a displaced arrival lands in the window its
  // timestamp belongs to (as long as it beat the lateness horizon).
  sanitizer_->push(event, ingest_sink_);
}

void SlidingMonitor::reject_event() {
  ++window_rejected_;
  rejected_total_.fetch_add(1, std::memory_order_relaxed);
  metrics().rejected_out_of_order.inc();
}

void SlidingMonitor::ingest_event(const of::ControlEvent& event) {
  if (event.ts < 0) {
    // Negative time would collide with the "no window yet" sentinel and
    // the modelers' "unanswered hop" marker (-1).
    reject_event();
    return;
  }
  if (window_start_ < 0) {
    window_start_ = event.ts;
  } else if (event.ts < newest_ts_) {
    // The feed contract is time order; a regression cannot join a window
    // already (partly) modeled, in either mode.
    reject_event();
    return;
  }
  newest_ts_ = event.ts;
  // Unsigned distances: exact for any pair of int64 timestamps.
  const auto window = static_cast<std::uint64_t>(config_.window);
  const auto since_start = [&] {
    return static_cast<std::uint64_t>(event.ts) -
           static_cast<std::uint64_t>(window_start_);
  };
  if (event.ts >= window_start_ && since_start() >= window) {
    close_window(window_start_ + config_.window);  // <= event.ts: no overflow.
    if (const std::uint64_t idle = since_start() / window; idle > 0) {
      skip_idle_windows(idle);
    }
  }
  if (inc_ != nullptr) {
    inc_->feed(inc_state_, event);
  } else {
    current_.append(event);
  }
}

void SlidingMonitor::skip_idle_windows(std::uint64_t count) {
  const SimTime from = window_start_;
  window_start_ = static_cast<SimTime>(
      static_cast<std::uint64_t>(window_start_) +
      count * static_cast<std::uint64_t>(config_.window));
  metrics().idle_windows_skipped.inc(count);
  if (obs::enabled()) {
    obs::FlightRecorder::global().record(
        obs::Severity::kInfo, "monitor", "idle windows skipped",
        {{"windows", std::to_string(count)},
         {"until_s", fmt_double(to_seconds(window_start_), 1)}},
        to_seconds(from));
  }
}

void SlidingMonitor::feed(const of::ControlLog& log) { feed(log.events()); }

void SlidingMonitor::feed(const std::vector<of::ControlEvent>& events) {
  // Batched fast path: resolve the sanitizer branch once and reuse the
  // prebuilt sink, instead of paying both per event. One arrival stamp
  // per batch keeps the hot path free of per-event clock reads.
  feed_wall_ = std::chrono::steady_clock::now();
  if (sanitizer_) {
    sanitizer_->push(events, ingest_sink_);
    return;
  }
  for (const auto& event : events) ingest_event(event);
}

void SlidingMonitor::flush() {
  if (sanitizer_) {
    sanitizer_->flush(ingest_sink_);
  }
  if (window_start_ >= 0 && !window_empty()) {
    const SimTime end = inc_ != nullptr ? inc_state_.end : current_.end_time();
    close_window(end == std::numeric_limits<SimTime>::max() ? end : end + 1);
  }
}

bool SlidingMonitor::has_baseline() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return baseline_.has_value();
}

std::size_t SlidingMonitor::audits_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return audits_dropped_;
}

std::uint64_t SlidingMonitor::provenance_dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return provenance_dropped_;
}

std::optional<ProvenanceRecord> SlidingMonitor::find_provenance(
    std::uint64_t id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  for (const auto& rec : provenance_) {
    if (rec.id == id) return rec;
  }
  return std::nullopt;
}

std::size_t SlidingMonitor::windows_processed() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return windows_;
}

SimTime SlidingMonitor::baseline_captured_at() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return baseline_begin_;
}

ingest::StreamQuality SlidingMonitor::stream_quality() const {
  return sanitizer_ ? sanitizer_->total() : ingest::StreamQuality{};
}

std::uint64_t SlidingMonitor::watchdog_alerts() const {
  return watchdog_.alerts();
}

MonitorSnapshot SlidingMonitor::snapshot() const {
  MonitorSnapshot snap;
  const std::lock_guard<std::mutex> lock(mu_);
  snap.windows = windows_;
  snap.has_baseline = baseline_.has_value();
  snap.baseline_begin = baseline_begin_;
  snap.audits.assign(audits_.begin(), audits_.end());
  snap.audits_dropped = audits_dropped_;
  snap.alarms = alarms_;
  snap.provenance.assign(provenance_.begin(), provenance_.end());
  snap.provenance_dropped = provenance_dropped_;
  return snap;
}

MonitorHealth SlidingMonitor::health() const {
  MonitorHealth health;
  health.watchdog_alerts = watchdog_.alerts();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    health.windows = windows_;
    health.alarms = alarms_.size();
    health.suppressed_changes = suppressed_total_;
    health.quality = quality_total_;
  }
  health.rejected_out_of_order =
      rejected_total_.load(std::memory_order_relaxed);
  health.stream_degraded = health.quality.degraded();
  if (health.watchdog_alerts > 0) {
    health.reasons.push_back(
        "watchdog filed " + std::to_string(health.watchdog_alerts) +
        " pipeline degradation warning(s)");
  }
  if (health.stream_degraded) {
    health.reasons.push_back("capture stream degraded (" +
                             health.quality.summary() + ")");
  }
  if (health.suppressed_changes > 0) {
    health.reasons.push_back(
        std::to_string(health.suppressed_changes) +
        " change(s) suppressed as low confidence");
  }
  if (health.rejected_out_of_order > 0) {
    health.reasons.push_back(
        std::to_string(health.rejected_out_of_order) +
        " out-of-order or negative-timestamp event(s) rejected "
        "(timestamps must be >= 0, and an unsanitized feed time-ordered)");
  }
  health.healthy = health.reasons.empty();
  return health;
}

void SlidingMonitor::close_window(SimTime window_end) {
  const SimTime begin = window_start_;
  window_start_ = window_end;
  // Window attribution: counters accumulated while this window was open.
  // Events still in the reorder buffer were fed but not yet kept; they
  // reconcile in the window that releases them.
  ingest::StreamQuality quality;
  if (sanitizer_) {
    quality = sanitizer_->take_window_quality();
    metrics().watermark_lag_us.set(sanitizer_->watermark_lag());
    // Health accumulation happens here on the feed thread (not in
    // process_window) so idle-window quality is never lost and a /healthz
    // scrape sees corruption as soon as the window closes.
    const std::lock_guard<std::mutex> lock(mu_);
    quality_total_ += quality;
  }
  if (window_empty()) return;  // Idle window: nothing to model.
  process_window(begin, window_end, quality,
                 std::exchange(window_rejected_, 0),
                 std::chrono::steady_clock::now());
  if (inc_ != nullptr) {
    inc_state_.reset();
  } else {
    current_.clear();
  }
}

void SlidingMonitor::process_window(
    SimTime begin, SimTime window_end, const ingest::StreamQuality& quality,
    std::uint64_t rejected, std::chrono::steady_clock::time_point close_wall) {
  const obs::Span span("monitor/window");
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_ms = [](std::chrono::steady_clock::time_point from,
                          std::chrono::steady_clock::time_point to) {
    const std::chrono::duration<double, std::milli> d = to - from;
    return d.count() < 0.0 ? 0.0 : d.count();
  };
  StageLatency latency;
  latency.ingest_ms = wall_ms(feed_wall_, close_wall);
  latency.queue_ms = wall_ms(close_wall, wall_start);
  WindowAudit audit;
  audit.window_begin = begin;
  audit.window_end = window_end;
  audit.events = inc_ != nullptr ? inc_state_.events : current_.size();
  audit.quality = quality;
  if (quality.degraded() && obs::enabled()) {
    obs::FlightRecorder::global().record(
        obs::Severity::kWarn, "monitor", "window stream degraded",
        {{"quality", quality.summary()}}, to_seconds(begin));
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    audit.index = windows_;
    ++windows_;
  }
  metrics().windows.inc();
  metrics().events.inc(audit.events);
  metrics().events_per_window.observe(static_cast<double>(audit.events));
  metrics().latency_ingest.observe(latency.ingest_ms);
  metrics().latency_queue.observe(latency.queue_ms);

  // Incremental mode finalizes the delta-maintained aggregates
  // (bit-identical to the oracle, incremental_model.h); oracle mode
  // rebuilds the raw window from scratch.
  const bool dd_over_budget = inc_ != nullptr && inc_state_.dd_over_budget;
  if (inc_ != nullptr) {
    metrics().incremental_windows.inc();
    if (dd_over_budget) metrics().incremental_fallbacks.inc();
  }
  BehaviorModel model = inc_ != nullptr ? inc_->finalize(inc_state_)
                                        : flowdiff_.modeler().build(current_);
  const auto model_done = std::chrono::steady_clock::now();
  latency.model_ms = wall_ms(wall_start, model_done);
  metrics().latency_model.observe(latency.model_ms);
  // Stream-side notes every decision string ends with, in this order.
  std::string notes;
  if (quality.degraded()) {
    notes += "; stream DEGRADED (" + quality.summary() + ")";
  }
  if (rejected > 0) {
    notes += "; rejected " + std::to_string(rejected) +
             " out-of-order event(s)";
  }
  if (dd_over_budget) {
    notes += "; DD budget exceeded: DD stability unknown";
  }
  if (!baseline_) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      baseline_ = std::move(model);
      baseline_begin_ = begin;
    }
    audit.baseline_capture = true;
    audit.decision = "adopted as baseline (first non-idle window)" + notes;
    if (obs::enabled()) {
      obs::FlightRecorder::global().record(
          obs::Severity::kInfo, "monitor", "baseline adopted",
          {{"events", std::to_string(audit.events)}}, to_seconds(begin));
    }
    finish_audit(std::move(audit), wall_start, std::nullopt);
    return;
  }

  DiffReport report = flowdiff_.diff(*baseline_, model, config_.tasks,
                                     &quality);
  const auto diff_done = std::chrono::steady_clock::now();
  latency.diff_ms = wall_ms(model_done, diff_done);
  metrics().latency_diff.observe(latency.diff_ms);
  const bool clean = report.clean();
  // Any unknown or suppressed change earns the window a provenance record:
  // alarmed windows explain what fired, suppressed-only windows explain
  // why nothing did. The id is assigned here but the record commits with
  // the audit under the lock.
  std::optional<ProvenanceRecord> record;
  if (!report.unknown.empty() || !report.suppressed.empty()) {
    record = build_provenance(report, config_.provenance_top_k);
    record->id = ++provenance_seq_;
    record->window_index = audit.index;
    record->window_begin = begin;
    record->window_end = window_end;
    record->events = audit.events;
    record->alarmed = !clean;
  }
  audit.changes = report.changes.size();
  audit.known = report.known.size();
  audit.unknown = report.unknown.size();
  audit.suppressed = report.suppressed.size();
  if (!clean) {
    audit.alarmed = true;
    audit.decision =
        "ALARM: " + std::to_string(report.unknown.size()) +
        " unknown change(s) [" + family_breakdown(report.unknown) + "]";
    if (!report.known.empty()) {
      audit.decision += ", " + std::to_string(report.known.size()) +
                        " task-explained";
    }
    if (!report.suppressed.empty()) {
      audit.decision += ", " + std::to_string(report.suppressed.size()) +
                        " suppressed (low confidence)";
    }
    metrics().alarms.inc();
    if (obs::enabled()) {
      obs::FlightRecorder::global().record(
          obs::Severity::kWarn, "monitor", "alarm raised",
          {{"unknown", std::to_string(report.unknown.size())},
           {"families", family_breakdown(report.unknown)}},
          to_seconds(begin));
    }
    const std::lock_guard<std::mutex> lock(mu_);
    alarms_.push_back(MonitorAlarm{begin, window_end, std::move(report),
                                   record ? record->id : 0});
  } else {
    metrics().clean.inc();
    if (report.changes.empty()) {
      audit.decision = "clean: no signature changes vs baseline";
    } else if (report.suppressed.empty()) {
      audit.decision = "clean: " + std::to_string(report.known.size()) +
                       " change(s) all explained by operator tasks [" +
                       family_breakdown(report.known) + "]";
    } else {
      // Silent only because the stream could not support the families
      // involved; the audit keeps the withheld evidence on record.
      audit.decision = "clean: " + std::to_string(report.known.size()) +
                       " task-explained, " +
                       std::to_string(report.suppressed.size()) +
                       " suppressed (stream too corrupted) [" +
                       family_breakdown(report.suppressed) + "]";
    }
  }
  audit.decision += notes;
  if (clean && config_.rolling_baseline) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      baseline_ = std::move(model);
      baseline_begin_ = begin;
    }
    audit.rebaselined = true;
    audit.decision += "; baseline rolled forward";
    metrics().rebaselines.inc();
  }
  if (record) {
    // The verdict is the final decision string (rolling-baseline and
    // DEGRADED annotations included), so all three surfaces — transcript,
    // /provenance, `flowdiff explain` — agree with the audit trail.
    record->verdict = audit.decision;
    const auto decided = std::chrono::steady_clock::now();
    record->latency = latency;
    record->latency.decide_ms = wall_ms(diff_done, decided);
    record->latency.total_ms = wall_ms(feed_wall_, decided);
    metrics().latency_decide.observe(record->latency.decide_ms);
    if (record->alarmed) {
      metrics().latency_event_to_alarm.observe(record->latency.total_ms);
    }
  }
  finish_audit(std::move(audit), wall_start, std::move(record));
}

void SlidingMonitor::finish_audit(
    WindowAudit audit, std::chrono::steady_clock::time_point wall_start,
    std::optional<ProvenanceRecord> record) {
  const std::chrono::duration<double, std::milli> wall =
      std::chrono::steady_clock::now() - wall_start;
  audit.wall_ms = wall.count();
  metrics().window_ms.observe(audit.wall_ms);
  const double window_end_s = to_seconds(audit.window_end);
  std::size_t dropped = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    suppressed_total_ += audit.suppressed;
    audits_.push_back(std::move(audit));
    // Rotation keeps week-long runs at fixed memory: oldest audits leave,
    // the gauge records how much history the trail no longer covers.
    while (config_.max_audits > 0 && audits_.size() > config_.max_audits) {
      audits_.pop_front();
      ++audits_dropped_;
    }
    dropped = audits_dropped_;
    if (record) {
      provenance_.push_back(std::move(*record));
      while (config_.max_provenance > 0 &&
             provenance_.size() > config_.max_provenance) {
        provenance_.pop_front();
        ++provenance_dropped_;
      }
    }
  }
  metrics().audits_dropped.set(static_cast<std::int64_t>(dropped));

  // Per-window telemetry cadence: snapshot every registered metric at the
  // window's virtual end time, then let the watchdog look at the newest
  // points of the pipeline's own series.
  if (config_.sample_metrics && obs::enabled()) {
    obs::Sampler::global().sample(window_end_s);
    if (config_.self_watchdog) watchdog_.check(obs::Sampler::global());
  }
}

std::string render_monitor_transcript(const MonitorSnapshot& snap) {
  // Deliberately omits WindowAudit::wall_ms (the only nondeterministic
  // audit field): the golden corpus diffs this text byte for byte.
  std::string out;
  out += "=== monitor transcript ===\n";
  out += "windows=" + std::to_string(snap.windows) +
         " alarms=" + std::to_string(snap.alarms.size()) +
         " audits_dropped=" + std::to_string(snap.audits_dropped) + "\n";
  for (const auto& audit : snap.audits) {
    out += "[" + std::to_string(audit.index) + "] " +
           fmt_double(to_seconds(audit.window_begin), 1) + "s.." +
           fmt_double(to_seconds(audit.window_end), 1) +
           "s events=" + std::to_string(audit.events) + " " +
           audit.decision + "\n";
  }
  std::size_t alarm_no = 0;
  for (const auto& alarm : snap.alarms) {
    out += "\n--- alarm " + std::to_string(++alarm_no) + ": window " +
           fmt_double(to_seconds(alarm.window_begin), 1) + "s.." +
           fmt_double(to_seconds(alarm.window_end), 1) + "s ---\n";
    out += alarm.report.render();
  }
  return out;
}

std::string render_monitor_transcript(const SlidingMonitor& monitor) {
  return render_monitor_transcript(monitor.snapshot());
}

std::string render_provenance_transcript(const SlidingMonitor& monitor) {
  // Like render_monitor_transcript: wall-clock latency fields omitted, so
  // identical runs produce identical text.
  std::string out;
  out += "=== provenance transcript ===\n";
  out += "records=" + std::to_string(monitor.provenance().size()) +
         " dropped=" + std::to_string(monitor.provenance_dropped()) + "\n";
  for (const auto& rec : monitor.provenance()) {
    out += "\n" + render_provenance_text(rec, /*with_latency=*/false);
  }
  return out;
}

}  // namespace flowdiff::core
