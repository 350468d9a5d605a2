// Live telemetry plane: the embedded HTTP endpoint over a running monitor.
//
// TelemetryPlane binds an obs::HttpServer and wires the six operational
// endpoints — /metrics (Prometheus exposition), /healthz (health verdict),
// /series (sampled time series), /recorder (flight-recorder excerpt),
// /audits (per-window audit trail), /report (on-demand run report) — onto
// the observability stack and an attached SlidingMonitor. Handlers run on
// the server thread and read ONLY snapshot-style accessors that copy under
// the producers' own locks (SlidingMonitor::snapshot()/health(),
// Sampler::global(), FlightRecorder::global()), so a scrape arriving in the
// middle of a window commit observes whole windows only.
//
// The attached monitor is a raw pointer by design: a CLI run constructs the
// plane before the monitor exists (so the listener is up for the whole
// run), attach()es each monitor while it is live, and must
// attach(nullptr) — or stop the plane — before destroying it. Endpoints
// that need a monitor answer 503 while none is attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "flowdiff/monitor.h"
#include "flowdiff/report.h"
#include "obs/http_server.h"

namespace flowdiff::core {

class MonitorManager;  // flowdiff/monitor_manager.h
struct ShardStatus;

struct TelemetryConfig {
  obs::HttpServerConfig http;
  /// Options for the /report endpoint's document.
  RunReportOptions report;
  /// Metric-name prefix for the /metrics Prometheus exposition.
  std::string prometheus_prefix = "flowdiff";
};

/// The plane: construct, optionally attach() a monitor, start(). stop() is
/// idempotent and run by the destructor. attach() may be called at any
/// time, including while serving — replays swap monitors per stage.
class TelemetryPlane {
 public:
  explicit TelemetryPlane(TelemetryConfig config = {});
  ~TelemetryPlane();

  TelemetryPlane(const TelemetryPlane&) = delete;
  TelemetryPlane& operator=(const TelemetryPlane&) = delete;

  /// Points the monitor-backed endpoints at `monitor` (nullptr detaches).
  /// The caller keeps ownership and must detach (or stop()) before the
  /// monitor is destroyed.
  void attach(const SlidingMonitor* monitor);

  /// Points the multi-tenant routes (/tenants, /tenants/<id>/...) at a
  /// MonitorManager — the serve daemon's shape. Also reroutes the
  /// aggregate /healthz through MonitorManager::aggregate_health(), which
  /// degrades (503) as soon as ANY shard degrades or faults. Same
  /// ownership contract as attach(): detach (nullptr) or stop() before
  /// destroying the manager. A single-monitor attach() takes precedence on
  /// /healthz when both are set (they never are in practice).
  void attach_manager(const MonitorManager* manager);

  /// Binds and starts serving. False (with last_error()) on socket errors.
  [[nodiscard]] bool start();
  void stop();

  [[nodiscard]] bool running() const { return server_.running(); }
  /// Port actually bound (resolves an ephemeral port 0 request).
  [[nodiscard]] std::uint16_t port() const { return server_.port(); }
  [[nodiscard]] const std::string& last_error() const {
    return server_.last_error();
  }
  [[nodiscard]] std::uint64_t requests_served() const {
    return server_.requests_served();
  }

 private:
  void register_routes();
  [[nodiscard]] const SlidingMonitor* monitor() const {
    return monitor_.load(std::memory_order_acquire);
  }
  [[nodiscard]] const MonitorManager* manager() const {
    return manager_.load(std::memory_order_acquire);
  }
  [[nodiscard]] obs::HttpResponse handle_tenants(
      const obs::HttpRequest& request) const;

  TelemetryConfig config_;
  std::atomic<const SlidingMonitor*> monitor_{nullptr};
  std::atomic<const MonitorManager*> manager_{nullptr};
  obs::HttpServer server_;
};

/// The /healthz JSON body: the MonitorHealth verdict plus watchdog,
/// rejection, and sanitizer drop counters. Stable keys; tests and scripts
/// parse it.
[[nodiscard]] std::string render_health_json(const MonitorHealth& health);

/// The /audits trail as CSV: one row per retained window with quality and
/// suppression columns. Header:
///   index,window_begin_s,window_end_s,events,baseline,alarmed,rebaselined,
///   changes,known,unknown,suppressed,degraded,quality,decision
[[nodiscard]] std::string render_audits_csv(const MonitorSnapshot& snap);

/// The /audits trail as a JSON array of audit objects (same fields).
[[nodiscard]] std::string render_audits_json(const MonitorSnapshot& snap);

/// The /tenants registry body: one object per shard with state, event and
/// window counts, health, and (for faulted shards) the diagnostic.
[[nodiscard]] std::string render_tenants_json(
    const std::vector<ShardStatus>& statuses);

/// A tenant's /series body, derived from its shard's audit trail (the
/// global Sampler is process-wide, so per-tenant series come from the
/// per-window audit counters instead). Columns/keys: index,
/// window_begin_s, window_end_s, events, changes, known, unknown,
/// suppressed.
[[nodiscard]] std::string render_tenant_series_csv(const MonitorSnapshot& snap);
[[nodiscard]] std::string render_tenant_series_json(
    const MonitorSnapshot& snap);

}  // namespace flowdiff::core
