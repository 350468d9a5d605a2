#include "flowdiff/telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <functional>
#include <limits>
#include <span>
#include <string_view>
#include <utility>

#include "flowdiff/monitor_manager.h"
#include "flowdiff/report.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "util/table.h"

namespace flowdiff::core {

namespace {

/// CSV cell quoting: always quoted, inner quotes doubled — the quality and
/// decision columns contain commas and percent signs.
std::string csv_quote(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::optional<obs::Severity> parse_severity(std::string_view name) {
  if (name == "debug") return obs::Severity::kDebug;
  if (name == "info") return obs::Severity::kInfo;
  if (name == "warn") return obs::Severity::kWarn;
  if (name == "error") return obs::Severity::kError;
  return std::nullopt;
}

obs::HttpResponse text_response(int status, std::string body) {
  obs::HttpResponse response;
  response.status = status;
  response.body = std::move(body);
  return response;
}

obs::HttpResponse json_error(int status, std::string_view message) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":" + obs::json_string(message) + "}\n";
  return response;
}

/// Parses the optional ?from=/?to= bounds (seconds, decimal) into *from
/// and *to, which stay unbounded when absent. Returns the 400 answer when
/// a bound is present but not a number.
std::optional<obs::HttpResponse> parse_time_range(
    const obs::HttpRequest& request, double* from, double* to) {
  *from = -std::numeric_limits<double>::infinity();
  *to = std::numeric_limits<double>::infinity();
  for (const auto& [name, out] :
       {std::pair{"from", from}, std::pair{"to", to}}) {
    const std::optional<std::string> raw = request.param(name);
    if (!raw) continue;
    char* end = nullptr;
    const double value = std::strtod(raw->c_str(), &end);
    if (raw->empty() || end == nullptr || *end != '\0') {
      return json_error(400, std::string("unparseable ") + name +
                                 " bound: " + *raw);
    }
    *out = value;
  }
  return std::nullopt;
}

/// Parses an optional unsigned integer parameter (?id=, ?limit=). Leaves
/// *out untouched when it is absent; false when present but not a number.
bool parse_u64_param(const std::optional<std::string>& raw,
                     std::uint64_t* out) {
  if (!raw) return true;
  if (raw->empty() || (*raw)[0] == '-') return false;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(raw->c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

}  // namespace

std::string render_health_json(const MonitorHealth& health) {
  std::string out = "{";
  out += std::string("\"healthy\":") + (health.healthy ? "true" : "false");
  out += ",\"reasons\":[";
  for (std::size_t i = 0; i < health.reasons.size(); ++i) {
    if (i > 0) out += ',';
    out += obs::json_string(health.reasons[i]);
  }
  out += "]";
  out += ",\"watchdog_alerts\":" + std::to_string(health.watchdog_alerts);
  out += ",\"windows\":" + std::to_string(health.windows);
  out += ",\"alarms\":" + std::to_string(health.alarms);
  out += ",\"suppressed_changes\":" + std::to_string(health.suppressed_changes);
  out += ",\"rejected_out_of_order\":" +
         std::to_string(health.rejected_out_of_order);
  out += std::string(",\"stream_degraded\":") +
         (health.stream_degraded ? "true" : "false");
  out += ",\"quality\":" + health.quality.json();
  out += "}\n";
  return out;
}

std::string render_audits_csv(const MonitorSnapshot& snap) {
  std::string out =
      "index,window_begin_s,window_end_s,events,baseline,alarmed,"
      "rebaselined,changes,known,unknown,suppressed,degraded,quality,"
      "decision\n";
  for (const WindowAudit& audit : snap.audits) {
    out += std::to_string(audit.index);
    out += ',' + fmt_double(to_seconds(audit.window_begin), 3);
    out += ',' + fmt_double(to_seconds(audit.window_end), 3);
    out += ',' + std::to_string(audit.events);
    out += audit.baseline_capture ? ",1" : ",0";
    out += audit.alarmed ? ",1" : ",0";
    out += audit.rebaselined ? ",1" : ",0";
    out += ',' + std::to_string(audit.changes);
    out += ',' + std::to_string(audit.known);
    out += ',' + std::to_string(audit.unknown);
    out += ',' + std::to_string(audit.suppressed);
    out += audit.quality.degraded() ? ",1" : ",0";
    out += ',' + csv_quote(audit.quality.summary());
    out += ',' + csv_quote(audit.decision);
    out += '\n';
  }
  return out;
}

std::string render_audits_json(const MonitorSnapshot& snap) {
  std::string out = "{\"audits_dropped\":" + std::to_string(snap.audits_dropped);
  out += ",\"audits\":[";
  for (std::size_t i = 0; i < snap.audits.size(); ++i) {
    const WindowAudit& audit = snap.audits[i];
    if (i > 0) out += ',';
    out += "{\"index\":" + std::to_string(audit.index);
    out += ",\"window_begin_s\":" + fmt_double(to_seconds(audit.window_begin), 3);
    out += ",\"window_end_s\":" + fmt_double(to_seconds(audit.window_end), 3);
    out += ",\"events\":" + std::to_string(audit.events);
    out += std::string(",\"baseline\":") +
           (audit.baseline_capture ? "true" : "false");
    out += std::string(",\"alarmed\":") + (audit.alarmed ? "true" : "false");
    out += std::string(",\"rebaselined\":") +
           (audit.rebaselined ? "true" : "false");
    out += ",\"changes\":" + std::to_string(audit.changes);
    out += ",\"known\":" + std::to_string(audit.known);
    out += ",\"unknown\":" + std::to_string(audit.unknown);
    out += ",\"suppressed\":" + std::to_string(audit.suppressed);
    out += std::string(",\"degraded\":") +
           (audit.quality.degraded() ? "true" : "false");
    out += ",\"quality\":" + audit.quality.json();
    out += ",\"decision\":" + obs::json_string(audit.decision) + "}";
  }
  out += "]}\n";
  return out;
}

std::string render_tenants_json(const std::vector<ShardStatus>& statuses) {
  std::string out = "{\"tenants\":[";
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const ShardStatus& s = statuses[i];
    if (i > 0) out += ',';
    out += "{\"tenant\":" + obs::json_string(s.tenant);
    out += std::string(",\"state\":\"") + to_string(s.state) + "\"";
    out += ",\"events\":" + std::to_string(s.events);
    out += ",\"dropped\":" + std::to_string(s.dropped);
    out += ",\"windows\":" + std::to_string(s.windows);
    out += ",\"alarms\":" + std::to_string(s.alarms);
    out += std::string(",\"healthy\":") + (s.healthy ? "true" : "false");
    if (!s.fault.empty()) {
      out += ",\"fault\":" + obs::json_string(s.fault);
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

TelemetryPlane::TelemetryPlane(obs::HttpServerConfig config)
    : server_(std::move(config)) {
  register_routes();
}

TelemetryPlane::~TelemetryPlane() { stop(); }

void TelemetryPlane::attach(const SlidingMonitor* monitor) {
  monitor_.store(monitor, std::memory_order_release);
}

void TelemetryPlane::attach_manager(const MonitorManager* manager) {
  manager_.store(manager, std::memory_order_release);
}

bool TelemetryPlane::start() { return server_.start(); }

void TelemetryPlane::stop() {
  server_.stop();
  // The server thread is joined: no handler can observe the monitor or
  // manager anymore, so the caller may destroy them after stop() returns.
  monitor_.store(nullptr, std::memory_order_release);
  manager_.store(nullptr, std::memory_order_release);
}

namespace {

/// The /healthz answer: the verdict as JSON, 503 once unhealthy.
obs::HttpResponse health_response(const MonitorHealth& health) {
  obs::HttpResponse response;
  response.status = health.healthy ? 200 : 503;
  response.content_type = "application/json";
  response.body = render_health_json(health);
  return response;
}

/// The per-monitor endpoints, written once: /<endpoint> serves them over
/// the attached monitor and /tenants/<id>/<endpoint> over one manager
/// shard. Each endpoint reads only the accessor it needs, so a /healthz
/// scrape never copies the audit trail.
obs::HttpResponse monitor_endpoint(
    std::string_view endpoint, const obs::HttpRequest& request,
    const std::function<MonitorHealth()>& health,
    const std::function<MonitorSnapshot()>& snapshot) {
  if (endpoint == "healthz") return health_response(health());
  obs::HttpResponse response;
  response.content_type = "application/json";
  if (endpoint == "audits") {
    const std::string format = request.param("format").value_or("csv");
    double from = 0;
    double to = 0;
    if (auto bad = parse_time_range(request, &from, &to)) return *bad;
    if (format != "json" && format != "csv") {
      return text_response(400, "unknown format: " + format + "\n");
    }
    MonitorSnapshot snap = snapshot();
    // Keep audits whose window overlaps [from, to] seconds.
    std::erase_if(snap.audits, [from, to](const WindowAudit& audit) {
      return !(to_seconds(audit.window_end) >= from &&
               to_seconds(audit.window_begin) <= to);
    });
    if (format == "json") {
      response.body = render_audits_json(snap);
    } else {
      response.content_type = "text/csv; charset=utf-8";
      response.body = render_audits_csv(snap);
    }
    return response;
  }
  if (endpoint == "provenance") {
    if (request.param("id").has_value()) {
      std::uint64_t id = 0;
      if (!parse_u64_param(request.param("id"), &id)) {
        return json_error(400, "unparseable id: " +
                                   request.param("id").value_or(""));
      }
      // Ids are sequential and the ring contiguous.
      const MonitorSnapshot snap = snapshot();
      if (id > snap.provenance_dropped &&
          id - snap.provenance_dropped <= snap.explained.size()) {
        const ExplainedWindow& entry =
            *snap.explained[id - snap.provenance_dropped - 1];
        if (entry.provenance.id == id) {
          response.body = render_provenance_json(entry.provenance) + "\n";
          return response;
        }
      }
      return json_error(404, "no provenance record with id " +
                                 std::to_string(id) +
                                 " (unknown or rotated out)");
    }
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    if (!parse_u64_param(request.param("limit"), &limit)) {
      return json_error(400, "unparseable limit: " +
                                 request.param("limit").value_or(""));
    }
    const MonitorSnapshot snap = snapshot();
    std::span<const std::shared_ptr<const ExplainedWindow>> entries(
        snap.explained);
    // Newest N: the ring is oldest-first.
    if (limit < entries.size()) entries = entries.last(limit);
    response.body =
        render_provenance_collection_json(entries, snap.provenance_dropped);
    return response;
  }
  if (endpoint == "report") {
    const std::string format = request.param("format").value_or("md");
    if (format != "md" && format != "html") {
      return text_response(400, "unknown format: " + format + "\n");
    }
    const bool html = format == "html";
    response.content_type =
        html ? "text/html; charset=utf-8" : "text/markdown; charset=utf-8";
    response.body = render_run_report(snapshot(), obs::Sampler::global(),
                                      obs::FlightRecorder::global(), html);
    return response;
  }
  return json_error(404, "no such endpoint: " + std::string(endpoint));
}

/// The same endpoints over the attached monitor (the top-level routes);
/// 503 while none is attached.
obs::HttpResponse monitor_endpoint(std::string_view endpoint,
                                   const obs::HttpRequest& request,
                                   const SlidingMonitor* monitor) {
  if (monitor == nullptr) return json_error(503, "no monitor attached");
  return monitor_endpoint(
      endpoint, request, [monitor] { return monitor->health(); },
      [monitor] { return monitor->snapshot(); });
}

}  // namespace

void TelemetryPlane::register_routes() {
  server_.handle("/", [](const obs::HttpRequest&) {
    return text_response(
        200,
        "flowdiff telemetry plane\n"
        "  /metrics     Prometheus exposition (registry + span aggregates)\n"
        "  /healthz     health verdict (JSON; 503 once degraded)\n"
        "  /series      sampled time series (?format=csv|json, ?from=/?to= "
        "seconds)\n"
        "  /recorder    flight-recorder excerpt (?min_severity=debug|info|"
        "warn|error)\n"
        "  /audits      per-window audit trail (?format=csv|json, "
        "?from=/?to= seconds)\n"
        "  /provenance  alarm provenance records (JSON; ?id=N or ?limit=N)\n"
        "  /report      run report (?format=md|html)\n"
        "  /tenants     multi-tenant shard registry (serve mode); per-tenant\n"
        "               /tenants/<id>/{healthz,audits,provenance,report} "
        "take\n"
        "               the parameters above, plus /tenants/<id>/transcript\n");
  });

  server_.handle("/metrics", [](const obs::HttpRequest&) {
    obs::update_process_gauges();
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body = obs::render_prometheus(obs::snapshot());
    return response;
  });

  server_.handle("/healthz", [this](const obs::HttpRequest& request) {
    if (const SlidingMonitor* m = monitor()) {
      return monitor_endpoint("healthz", request, m);
    }
    if (const MonitorManager* mgr = manager()) {
      // Aggregate verdict: any shard degrading or faulting flips the
      // whole daemon's health check — a load balancer should stop
      // trusting a diagnoser that cannot vouch for every tenant.
      return health_response(mgr->aggregate_health());
    }
    // A plane with nothing attached is alive but idle; report healthy so
    // a scraper between replay stages sees liveness, not an outage.
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = "{\"healthy\":true,\"monitor_attached\":false}\n";
    return response;
  });

  for (const char* endpoint : {"audits", "provenance", "report"}) {
    server_.handle(std::string("/") + endpoint,
                   [this, endpoint](const obs::HttpRequest& request) {
                     return monitor_endpoint(endpoint, request, monitor());
                   });
  }

  server_.handle("/series", [](const obs::HttpRequest& request) {
    const std::string format = request.param("format").value_or("csv");
    double from = 0;
    double to = 0;
    if (auto bad = parse_time_range(request, &from, &to)) return *bad;
    obs::HttpResponse response;
    if (format != "json" && format != "csv") {
      return text_response(400, "unknown format: " + format + "\n");
    }
    const bool range_query =
        request.param("from").has_value() || request.param("to").has_value();
    if (!range_query) {
      // Full ring: render straight from the sampler (stride preserved).
      response.content_type = format == "json"
                                  ? "application/json"
                                  : "text/csv; charset=utf-8";
      response.body = format == "json"
                          ? obs::render_series_json(obs::Sampler::global())
                          : obs::render_series_csv(obs::Sampler::global());
      return response;
    }
    // Delta scrape: keep only the points whose bucket overlaps [from, to];
    // series left with nothing are dropped from the response.
    std::vector<std::pair<std::string, std::vector<obs::SeriesPoint>>> kept;
    for (const auto& [name, series] : obs::Sampler::global().series()) {
      std::vector<obs::SeriesPoint> points;
      for (const obs::SeriesPoint& p : series.points()) {
        if (p.t_end >= from && p.t_begin <= to) points.push_back(p);
      }
      if (!points.empty()) kept.emplace_back(name, std::move(points));
    }
    response.content_type = format == "json" ? "application/json"
                                             : "text/csv; charset=utf-8";
    response.body = format == "json" ? obs::render_series_json(kept)
                                     : obs::render_series_csv(kept);
    return response;
  });

  server_.handle("/recorder", [](const obs::HttpRequest& request) {
    const std::string name = request.param("min_severity").value_or("debug");
    const auto severity = parse_severity(name);
    if (!severity) {
      return text_response(400, "unknown min_severity: " + name + "\n");
    }
    std::string body;
    for (const obs::FlightEvent& event :
         obs::FlightRecorder::global().events(*severity)) {
      body += obs::render_flight_event(event);
      body += '\n';
    }
    return text_response(200, std::move(body));
  });

  server_.handle("/tenants", [this](const obs::HttpRequest&) {
    const MonitorManager* mgr = manager();
    if (mgr == nullptr) return json_error(503, "no manager attached");
    obs::HttpResponse response;
    response.content_type = "application/json";
    response.body = render_tenants_json(mgr->statuses());
    return response;
  });

  server_.handle_prefix("/tenants/", [this](const obs::HttpRequest& request) {
    return handle_tenants(request);
  });
}

obs::HttpResponse TelemetryPlane::handle_tenants(
    const obs::HttpRequest& request) const {
  const MonitorManager* mgr = manager();
  if (mgr == nullptr) return json_error(503, "no manager attached");

  // Path shape: /tenants/<id>[/<endpoint>]. The prefix route guarantees
  // the "/tenants/" head.
  constexpr std::string_view kPrefix = "/tenants/";
  std::string_view tail(request.path);
  tail.remove_prefix(kPrefix.size());
  const auto slash = tail.find('/');
  const std::string tenant(tail.substr(0, slash));
  const std::string endpoint(
      slash == std::string_view::npos ? "" : tail.substr(slash + 1));
  if (tenant.empty()) return json_error(404, "missing tenant id");

  const auto status = mgr->status(tenant);
  if (!status) return json_error(404, "unknown tenant: " + tenant);
  // Shards are never erased, so a tenant with a status has a snapshot
  // and a health verdict.
  const auto health = [mgr, &tenant] { return mgr->health(tenant).value(); };
  const auto snapshot = [mgr, &tenant] {
    return mgr->snapshot(tenant).value();
  };

  obs::HttpResponse response;
  response.content_type = "application/json";
  if (endpoint.empty()) {
    response.body = render_tenants_json({*status});
    return response;
  }
  if (endpoint == "transcript") {
    // The deterministic monitor transcript for this shard — what the demux
    // goldens pin against the single-tenant corpus transcripts.
    response.content_type = "text/plain; charset=utf-8";
    response.body = render_monitor_transcript(snapshot());
    return response;
  }
  return monitor_endpoint(endpoint, request, health, snapshot);
}

}  // namespace flowdiff::core
