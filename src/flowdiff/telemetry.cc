#include "flowdiff/telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

#include "flowdiff/monitor_manager.h"
#include "obs/export.h"
#include "obs/flight_recorder.h"
#include "obs/timeseries.h"
#include "util/table.h"

namespace flowdiff::core {

namespace {

std::string json_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

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

std::string quality_json(const ingest::StreamQuality& q) {
  std::string out = "{";
  out += "\"fed\":" + std::to_string(q.fed);
  out += ",\"kept\":" + std::to_string(q.kept);
  out += ",\"duplicates\":" + std::to_string(q.duplicates);
  out += ",\"reordered\":" + std::to_string(q.reordered);
  out += ",\"late_dropped\":" + std::to_string(q.late_dropped);
  out += ",\"truncated\":" + std::to_string(q.truncated);
  out += ",\"pairs_matched\":" + std::to_string(q.pairs_matched);
  out += ",\"orphan_packet_ins\":" + std::to_string(q.orphan_packet_ins);
  out += ",\"orphan_flow_mods\":" + std::to_string(q.orphan_flow_mods);
  out += "}";
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

obs::HttpResponse no_monitor_response() {
  obs::HttpResponse response;
  response.status = 503;
  response.content_type = "application/json";
  response.body = "{\"error\":\"no monitor attached\"}\n";
  return response;
}

obs::HttpResponse json_error(int status, std::string_view message) {
  obs::HttpResponse response;
  response.status = status;
  response.content_type = "application/json";
  response.body = "{\"error\":\"" + json_escape(message) + "\"}\n";
  return response;
}

/// Parses an optional ?from=/?to= time bound (seconds, decimal). Leaves
/// *out untouched when the parameter is absent; returns false when it is
/// present but not a number.
bool parse_time_bound(const std::optional<std::string>& raw, double* out) {
  if (!raw) return true;
  if (raw->empty()) return false;
  char* end = nullptr;
  const double value = std::strtod(raw->c_str(), &end);
  if (end == nullptr || *end != '\0') return false;
  *out = value;
  return true;
}

/// Same contract for unsigned integer parameters (?id=, ?limit=).
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
    out += '"' + json_escape(health.reasons[i]) + '"';
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
  out += ",\"quality\":" + quality_json(health.quality);
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
    out += ",\"quality\":" + quality_json(audit.quality);
    out += ",\"decision\":\"" + json_escape(audit.decision) + "\"}";
  }
  out += "]}\n";
  return out;
}

std::string render_tenants_json(const std::vector<ShardStatus>& statuses) {
  std::string out = "{\"tenants\":[";
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    const ShardStatus& s = statuses[i];
    if (i > 0) out += ',';
    out += "{\"tenant\":\"" + json_escape(s.tenant) + "\"";
    out += std::string(",\"state\":\"") + to_string(s.state) + "\"";
    out += ",\"events\":" + std::to_string(s.events);
    out += ",\"dropped\":" + std::to_string(s.dropped);
    out += ",\"windows\":" + std::to_string(s.windows);
    out += ",\"alarms\":" + std::to_string(s.alarms);
    out += std::string(",\"healthy\":") + (s.healthy ? "true" : "false");
    if (!s.fault.empty()) {
      out += ",\"fault\":\"" + json_escape(s.fault) + "\"";
    }
    out += "}";
  }
  out += "]}\n";
  return out;
}

std::string render_tenant_series_csv(const MonitorSnapshot& snap) {
  std::string out =
      "index,window_begin_s,window_end_s,events,changes,known,unknown,"
      "suppressed\n";
  for (const WindowAudit& audit : snap.audits) {
    out += std::to_string(audit.index);
    out += ',' + fmt_double(to_seconds(audit.window_begin), 3);
    out += ',' + fmt_double(to_seconds(audit.window_end), 3);
    out += ',' + std::to_string(audit.events);
    out += ',' + std::to_string(audit.changes);
    out += ',' + std::to_string(audit.known);
    out += ',' + std::to_string(audit.unknown);
    out += ',' + std::to_string(audit.suppressed);
    out += '\n';
  }
  return out;
}

std::string render_tenant_series_json(const MonitorSnapshot& snap) {
  std::string out = "{\"series\":[";
  for (std::size_t i = 0; i < snap.audits.size(); ++i) {
    const WindowAudit& audit = snap.audits[i];
    if (i > 0) out += ',';
    out += "{\"index\":" + std::to_string(audit.index);
    out += ",\"window_begin_s\":" + fmt_double(to_seconds(audit.window_begin), 3);
    out += ",\"window_end_s\":" + fmt_double(to_seconds(audit.window_end), 3);
    out += ",\"events\":" + std::to_string(audit.events);
    out += ",\"changes\":" + std::to_string(audit.changes);
    out += ",\"known\":" + std::to_string(audit.known);
    out += ",\"unknown\":" + std::to_string(audit.unknown);
    out += ",\"suppressed\":" + std::to_string(audit.suppressed) + "}";
  }
  out += "]}\n";
  return out;
}

TelemetryPlane::TelemetryPlane(TelemetryConfig config)
    : config_(std::move(config)), server_(config_.http) {
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
        "               /tenants/<id>/{healthz,series,audits,provenance,"
        "report,transcript}\n");
  });

  server_.handle("/metrics", [this](const obs::HttpRequest&) {
    obs::update_process_gauges();
    obs::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    response.body =
        obs::render_prometheus(obs::snapshot(), config_.prometheus_prefix);
    return response;
  });

  server_.handle("/healthz", [this](const obs::HttpRequest&) {
    obs::HttpResponse response;
    response.content_type = "application/json";
    const SlidingMonitor* m = monitor();
    if (m != nullptr) {
      const MonitorHealth health = m->health();
      response.status = health.healthy ? 200 : 503;
      response.body = render_health_json(health);
      return response;
    }
    if (const MonitorManager* mgr = manager()) {
      // Aggregate verdict: any shard degrading or faulting flips the
      // whole daemon's health check — a load balancer should stop
      // trusting a diagnoser that cannot vouch for every tenant.
      const MonitorHealth health = mgr->aggregate_health();
      response.status = health.healthy ? 200 : 503;
      response.body = render_health_json(health);
      return response;
    }
    // A plane with nothing attached is alive but idle; report healthy so
    // a scraper between replay stages sees liveness, not an outage.
    response.body = "{\"healthy\":true,\"monitor_attached\":false}\n";
    return response;
  });

  server_.handle("/series", [](const obs::HttpRequest& request) {
    const std::string format = request.param("format").value_or("csv");
    double from = -std::numeric_limits<double>::infinity();
    double to = std::numeric_limits<double>::infinity();
    if (!parse_time_bound(request.param("from"), &from)) {
      return json_error(400, "unparseable from bound: " +
                                 request.param("from").value_or(""));
    }
    if (!parse_time_bound(request.param("to"), &to)) {
      return json_error(400, "unparseable to bound: " +
                                 request.param("to").value_or(""));
    }
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

  server_.handle("/audits", [this](const obs::HttpRequest& request) {
    const SlidingMonitor* m = monitor();
    if (m == nullptr) return no_monitor_response();
    const std::string format = request.param("format").value_or("csv");
    double from = -std::numeric_limits<double>::infinity();
    double to = std::numeric_limits<double>::infinity();
    if (!parse_time_bound(request.param("from"), &from)) {
      return json_error(400, "unparseable from bound: " +
                                 request.param("from").value_or(""));
    }
    if (!parse_time_bound(request.param("to"), &to)) {
      return json_error(400, "unparseable to bound: " +
                                 request.param("to").value_or(""));
    }
    MonitorSnapshot snap = m->snapshot();
    if (request.param("from").has_value() ||
        request.param("to").has_value()) {
      // Keep audits whose window overlaps [from, to] seconds.
      std::vector<WindowAudit> kept;
      for (WindowAudit& audit : snap.audits) {
        if (to_seconds(audit.window_end) >= from &&
            to_seconds(audit.window_begin) <= to) {
          kept.push_back(std::move(audit));
        }
      }
      snap.audits = std::move(kept);
    }
    obs::HttpResponse response;
    if (format == "json") {
      response.content_type = "application/json";
      response.body = render_audits_json(snap);
    } else if (format == "csv") {
      response.content_type = "text/csv; charset=utf-8";
      response.body = render_audits_csv(snap);
    } else {
      return text_response(400, "unknown format: " + format + "\n");
    }
    return response;
  });

  server_.handle("/provenance", [this](const obs::HttpRequest& request) {
    const SlidingMonitor* m = monitor();
    if (m == nullptr) return no_monitor_response();
    obs::HttpResponse response;
    response.content_type = "application/json";
    if (request.param("id").has_value()) {
      std::uint64_t id = 0;
      if (!parse_u64_param(request.param("id"), &id)) {
        return json_error(400, "unparseable id: " +
                                   request.param("id").value_or(""));
      }
      const auto record = m->find_provenance(id);
      if (!record) {
        return json_error(404, "no provenance record with id " +
                                   std::to_string(id) +
                                   " (unknown or rotated out)");
      }
      response.body = render_provenance_json(*record) + "\n";
      return response;
    }
    std::uint64_t limit = std::numeric_limits<std::uint64_t>::max();
    if (!parse_u64_param(request.param("limit"), &limit)) {
      return json_error(400, "unparseable limit: " +
                                 request.param("limit").value_or(""));
    }
    MonitorSnapshot snap = m->snapshot();
    if (limit < snap.provenance.size()) {
      // Newest N: the ring is oldest-first.
      snap.provenance.erase(snap.provenance.begin(),
                            snap.provenance.end() -
                                static_cast<std::ptrdiff_t>(limit));
    }
    response.body = render_provenance_collection_json(
        snap.provenance, snap.provenance_dropped);
    return response;
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

  server_.handle("/report", [this](const obs::HttpRequest& request) {
    const SlidingMonitor* m = monitor();
    if (m == nullptr) return no_monitor_response();
    const std::string format = request.param("format").value_or("md");
    if (format != "md" && format != "html") {
      return text_response(400, "unknown format: " + format + "\n");
    }
    RunReportOptions options = config_.report;
    options.html = format == "html";
    obs::HttpResponse response;
    response.content_type = options.html ? "text/html; charset=utf-8"
                                         : "text/markdown; charset=utf-8";
    response.body =
        render_run_report(m->snapshot(), obs::Sampler::global(),
                          obs::FlightRecorder::global(), options);
    return response;
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

  obs::HttpResponse response;
  response.content_type = "application/json";

  if (endpoint.empty()) {
    response.body = render_tenants_json({*status});
    return response;
  }
  if (endpoint == "healthz") {
    const auto health = mgr->health(tenant);
    if (!health) return json_error(404, "unknown tenant: " + tenant);
    response.status = health->healthy ? 200 : 503;
    response.body = render_health_json(*health);
    return response;
  }

  const auto snap = mgr->snapshot(tenant);
  if (!snap) return json_error(404, "unknown tenant: " + tenant);

  if (endpoint == "series") {
    const std::string format = request.param("format").value_or("csv");
    if (format == "json") {
      response.body = render_tenant_series_json(*snap);
    } else if (format == "csv") {
      response.content_type = "text/csv; charset=utf-8";
      response.body = render_tenant_series_csv(*snap);
    } else {
      return text_response(400, "unknown format: " + format + "\n");
    }
    return response;
  }
  if (endpoint == "audits") {
    const std::string format = request.param("format").value_or("csv");
    if (format == "json") {
      response.body = render_audits_json(*snap);
    } else if (format == "csv") {
      response.content_type = "text/csv; charset=utf-8";
      response.body = render_audits_csv(*snap);
    } else {
      return text_response(400, "unknown format: " + format + "\n");
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
      for (const ProvenanceRecord& record : snap->provenance) {
        if (record.id == id) {
          response.body = render_provenance_json(record) + "\n";
          return response;
        }
      }
      return json_error(404, "no provenance record with id " +
                                 std::to_string(id) +
                                 " (unknown or rotated out)");
    }
    response.body = render_provenance_collection_json(snap->provenance,
                                                      snap->provenance_dropped);
    return response;
  }
  if (endpoint == "report") {
    const std::string format = request.param("format").value_or("md");
    if (format != "md" && format != "html") {
      return text_response(400, "unknown format: " + format + "\n");
    }
    RunReportOptions options = config_.report;
    options.html = format == "html";
    response.content_type = options.html ? "text/html; charset=utf-8"
                                         : "text/markdown; charset=utf-8";
    response.body = render_run_report(*snap, obs::Sampler::global(),
                                      obs::FlightRecorder::global(), options);
    return response;
  }
  if (endpoint == "transcript") {
    // The deterministic monitor transcript for this shard — what the demux
    // goldens pin against the single-tenant corpus transcripts.
    response.content_type = "text/plain; charset=utf-8";
    response.body = render_monitor_transcript(*snap);
    return response;
  }
  return json_error(404, "no such tenant endpoint: " + endpoint);
}

}  // namespace flowdiff::core
