#include "flowdiff/monitor_options.h"

#include "obs/http_server.h"

namespace flowdiff::core {

std::optional<std::string> MonitorOptions::validate() const {
  if (window <= 0) {
    return "window must be positive (got " + std::to_string(window) + "us)";
  }
  if (workers != 0) {
    return "workers must be 0 (got " + std::to_string(workers) +
           "): windows are modeled serially";
  }
  if (lateness && !sanitize) {
    return "lateness horizon set without sanitize: the horizon only "
           "applies to the ingest sanitizer";
  }
  if (lateness && *lateness <= 0) {
    return "lateness horizon must be positive (got " +
           std::to_string(*lateness) + "us)";
  }
  if (lateness && sanitize && *lateness >= window) {
    return "lateness horizon (" + std::to_string(*lateness) +
           "us) must be shorter than the window (" + std::to_string(window) +
           "us): the sanitizer would hold every event past its window's "
           "close";
  }
  if (provenance_top_k == 0) {
    return "provenance_top_k must be >= 1 (a record with no contributors "
           "explains nothing)";
  }
  if (!listen.empty()) {
    if (!obs::parse_listen_address(listen)) {
      return "malformed listen address '" + listen +
             "' (expected ADDR:PORT, :PORT, or PORT)";
    }
    if (max_audits == 0) {
      return "max_audits=0 (unbounded) combined with a live listen "
             "endpoint: a long-running monitor would grow without limit";
    }
    if (max_provenance == 0) {
      return "max_provenance=0 (unbounded) combined with a live listen "
             "endpoint: a long-running monitor would grow without limit";
    }
  }
  return std::nullopt;
}

MonitorConfig MonitorOptions::monitor_config() const {
  MonitorConfig config;
  config.window = window;
  config.rolling_baseline = rolling_baseline;
  config.sanitize = sanitize;
  if (lateness) config.ingest.lateness_horizon = *lateness;
  config.incremental = incremental;
  config.max_audits = max_audits;
  config.max_provenance = max_provenance;
  config.provenance_top_k = provenance_top_k;
  config.flowdiff.set_special_nodes(services);
  config.tasks = tasks;
  return config;
}

}  // namespace flowdiff::core
