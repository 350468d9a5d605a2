#include "flowdiff/monitor_options.h"

#include <stdexcept>
#include <utility>

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
  if (sanitize) {
    const SimDuration horizon = monitor_config().ingest.lateness_horizon;
    if (horizon >= window) {
      return "lateness horizon (" + std::to_string(horizon) +
             "us) must be shorter than the window (" +
             std::to_string(window) +
             "us): the sanitizer would hold every event past its window's "
             "close";
    }
  }
  if (!listen.empty() && !obs::parse_listen_address(listen)) {
    return "malformed listen address '" + listen +
           "' (expected ADDR:PORT, :PORT, or PORT)";
  }
  return std::nullopt;
}

MonitorConfig MonitorOptions::monitor_config() const {
  MonitorConfig config;
  config.flowdiff.model.special_nodes = services;
  if (lateness) config.ingest.lateness_horizon = *lateness;
  return config;
}

const MonitorOptions& validated(const MonitorOptions& options) {
  if (auto error = options.validate()) {
    throw std::invalid_argument(std::move(*error));
  }
  return options;
}

}  // namespace flowdiff::core
