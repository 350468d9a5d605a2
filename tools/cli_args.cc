#include "cli_args.h"

#include <charconv>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <ctime>

#include "obs/flight_recorder.h"
#include "obs/http_server.h"
#include "obs/obs.h"
#include "openflow/log_io.h"

namespace flowdiff::cli {

namespace {

int emit(const std::string& path, const std::string& text) {
  if (path.empty()) {
    std::fputs(text.c_str(), stderr);
    return 0;
  }
  if (!of::write_file(path, text)) return fail("cannot write " + path);
  return 0;
}

volatile std::sig_atomic_t g_shutdown = 0;

void on_shutdown_signal(int) { g_shutdown = 1; }

}  // namespace

int fail(const std::string& message) {
  std::fprintf(stderr, "flowdiff: %s\n", message.c_str());
  return 2;
}

std::optional<double> parse_seconds(const char* flag, const std::string& text,
                                    std::string* error) {
  double value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      value < 0 || value > kMaxFlagSeconds) {
    *error = std::string(flag) + " must be a number of seconds from 0 to " +
             std::to_string(static_cast<long>(kMaxFlagSeconds)) + " (got '" +
             text + "')";
    return std::nullopt;
  }
  return value;
}

std::optional<long> parse_integer(const char* flag, const std::string& text,
                                  long lo, long hi, std::string* error) {
  long value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < lo || value > hi) {
    *error = std::string(flag) + " must be an integer from " +
             std::to_string(lo) + " to " + std::to_string(hi) + " (got '" +
             text + "')";
    return std::nullopt;
  }
  return value;
}

bool has_suffix(const std::string& str, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return str.size() >= n && str.compare(str.size() - n, n, suffix) == 0;
}

bool flag_value(const std::vector<std::string>& args, std::size_t* i,
                const char* name, std::string* value) {
  const std::string& arg = args[*i];
  const std::string eq = std::string(name) + "=";
  if (arg == name && *i + 1 < args.size()) {
    *value = args[++*i];
    return true;
  }
  if (arg.rfind(eq, 0) == 0) {
    *value = arg.substr(eq.size());
    return true;
  }
  return false;
}

bool reject_unknown_flag(const std::string& arg) {
  if (arg.rfind("--", 0) != 0) return false;
  fail("unknown argument: " + arg);
  return true;
}

GlobalOptions extract_global_options(std::vector<std::string>& args) {
  GlobalOptions opts;
  bool explicit_stats = false;
  bool explicit_trace = false;
  bool explicit_series = false;
  std::vector<std::string> kept;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    std::string value;
    if (arg == "--stats") {
      opts.stats = true;
    } else if (arg.rfind("--stats=", 0) == 0) {
      opts.stats = true;
      explicit_stats = true;
      opts.stats_path = arg.substr(std::strlen("--stats="));
    } else if (arg == "--trace") {
      opts.trace = true;
    } else if (arg.rfind("--trace=", 0) == 0) {
      opts.trace = true;
      explicit_trace = true;
      opts.trace_path = arg.substr(std::strlen("--trace="));
    } else if (arg == "--series") {
      opts.series = true;
    } else if (arg.rfind("--series=", 0) == 0) {
      opts.series = true;
      explicit_series = true;
      opts.series_path = arg.substr(std::strlen("--series="));
    } else if (flag_value(args, &i, "--artifacts", &value)) {
      opts.artifacts_dir = value;
    } else {
      kept.push_back(arg);
    }
  }
  args = std::move(kept);
  if (!opts.artifacts_dir.empty()) {
    opts.stats = opts.trace = opts.series = true;
    const std::string dir = opts.artifacts_dir;
    if (!explicit_stats) opts.stats_path = dir + "/stats.txt";
    if (!explicit_trace) opts.trace_path = dir + "/trace.json";
    if (!explicit_series) opts.series_path = dir + "/series.csv";
  }
  if (opts.stats || opts.trace || opts.series) obs::set_enabled(true);
  return opts;
}

int dump_observability(const GlobalOptions& opts) {
  int rc = 0;
  if (opts.stats) {
    const obs::Snapshot snap = obs::snapshot();
    std::string text;
    if (has_suffix(opts.stats_path, ".json")) {
      text = obs::render_json(snap);
    } else if (has_suffix(opts.stats_path, ".prom")) {
      text = obs::render_prometheus(snap);
    } else {
      text = obs::render_table(snap);
    }
    rc = emit(opts.stats_path, text);
  }
  if (opts.trace && rc == 0) {
    const auto records = obs::Trace::global().records();
    rc = emit(opts.trace_path, has_suffix(opts.trace_path, ".json")
                                   ? obs::render_span_json(records)
                                   : obs::render_span_tree(records));
  }
  if (opts.series && rc == 0) {
    const std::string text = has_suffix(opts.series_path, ".json")
                                 ? obs::render_series_json(
                                       obs::Sampler::global())
                                 : obs::render_series_csv(
                                       obs::Sampler::global());
    rc = emit(opts.series_path, text);
  }
  return rc;
}

std::optional<std::set<Ipv4>> load_services(const std::string& path) {
  const auto text = of::read_file(path);
  if (!text) return std::nullopt;
  std::set<Ipv4> services;
  std::size_t pos = 0;
  while (pos <= text->size()) {
    const auto end = text->find('\n', pos);
    const std::string line = text->substr(
        pos, end == std::string::npos ? std::string::npos : end - pos);
    if (const auto ip = Ipv4::parse(line)) services.insert(*ip);
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  return services;
}

std::optional<of::ControlLog> load_log(const std::string& path) {
  const auto text = of::read_file(path);
  if (!text) return std::nullopt;
  return of::parse_control_log(*text);
}

std::optional<MonitorFlags> parse_monitor_flags(
    const std::vector<std::string>& args, std::string* error) {
  MonitorFlags parsed;
  std::string services_path;
  std::vector<std::string> task_paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    std::string value;
    if (flag_value(args, &i, "--services", &value)) {
      services_path = value;
    } else if (flag_value(args, &i, "--task", &value)) {
      task_paths.push_back(value);
    } else if (flag_value(args, &i, "--window", &value)) {
      const auto seconds = parse_seconds("--window", value, error);
      if (!seconds) return std::nullopt;
      parsed.options.window = from_seconds(*seconds);
    } else if (args[i] == "--rolling") {
      parsed.options.rolling_baseline = true;
    } else if (args[i] == "--sanitize") {
      parsed.options.sanitize = true;
    } else if (flag_value(args, &i, "--lateness", &value)) {
      const auto seconds = parse_seconds("--lateness", value, error);
      if (!seconds) return std::nullopt;
      // Flag-layer sugar: an explicit horizon only makes sense with the
      // sanitizer, so asking for one opts in (validate() would otherwise
      // reject the pair).
      parsed.options.sanitize = true;
      parsed.options.lateness = from_seconds(*seconds);
    } else if (flag_value(args, &i, "--listen", &value)) {
      parsed.options.listen = value;
    } else {
      parsed.rest.push_back(args[i]);
    }
  }
  if (!services_path.empty()) {
    auto services = load_services(services_path);
    if (!services) {
      *error = "cannot load services " + services_path;
      return std::nullopt;
    }
    parsed.options.services = std::move(*services);
  }
  for (const auto& path : task_paths) {
    const auto text = of::read_file(path);
    if (!text) {
      *error = "cannot read automaton " + path;
      return std::nullopt;
    }
    auto automaton = core::TaskAutomaton::parse(*text);
    if (!automaton) {
      *error = "malformed automaton " + path;
      return std::nullopt;
    }
    parsed.options.tasks.push_back(std::move(*automaton));
  }
  if (const auto rejected = parsed.options.validate()) {
    *error = *rejected;
    return std::nullopt;
  }
  return parsed;
}

void install_shutdown_signals() {
  struct sigaction action = {};
  action.sa_handler = on_shutdown_signal;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
}

bool shutdown_requested() { return g_shutdown != 0; }

void wait_for_shutdown() {
  while (g_shutdown == 0) {
    struct timespec delay = {0, 50 * 1000 * 1000};  // 50ms
    nanosleep(&delay, nullptr);
  }
}

int start_telemetry_plane(std::optional<core::TelemetryPlane>& plane,
                          const std::string& listen) {
  const auto addr = obs::parse_listen_address(listen);
  if (!addr) return fail("malformed --listen address: " + listen);
  obs::HttpServerConfig config;
  config.address = addr->first;
  config.port = addr->second;
  plane.emplace(std::move(config));
  if (!plane->start()) {
    return fail("cannot start telemetry plane on " + listen + ": " +
                plane->last_error());
  }
  // Handlers first, announcement second: a supervisor that signals the
  // moment it sees the line must never catch the default disposition.
  install_shutdown_signals();
  std::printf("flowdiff: telemetry plane listening on http://%s:%u\n",
              addr->first.c_str(), static_cast<unsigned>(plane->port()));
  std::fflush(stdout);
  return 0;
}

}  // namespace flowdiff::cli
