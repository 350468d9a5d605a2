#include "cli_args.h"

#include <algorithm>
#include <cmath>
#include <csignal>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <iterator>
#include <sstream>

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

/// Largest seconds value a flag takes: about 31 years, past any capture
/// and far inside SimTime's range.
constexpr double kMaxFlagSeconds = 1e9;

/// Help lines wrap at kLineWidth columns; a flag's help text starts at
/// kHelpColumn, so its name and metavar fit beside it.
constexpr std::size_t kLineWidth = 79;
constexpr std::size_t kHelpColumn = 30;

/// "--window SECONDS", "--sanitize" or "--stats[=FILE]".
std::string synopsis(const Flag& flag) {
  if (flag.kind == Flag::Kind::kSwitch) return flag.name;
  if (flag.kind == Flag::Kind::kValue) return flag.name + " " + flag.metavar;
  return flag.name + "[=" + flag.metavar + "]";
}

/// Prints `line` followed by `words`, one space apart, wrapped at
/// kLineWidth; continuation lines start the words at column `indent`.
void print_wrapped(std::FILE* out, std::string line,
                   const std::vector<std::string>& words, std::size_t indent) {
  for (const std::string& word : words) {
    if (line.size() + 1 + word.size() > kLineWidth && line.size() > indent) {
      std::fprintf(out, "%s\n", line.c_str());
      line.assign(indent - 1, ' ');
    }
    line += " " + word;
  }
  std::fprintf(out, "%s\n", line.c_str());
}

/// --stats/--trace/--series: bare, stderr (or the --artifacts path);
/// =FILE, that file.
Flag artifact_flag(const char* name, std::optional<std::string>* path,
                   std::string help) {
  return {name, Flag::Kind::kOptional, "FILE", std::move(help),
          [path](const std::string& value) -> FlagError {
            *path = value;
            return std::nullopt;
          }};
}

volatile std::sig_atomic_t g_shutdown = 0;

void on_shutdown_signal(int) { g_shutdown = 1; }

}  // namespace

int fail(const std::string& message) {
  std::fprintf(stderr, "flowdiff: %s\n", message.c_str());
  return 2;
}

bool has_suffix(const std::string& str, const char* suffix) {
  const std::size_t n = std::strlen(suffix);
  return str.size() >= n && str.compare(str.size() - n, n, suffix) == 0;
}

std::string number_text(double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%g", value);
  return text;
}

Flag switch_flag(std::string name, bool* on, std::string help) {
  return {std::move(name), Flag::Kind::kSwitch, "", std::move(help),
          [on](const std::string&) -> FlagError {
            *on = true;
            return std::nullopt;
          }};
}

Flag value_flag(std::string name, std::string metavar, std::string help,
                Flag::Setter set) {
  return {std::move(name), Flag::Kind::kValue, std::move(metavar),
          std::move(help), std::move(set)};
}

Flag text_flag(std::string name, std::string metavar, std::string* out,
               std::string help) {
  return value_flag(std::move(name), std::move(metavar), std::move(help),
                    [out](const std::string& value) -> FlagError {
                      *out = value;
                      return std::nullopt;
                    });
}

Flag seconds_flag(std::string name, std::string metavar, std::string help,
                  std::function<void(double)> set) {
  return value_flag(
      name, std::move(metavar), std::move(help),
      [name, set = std::move(set)](const std::string& text) -> FlagError {
        double value = 0;
        const char* const end = text.data() + text.size();
        const auto [ptr, ec] = std::from_chars(text.data(), end, value);
        if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
            value < 0 || value > kMaxFlagSeconds) {
          return name + " must be a number of seconds from 0 to " +
                 std::to_string(static_cast<long>(kMaxFlagSeconds)) +
                 " (got '" + text + "')";
        }
        set(value);
        return std::nullopt;
      });
}

Flag integer_flag(std::string name, std::string metavar, long lo, long hi,
                  std::string help, std::function<void(long)> set) {
  return value_flag(
      name, std::move(metavar), std::move(help),
      [name, lo, hi, set = std::move(set)](const std::string& value)
          -> FlagError {
        long number = 0;
        if (auto error = parse_integer(name.c_str(), value, lo, hi, &number)) {
          return error;
        }
        set(number);
        return std::nullopt;
      });
}

std::optional<std::vector<std::string>> parse_flags(
    const std::vector<std::string>& args, const std::vector<Flag>& flags) {
  std::vector<std::string> operands;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.rfind("--", 0) != 0) {
      operands.push_back(arg);
      continue;
    }
    const std::size_t eq = arg.find('=');
    const std::string name = arg.substr(0, eq);
    const auto row =
        std::find_if(flags.begin(), flags.end(),
                     [&name](const Flag& flag) { return flag.name == name; });
    if (row == flags.end() ||
        (row->kind == Flag::Kind::kSwitch && eq != std::string::npos)) {
      fail("unknown argument: " + arg);
      return std::nullopt;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (row->kind == Flag::Kind::kValue) {
      if (i + 1 == args.size()) {
        fail(name + " needs a value");
        return std::nullopt;
      }
      value = args[++i];
    }
    if (const auto error = row->set(value)) {
      fail(*error);
      return std::nullopt;
    }
  }
  return operands;
}

void print_usage_line(std::FILE* out, const std::string& head,
                      const std::vector<Flag>& flags) {
  std::vector<std::string> items;
  for (const Flag& flag : flags) items.push_back("[" + synopsis(flag) + "]");
  print_wrapped(out, "  " + head, items, 8);
}

void print_flags(std::FILE* out, const std::vector<Flag>& flags) {
  for (const Flag& flag : flags) {
    std::istringstream help(flag.help);
    const std::vector<std::string> words{
        std::istream_iterator<std::string>(help), {}};
    std::string head = "  " + synopsis(flag);
    head.resize(std::max(head.size(), kHelpColumn - 1), ' ');
    print_wrapped(out, head, words, kHelpColumn);
  }
}

std::vector<Flag> global_flags(GlobalOptions* opts) {
  return {
      text_flag("--artifacts", "DIR", &opts->artifacts_dir,
                "write stats.txt, trace.json, series.csv and, for monitor "
                "and report, report.md and provenance.json into DIR"),
      artifact_flag("--stats", &opts->stats,
                    "dump metrics (.json, .prom or a table; default stderr)"),
      artifact_flag("--trace", &opts->trace,
                    "dump the span tree (.json or a tree; default stderr)"),
      artifact_flag("--series", &opts->series,
                    "dump sampled series (.json or CSV; default stderr)"),
  };
}

int prepare_artifacts(GlobalOptions& opts) {
  const std::string& dir = opts.artifacts_dir;
  if (!dir.empty()) {
    for (auto [path, file] : {std::pair{&opts.stats, "/stats.txt"},
                              {&opts.trace, "/trace.json"},
                              {&opts.series, "/series.csv"}}) {
      if (path->value_or("").empty()) *path = dir + file;
    }
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return fail("cannot create artifacts directory " + dir + ": " +
                  ec.message());
    }
  }
  if (opts.stats || opts.trace || opts.series) obs::set_enabled(true);
  return 0;
}

int dump_observability(const GlobalOptions& opts) {
  int rc = 0;
  if (opts.stats) {
    const obs::Snapshot snap = obs::snapshot();
    std::string text;
    if (has_suffix(*opts.stats, ".json")) {
      text = obs::render_json(snap);
    } else if (has_suffix(*opts.stats, ".prom")) {
      text = obs::render_prometheus(snap);
    } else {
      text = obs::render_table(snap);
    }
    rc = emit(*opts.stats, text);
  }
  if (opts.trace && rc == 0) {
    const auto records = obs::Trace::global().records();
    rc = emit(*opts.trace, has_suffix(*opts.trace, ".json")
                               ? obs::render_span_json(records)
                               : obs::render_span_tree(records));
  }
  if (opts.series && rc == 0) {
    const obs::Sampler& sampler = obs::Sampler::global();
    rc = emit(*opts.series, has_suffix(*opts.series, ".json")
                                ? obs::render_series_json(sampler)
                                : obs::render_series_csv(sampler));
  }
  return rc;
}

Flag services_flag(std::set<Ipv4>* services) {
  return value_flag(
      "--services", "FILE", "special-purpose node IPs, one per line",
      [services](const std::string& path) -> FlagError {
        const auto text = of::read_file(path);
        if (!text) return "cannot load services " + path;
        services->clear();
        std::istringstream lines(*text);
        for (std::string line; std::getline(lines, line);) {
          if (const auto ip = Ipv4::parse(line)) services->insert(*ip);
        }
        return std::nullopt;
      });
}

Flag task_flag(std::vector<core::TaskAutomaton>* tasks) {
  return value_flag("--task", "FILE",
                    "a task automaton whose changes are known (repeatable)",
                    [tasks](const std::string& path) {
                      return load_automaton(path, tasks);
                    });
}

std::vector<Flag> monitor_flags(core::MonitorOptions* options) {
  const core::MonitorOptions defaults;
  const ingest::SanitizerConfig sanitizer;
  return {
      seconds_flag("--window", "SECONDS",
                   "window length (default " +
                       number_text(to_seconds(defaults.window)) + ")",
                   [options](double seconds) {
                     options->window = from_seconds(seconds);
                   }),
      services_flag(&options->services),
      task_flag(&options->tasks),
      switch_flag("--rolling", &options->rolling_baseline,
                  "adopt each clean window as the new baseline"),
      switch_flag("--sanitize", &options->sanitize,
                  "repair reordering, duplicates and truncation, and grade "
                  "each window's stream quality"),
      // Flag-layer sugar: a horizon only means something to the
      // sanitizer, so asking for one opts in (validate() would otherwise
      // reject the pair).
      seconds_flag("--lateness", "SECONDS",
                   "sanitizer reorder horizon, shorter than --window "
                   "(default " +
                       number_text(to_seconds(sanitizer.lateness_horizon)) +
                       "; implies --sanitize)",
                   [options](double seconds) {
                     options->sanitize = true;
                     options->lateness = from_seconds(seconds);
                   }),
      text_flag("--listen", "ADDR:PORT", &options->listen,
                "serve live telemetry over HTTP (\":PORT\" binds every "
                "interface; port 0 picks one)"),
  };
}

std::optional<of::ControlLog> load_log(const std::string& path) {
  const auto text = of::read_file(path);
  if (!text) return std::nullopt;
  return of::parse_control_log(*text);
}

FlagError load_automaton(const std::string& path,
                         std::vector<core::TaskAutomaton>* automata) {
  const auto text = of::read_file(path);
  if (!text) return "cannot read automaton " + path;
  auto automaton = core::TaskAutomaton::parse(*text);
  if (!automaton) return "malformed automaton " + path;
  automata->push_back(std::move(*automaton));
  return std::nullopt;
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
