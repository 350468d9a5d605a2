// flowdiff — command-line front end to the library; `flowdiff help [CMD]`
// lists the commands and each command's flags.
//
// Control logs use the openflow/log_io.h text format; flow-sequence files
// hold FLOW lines; automata use TaskAutomaton::serialize(). A services
// file lists special-purpose node IPs, one per line.
//
// Each command declares its flags once, as a table of cli::Flag rows
// (cli_args.h), and parses, prints its usage line and prints its help
// from that one table.
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "cli_args.h"
#include "flowdiff/flowdiff.h"
#include "flowdiff/monitor.h"
#include "flowdiff/monitor_manager.h"
#include "flowdiff/provenance.h"
#include "flowdiff/report.h"
#include "flowdiff/telemetry.h"
#include "ingest/event_source.h"
#include "obs/http_server.h"
#include "obs/obs.h"
#include "openflow/log_io.h"
#include "util/table.h"

namespace {

using namespace flowdiff;
using cli::fail;

/// What main asks of a command: run it, or print its usage line or its
/// full help, each from the flag table the command declares.
enum class Mode { kRun, kUsage, kHelp };

struct Command;

struct Invocation {
  Invocation(const Command* command, Mode mode, std::FILE* out = stdout,
             std::vector<std::string> args = {})
      : command(command), mode(mode), out(out), args(std::move(args)) {}

  const Command* command;
  Mode mode;
  std::FILE* out;  ///< Where kUsage/kHelp print.
  std::vector<std::string> args;
  cli::GlobalOptions global;
  std::vector<std::string> operands;  ///< What parse() left of args.

  /// Runs the command's table `flags`, followed by the global rows unless
  /// `with_global` is false: in kRun, parses args into the rows' targets
  /// and `operands` and prepares the artifacts directory; otherwise
  /// prints. Returns the exit status when the command stops here, nullopt
  /// when it should go on and run.
  std::optional<int> parse(std::vector<cli::Flag> flags,
                           bool with_global = true);
};

struct Command {
  const char* name;
  const char* operands;  ///< The usage line's text before the flags.
  const char* about;     ///< What `flowdiff help NAME` says before the flags.
  int (*run)(Invocation&);
};

void print_help(std::FILE* out);

int usage() {
  print_help(stderr);
  return 2;
}

std::optional<int> Invocation::parse(std::vector<cli::Flag> flags,
                                     bool with_global) {
  std::string head = std::string("flowdiff ") + command->name;
  if (*command->operands != '\0') head += std::string(" ") + command->operands;
  if (mode == Mode::kUsage) {
    cli::print_usage_line(out, head, flags);
    return 0;
  }
  if (with_global) {
    std::vector<cli::Flag> global_rows = cli::global_flags(&global);
    flags.insert(flags.end(), global_rows.begin(), global_rows.end());
  }
  if (mode == Mode::kHelp) {
    std::fputs("usage:\n", out);
    cli::print_usage_line(out, head, flags);
    std::fprintf(out, "\n%s\nflags:\n", command->about);
    cli::print_flags(out, flags);
    return 0;
  }
  auto parsed = cli::parse_flags(args, flags);
  if (!parsed) return 2;
  operands = std::move(*parsed);
  if (const int rc = cli::prepare_artifacts(global); rc != 0) return rc;
  return std::nullopt;
}

/// Offline modeling drops events with a negative timestamp; say how many.
void report_negative_timestamps(const std::string& path,
                                std::uint64_t rejected) {
  if (rejected == 0) return;
  std::fprintf(stderr,
               "flowdiff: %s: %llu event(s) with a negative timestamp "
               "dropped before modeling\n",
               path.c_str(), static_cast<unsigned long long>(rejected));
}

int cmd_summary(Invocation& in) {
  core::FlowDiffConfig config;
  if (const auto done =
          in.parse({cli::services_flag(&config.model.special_nodes)})) {
    return *done;
  }
  if (in.operands.size() != 1) return usage();
  const std::string& path = in.operands[0];
  const auto log = cli::load_log(path);
  if (!log) return fail("cannot load control log " + path);
  const core::FlowDiff flowdiff(config);
  std::uint64_t rejected = 0;
  const auto model = flowdiff.model(*log, &rejected);
  report_negative_timestamps(path, rejected);
  std::printf("log: %zu events over %.1fs (%zu PacketIn, %zu FlowMod, "
              "%zu FlowRemoved)\n",
              log->size(), to_seconds(log->end_time() - log->begin_time()),
              log->count<of::PacketIn>(), log->count<of::FlowMod>(),
              log->count<of::FlowRemoved>());
  std::printf("application groups: %zu\n", model.groups.size());
  for (std::size_t g = 0; g < model.groups.size(); ++g) {
    const auto& group = model.groups[g];
    std::printf("  group %zu: %zu hosts, %zu edges, %zu dd-pairs, "
                "%zu pc-pairs\n",
                g, group.sig.members.size(),
                group.sig.cg.graph.edge_count(),
                group.sig.dd.per_pair.size(), group.sig.pc.rho.size());
    for (const Ipv4 ip : group.sig.members) {
      std::printf("    %s\n", ip.to_string().c_str());
    }
  }
  std::printf("infrastructure: %zu topology edges, %zu ISL pairs, "
              "CRT mean %.3fms over %zu samples\n",
              model.infra.pt.graph.edge_count(),
              model.infra.isl.latency_ms.size(),
              model.infra.crt.response_ms.mean(),
              model.infra.crt.response_ms.count());
  return 0;
}

int cmd_diff(Invocation& in) {
  core::FlowDiffConfig config;
  std::vector<core::TaskAutomaton> tasks;
  if (const auto done =
          in.parse({cli::services_flag(&config.model.special_nodes),
                    cli::task_flag(&tasks)})) {
    return *done;
  }
  if (in.operands.size() != 2) return usage();
  const auto baseline = cli::load_log(in.operands[0]);
  const auto current = cli::load_log(in.operands[1]);
  if (!baseline || !current) return fail("cannot load control logs");

  const core::FlowDiff flowdiff(config);
  std::uint64_t rejected_baseline = 0;
  std::uint64_t rejected_current = 0;
  const auto baseline_model = flowdiff.model(*baseline, &rejected_baseline);
  const auto current_model = flowdiff.model(*current, &rejected_current);
  report_negative_timestamps(in.operands[0], rejected_baseline);
  report_negative_timestamps(in.operands[1], rejected_current);
  const auto report = flowdiff.diff(baseline_model, current_model, tasks);
  std::fputs(report.render().c_str(), stdout);
  return report.clean() ? 0 : 1;
}

int cmd_mine(Invocation& in) {
  core::MiningConfig mining;
  std::string out_path;
  if (const auto done = in.parse({
          cli::switch_flag("--mask", &mining.mask_subjects,
                           "mask non-service IPs as variables"),
          cli::services_flag(&mining.service_ips),
          cli::text_flag("--out", "FILE", &out_path,
                         "write the automaton to FILE (default stdout)"),
      })) {
    return *done;
  }
  if (in.operands.size() < 2) return usage();
  const std::string& name = in.operands[0];
  std::vector<of::FlowSequence> runs;
  for (std::size_t i = 1; i < in.operands.size(); ++i) {
    const std::string& path = in.operands[i];
    const auto text = of::read_file(path);
    if (!text) return fail("cannot read run " + path);
    auto flows = of::parse_flow_sequence(*text);
    if (!flows) return fail("malformed flow sequence " + path);
    runs.push_back(std::move(*flows));
  }

  const auto mined = core::mine_task(name, runs, mining);
  std::fprintf(stderr,
               "mined '%s': %zu common flows, %zu closed patterns, "
               "%zu automaton states\n",
               name.c_str(), mined.common_flows.size(),
               mined.patterns.size(), mined.automaton.state_count());
  const std::string serialized = mined.automaton.serialize();
  if (out_path.empty()) {
    std::fputs(serialized.c_str(), stdout);
  } else if (!of::write_file(out_path, serialized)) {
    return fail("cannot write " + out_path);
  }
  return 0;
}

int cmd_detect(Invocation& in) {
  core::DetectorConfig config;
  std::string capture_path;
  if (const auto done = in.parse({
          cli::text_flag("--in", "FILE", &capture_path,
                         "flow capture to scan (required)"),
          cli::services_flag(&config.service_ips),
      })) {
    return *done;
  }
  if (in.operands.empty() || capture_path.empty()) return usage();
  std::vector<core::TaskAutomaton> automata;
  for (const auto& path : in.operands) {
    if (const auto error = cli::load_automaton(path, &automata)) {
      return fail(*error);
    }
  }
  const auto capture_text = of::read_file(capture_path);
  if (!capture_text) return fail("cannot read capture " + capture_path);
  const auto capture = of::parse_flow_sequence(*capture_text);
  if (!capture) return fail("malformed capture " + capture_path);

  const auto found = core::detect_tasks(automata, config, *capture);
  for (const auto& occ : found) {
    std::printf("%-20s t=[%.3fs, %.3fs] hosts:", occ.task.c_str(),
                to_seconds(occ.begin), to_seconds(occ.end));
    for (const Ipv4 ip : occ.involved) {
      std::printf(" %s", ip.to_string().c_str());
    }
    std::printf("\n");
  }
  std::fprintf(stderr, "%zu occurrence(s)\n", found.size());
  return 0;
}

// --- monitor / report ------------------------------------------------------

/// What `monitor` and `report` parse.
struct MonitorCliArgs {
  core::MonitorOptions options;
  std::string log_path;
  std::string report_path;  ///< monitor --report / report --out FILE
  bool html = false;        ///< report --html (or a *.html report path)
};

/// Parses `monitor` or `report`: the monitor rows plus the command's
/// `own`, one <log> operand, options that validate(), and --artifacts'
/// default report path, which an explicit --report/--out overrides.
std::optional<int> parse_file_monitor(Invocation& in, MonitorCliArgs& parsed,
                                      const std::vector<cli::Flag>& own) {
  std::vector<cli::Flag> flags = cli::monitor_flags(&parsed.options);
  flags.insert(flags.end(), own.begin(), own.end());
  if (const auto done = in.parse(std::move(flags))) return done;
  if (in.operands.size() != 1) return usage();
  if (const auto rejected = parsed.options.validate()) return fail(*rejected);
  parsed.log_path = in.operands[0];
  if (parsed.report_path.empty() && !in.global.artifacts_dir.empty()) {
    parsed.report_path = in.global.artifacts_dir + "/report.md";
  }
  return std::nullopt;
}

/// Feeds the log file into the monitor. With --sanitize the file is parsed
/// in raw arrival order (a corrupted capture's reordering must reach the
/// sanitizer); otherwise through the time-sorted ControlLog.
int feed_monitor_from_file(core::SlidingMonitor& monitor,
                           const MonitorCliArgs& parsed) {
  const auto text = of::read_file(parsed.log_path);
  if (!text) return fail("cannot load control log " + parsed.log_path);
  if (parsed.options.sanitize) {
    const auto events = of::parse_control_events(*text);
    if (!events) return fail("malformed control log " + parsed.log_path);
    monitor.feed(*events);
  } else {
    const auto log = of::parse_control_log(*text);
    if (!log) return fail("malformed control log " + parsed.log_path);
    monitor.feed(*log);
  }
  return 0;
}

/// Renders the joined run report for a finished monitor and writes it to
/// `path` (or stdout when empty).
int write_run_report(const core::SlidingMonitor& monitor,
                     const std::string& path, bool html) {
  const std::string report = core::render_run_report(
      monitor.snapshot(), obs::Sampler::global(),
      obs::FlightRecorder::global(),
      html || cli::has_suffix(path, ".html"));
  if (path.empty()) {
    std::fputs(report.c_str(), stdout);
    return 0;
  }
  if (!of::write_file(path, report)) return fail("cannot write " + path);
  std::fprintf(stderr, "report written to %s\n", path.c_str());
  return 0;
}

/// Writes the monitor's provenance ring to DIR/provenance.json when an
/// artifacts directory `dir` was requested; `flowdiff explain --artifacts
/// DIR` reads it back. A run with no records still writes the (empty)
/// collection so explain can distinguish "no alarms" from "no artifact".
int write_provenance_artifact(const core::SlidingMonitor& monitor,
                              const std::string& dir) {
  if (dir.empty()) return 0;
  const core::MonitorSnapshot snap = monitor.snapshot();
  const std::string path = dir + "/provenance.json";
  const std::string text = core::render_provenance_collection_json(
      snap.explained, snap.provenance_dropped);
  if (!of::write_file(path, text)) return fail("cannot write " + path);
  return 0;
}

/// The file-monitor run `monitor` and `report` share: builds the monitor,
/// serves it on --listen, feeds the log and flushes, then hands the
/// finished monitor to `finish` for the command's own output and writes
/// the provenance artifact. A --listen run keeps serving the fed but
/// unflushed run (so /healthz still sees a live partial window) until the
/// operator or a supervisor signals, and only then flushes the final
/// window. Exits 1 when the run alarmed.
int run_file_monitor(
    const Invocation& in, const MonitorCliArgs& parsed,
    const std::function<int(const core::SlidingMonitor&)>& finish) {
  core::SlidingMonitor monitor(parsed.options);
  // Declared after the monitor: the plane destructs (joining its server
  // thread) first on every exit path, so no handler can observe a dead
  // monitor.
  std::optional<core::TelemetryPlane> plane;
  if (!parsed.options.listen.empty()) {
    if (const int rc =
            cli::start_telemetry_plane(plane, parsed.options.listen);
        rc != 0) {
      return rc;
    }
    plane->attach(&monitor);
  }
  if (const int rc = feed_monitor_from_file(monitor, parsed); rc != 0) {
    return rc;
  }
  if (plane) cli::wait_for_shutdown();
  monitor.flush();
  if (plane) plane->stop();
  if (const int rc = finish(monitor); rc != 0) return rc;
  if (const int rc =
          write_provenance_artifact(monitor, in.global.artifacts_dir);
      rc != 0) {
    return rc;
  }
  return monitor.health().alarms == 0 ? 0 : 1;
}

/// `monitor`'s output for a finished run: the summary line, the audit
/// table (with obs on), each alarm's report, and the --report file.
int print_monitor_run(const core::SlidingMonitor& monitor,
                      const MonitorCliArgs& parsed) {
  const core::MonitorSnapshot snap = monitor.snapshot();
  std::printf("windows: %zu (baseline captured at t=%.1fs), alarms: %zu\n",
              snap.windows, to_seconds(snap.baseline_begin), snap.alarms);
  if (const std::uint64_t rejected = monitor.health().rejected_out_of_order;
      rejected > 0) {
    std::fprintf(stderr,
                 "flowdiff: %llu event(s) rejected: older than the newest "
                 "one ingested, or a negative timestamp\n",
                 static_cast<unsigned long long>(rejected));
  }
  if (obs::enabled() && !monitor.audits().empty()) {
    // Quality columns appear only once a window actually degraded, so a
    // clean run prints the same table with or without --sanitize.
    bool any_degraded = false;
    for (const auto& audit : monitor.audits()) {
      any_degraded = any_degraded || audit.quality.degraded();
    }
    std::vector<std::string> header{"#",   "window", "events", "wall_ms",
                                    "chg", "known",  "unk"};
    if (any_degraded) {
      header.push_back("supp");
      header.push_back("quality");
    }
    header.push_back("decision");
    TextTable table(header);
    for (const auto& audit : monitor.audits()) {
      std::vector<std::string> row{
          std::to_string(audit.index),
          "[" + fmt_double(to_seconds(audit.window_begin), 1) + "s, " +
              fmt_double(to_seconds(audit.window_end), 1) + "s)",
          std::to_string(audit.events),
          fmt_double(audit.wall_ms, 3),
          std::to_string(audit.changes),
          std::to_string(audit.known),
          std::to_string(audit.unknown)};
      if (any_degraded) {
        row.push_back(std::to_string(audit.suppressed));
        row.push_back(audit.quality.degraded() ? audit.quality.summary()
                                               : "ok");
      }
      row.push_back(audit.decision);
      table.add_row(std::move(row));
    }
    std::printf("\nper-window audit trail:\n%s", table.render().c_str());
  }
  for (const auto& entry : snap.explained) {
    if (!entry->report) continue;
    std::printf("\n=== ALARM window [%.1fs, %.1fs] ===\n",
                to_seconds(entry->provenance.window_begin),
                to_seconds(entry->provenance.window_end));
    std::fputs(entry->report->render().c_str(), stdout);
  }
  if (parsed.report_path.empty()) return 0;
  return write_run_report(monitor, parsed.report_path, parsed.html);
}

int cmd_monitor(Invocation& in) {
  MonitorCliArgs parsed;
  if (const auto done = parse_file_monitor(
          in, parsed,
          {cli::text_flag("--report", "FILE", &parsed.report_path,
                          "also write the run report (HTML for *.html)")})) {
    return *done;
  }
  // The report joins sampled series and flight-recorder events; without
  // the obs layer there would be nothing to join. The telemetry plane
  // serves the same stack, so --listen implies it too.
  if (!parsed.report_path.empty() || !parsed.options.listen.empty()) {
    obs::set_enabled(true);
  }
  return run_file_monitor(in, parsed,
                          [&parsed](const core::SlidingMonitor& monitor) {
                            return print_monitor_run(monitor, parsed);
                          });
}

int cmd_report(Invocation& in) {
  MonitorCliArgs parsed;
  if (const auto done = parse_file_monitor(
          in, parsed,
          {cli::text_flag("--out", "FILE", &parsed.report_path,
                          "write the report to FILE (default stdout)"),
           cli::switch_flag("--html", &parsed.html,
                            "render HTML, not Markdown")})) {
    return *done;
  }
  // The report exists to explain a run after the fact, so the telemetry
  // that feeds it is always on here, and a crash mid-run still leaves the
  // flight-recorder tail on stderr.
  obs::set_enabled(true);
  obs::FlightRecorder::install_abnormal_exit_dump();
  return run_file_monitor(
      in, parsed, [&parsed](const core::SlidingMonitor& monitor) {
        return write_run_report(monitor, parsed.report_path, parsed.html);
      });
}

// --- serve: the multi-tenant live-source daemon ----------------------------

enum class SourceKind { kFile, kTcp, kUnix };

struct ServeSourceSpec {
  std::string target;  ///< file path, ADDR:PORT, or unix path
  std::string tenant;
  std::optional<ingest::SocketSourceConfig> socket;  ///< nullopt: a file
};

struct ServeCliArgs {
  core::MonitorOptions options;
  std::vector<ServeSourceSpec> sources;
  std::size_t sockets = 0;  ///< --socket/--unix sources, for default tenants.
  bool by_controller = false;
  bool from_end = false;
  long poll_ms = 50;
  double evict_idle_s = 0;       ///< 0 = never evict
  double exit_after_idle_s = 0;  ///< 0 = run until signalled
  std::string transcripts_dir;
  int workers = 0;  ///< MonitorManager pool size (0 = inline)
};

/// Largest --workers serve accepts: far past any speedup the cross-tenant
/// pool has shown, and small enough that a typo cannot ask for thousands
/// of threads.
constexpr long kMaxServeWorkers = 64;

/// Longest --poll-ms: a minute between polls of an idle source.
constexpr long kMaxPollMs = 60 * 1000;

/// A repeatable source row: "TARGET[@TENANT]" at the last '@' (targets
/// may contain none). A file's default tenant is its name, a socket's
/// "socket<N>" for the N-th socket source.
cli::Flag source_flag(const char* name, const char* metavar, SourceKind kind,
                      std::string help, ServeCliArgs* parsed) {
  return cli::value_flag(
      name, metavar, std::move(help),
      [kind, parsed](const std::string& value) -> cli::FlagError {
        ServeSourceSpec spec;
        const auto at = value.rfind('@');
        const bool tagged = at != std::string::npos && at != 0;
        spec.target = tagged ? value.substr(0, at) : value;
        if (tagged) spec.tenant = value.substr(at + 1);
        if (kind == SourceKind::kFile) {
          if (spec.tenant.empty()) {
            spec.tenant = std::filesystem::path(spec.target).filename();
          }
          parsed->sources.push_back(std::move(spec));
          return std::nullopt;
        }
        spec.socket.emplace();
        if (kind == SourceKind::kUnix) {
          spec.socket->unix_path = spec.target;
        } else if (const auto addr = obs::parse_listen_address(spec.target)) {
          spec.socket->address = addr->first;
          spec.socket->port = addr->second;
        } else {
          return "malformed --socket address: " + spec.target;
        }
        if (spec.tenant.empty()) {
          spec.tenant = "socket" + std::to_string(parsed->sockets);
        }
        ++parsed->sockets;
        parsed->sources.push_back(std::move(spec));
        return std::nullopt;
      });
}

double monotonic_seconds() {
  struct timespec ts = {};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int cmd_serve(Invocation& in) {
  using Kind = SourceKind;
  ServeCliArgs parsed;
  std::vector<cli::Flag> flags = cli::monitor_flags(&parsed.options);
  flags.insert(flags.end(), {
      source_flag("--follow", "FILE[@TENANT]", Kind::kFile,
                  "tail a file across rotation and truncation (default "
                  "tenant: the file name)",
                  &parsed),
      source_flag("--socket", "ADDR:PORT[@TENANT]", Kind::kTcp,
                  "accept log lines over TCP (port 0 picks one)", &parsed),
      source_flag("--unix", "PATH[@TENANT]", Kind::kUnix,
                  "accept log lines over a unix-domain socket", &parsed),
      cli::integer_flag(
          "--workers", "N", 0, kMaxServeWorkers,
          "threads shared by the shards (default " +
              std::to_string(parsed.workers) + ": inline)",
          [&parsed](long n) { parsed.workers = static_cast<int>(n); }),
      cli::switch_flag("--by-controller", &parsed.by_controller,
                       "route each event to tenant ctrl<N> by controller"),
      cli::switch_flag("--from-end", &parsed.from_end,
                       "tail files from EOF, not from the start"),
      cli::integer_flag("--poll-ms", "MS", 1, kMaxPollMs,
                        "idle poll interval (default " +
                            std::to_string(parsed.poll_ms) + ")",
                        [&parsed](long ms) { parsed.poll_ms = ms; }),
      cli::seconds_flag("--evict-idle", "SECONDS",
                        "flush and free shards idle this long (default " +
                            cli::number_text(parsed.evict_idle_s) +
                            ": never)",
                        [&parsed](double s) { parsed.evict_idle_s = s; }),
      cli::seconds_flag("--exit-after-idle", "SECONDS",
                        "exit once all sources idle this long (default " +
                            cli::number_text(parsed.exit_after_idle_s) +
                            ": never)",
                        [&parsed](double s) { parsed.exit_after_idle_s = s; }),
      cli::text_flag("--transcripts", "DIR", &parsed.transcripts_dir,
                     "write DIR/<tenant>.transcript on shutdown"),
  });
  if (const auto done = in.parse(std::move(flags))) return *done;
  if (!in.operands.empty()) return usage();
  if (const auto rejected = parsed.options.validate()) return fail(*rejected);
  if (parsed.sources.empty()) {
    return fail("serve needs at least one --follow / --socket / --unix source");
  }
  if (!parsed.options.listen.empty()) obs::set_enabled(true);

  // Build the sources. Sockets bind before the manager starts so their
  // announced ports are live by the time anything connects.
  std::vector<std::unique_ptr<ingest::EventSource>> sources;
  for (const ServeSourceSpec& spec : parsed.sources) {
    if (!spec.socket) {
      ingest::FileTailConfig config;
      config.path = spec.target;
      config.from_start = !parsed.from_end;
      sources.push_back(std::make_unique<ingest::FileTailSource>(
          spec.tenant, std::move(config)));
      continue;
    }
    auto source = std::make_unique<ingest::SocketSource>(spec.tenant,
                                                         *spec.socket);
    if (!source->start()) {
      return fail("cannot listen on " + spec.target + ": " +
                  source->last_error());
    }
    sources.push_back(std::move(source));
  }

  core::ManagerConfig manager_config;
  manager_config.options = parsed.options;
  manager_config.workers = parsed.workers;
  core::MonitorManager manager(manager_config);
  for (const auto& source : sources) {
    if (!parsed.by_controller) manager.register_tenant(source->tenant());
  }

  std::optional<core::TelemetryPlane> plane;  // Destructs before manager.
  if (!parsed.options.listen.empty()) {
    if (const int rc = cli::start_telemetry_plane(plane,
                                                  parsed.options.listen);
        rc != 0) {
      return rc;
    }
    plane->attach_manager(&manager);
  } else {
    cli::install_shutdown_signals();
  }
  for (const auto& source : sources) {
    // Announced one per line; tests parse the socket lines for ephemeral
    // ports. Printed after the plane line so supervisors see both.
    std::printf("flowdiff: serve source %s -> tenant %s\n",
                source->describe().c_str(), source->tenant().c_str());
  }
  std::fflush(stdout);

  const std::uint64_t evict_ticks =
      parsed.evict_idle_s > 0
          ? static_cast<std::uint64_t>(
                parsed.evict_idle_s * 1000.0 /
                static_cast<double>(parsed.poll_ms)) +
                1
          : 0;
  double last_event_at = monotonic_seconds();
  std::vector<of::ControlEvent> batch;
  struct ControllerRun {
    ControllerId controller;
    std::vector<of::ControlEvent> events;
  };
  std::vector<ControllerRun> runs;  // --by-controller; reused across polls.

  while (!cli::shutdown_requested()) {
    std::size_t produced = 0;
    for (const auto& source : sources) {
      batch.clear();
      source->poll(batch);
      if (batch.empty()) continue;
      produced += batch.size();
      if (parsed.by_controller) {
        // Demux by controller id: each event lands in its controller's
        // shard regardless of which source carried it. The poll's batch is
        // split into per-controller runs (arrival order kept within each)
        // so every controller's tenant is fed once per poll.
        std::size_t used = 0;
        for (const of::ControlEvent& event : batch) {
          std::size_t i = 0;
          while (i < used && runs[i].controller != event.controller) ++i;
          if (i == used) {
            if (used == runs.size()) runs.emplace_back();
            runs[used].controller = event.controller;
            runs[used].events.clear();
            ++used;
          }
          runs[i].events.push_back(event);
        }
        for (std::size_t i = 0; i < used; ++i) {
          manager.feed("ctrl" + std::to_string(runs[i].controller.value),
                       runs[i].events);
        }
      } else {
        manager.feed(source->tenant(), batch);
      }
    }
    manager.tick();
    if (evict_ticks > 0) {
      for (const std::string& tenant : manager.evict_idle(evict_ticks)) {
        std::printf("flowdiff: evicted idle tenant %s\n", tenant.c_str());
        std::fflush(stdout);
      }
    }
    const double now = monotonic_seconds();
    if (produced > 0) {
      last_event_at = now;
      continue;  // Drain hot sources without sleeping.
    }
    if (parsed.exit_after_idle_s > 0 &&
        now - last_event_at >= parsed.exit_after_idle_s) {
      break;
    }
    struct timespec delay = {parsed.poll_ms / 1000,
                             (parsed.poll_ms % 1000) * 1000000L};
    nanosleep(&delay, nullptr);
  }

  // Graceful shutdown: stop accepting (sources die with this scope),
  // drain and flush every shard's final window, then report.
  manager.stop_all();

  if (!parsed.transcripts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parsed.transcripts_dir, ec);
    if (ec) {
      return fail("cannot create transcripts directory " +
                  parsed.transcripts_dir + ": " + ec.message());
    }
    for (const std::string& tenant : manager.tenants()) {
      const auto snap = manager.snapshot(tenant);
      if (!snap) continue;
      const std::string path =
          parsed.transcripts_dir + "/" + tenant + ".transcript";
      if (!of::write_file(path, core::render_monitor_transcript(*snap))) {
        return fail("cannot write " + path);
      }
    }
  }

  if (plane) plane->stop();

  std::size_t total_alarms = 0;
  for (const core::ShardStatus& status : manager.statuses()) {
    total_alarms += status.alarms;
    std::printf("flowdiff: tenant %s [%s]: events %llu, windows %zu, "
                "alarms %zu%s%s\n",
                status.tenant.c_str(), core::to_string(status.state),
                static_cast<unsigned long long>(status.events),
                status.windows, status.alarms,
                status.fault.empty() ? "" : ", fault: ",
                status.fault.c_str());
  }
  for (const auto& source : sources) {
    const ingest::SourceStats& stats = source->stats();
    std::printf("flowdiff: source %s: events %llu, rejected %llu, "
                "rotations %llu, truncations %llu, accepts %llu, "
                "disconnects %llu\n",
                source->describe().c_str(),
                static_cast<unsigned long long>(stats.events),
                static_cast<unsigned long long>(stats.lines_rejected),
                static_cast<unsigned long long>(stats.rotations),
                static_cast<unsigned long long>(stats.truncations),
                static_cast<unsigned long long>(stats.accepts),
                static_cast<unsigned long long>(stats.disconnects));
  }
  std::fflush(stdout);
  return total_alarms == 0 ? 0 : 1;
}

// --- explain: print one provenance record from artifacts or a live plane ---

/// `flowdiff explain <id> (--artifacts DIR | --from ADDR:PORT)`. Its table
/// leaves out the global rows: an explain run must never overwrite the
/// stats/trace/series files the monitor run left in the artifacts
/// directory it is reading.
int cmd_explain(Invocation& in) {
  std::string artifacts_dir;
  std::string from;
  if (const auto done = in.parse(
          {cli::text_flag("--artifacts", "DIR", &artifacts_dir,
                          "read DIR/provenance.json of a monitor run"),
           cli::text_flag("--from", "ADDR:PORT", &from,
                          "fetch the record from a live telemetry plane")},
          /*with_global=*/false)) {
    return *done;
  }
  if (in.operands.size() != 1 || artifacts_dir.empty() == from.empty()) {
    return usage();
  }
  std::uint64_t id = 0;
  if (const auto error = cli::parse_integer(
          "alarm id", in.operands[0], std::uint64_t{0},
          std::numeric_limits<std::uint64_t>::max(), &id)) {
    return fail(*error);
  }

  std::string source;  // For the not-found message.
  std::string payload;
  if (!artifacts_dir.empty()) {
    source = artifacts_dir + "/provenance.json";
    const auto text = of::read_file(source);
    if (!text) return fail("cannot read " + source);
    payload = *text;
  } else {
    const auto addr = obs::parse_listen_address(from);
    if (!addr) return fail("malformed --from address: " + from);
    source = "http://" + from + "/provenance";
    const auto response = obs::http_get(addr->first, addr->second,
                                        "/provenance?id=" +
                                            std::to_string(id));
    if (!response) return fail("cannot fetch " + source);
    if (response->status == 404) {
      return fail("no provenance record with id " + std::to_string(id) +
                  " at " + source + " (unknown or rotated out)");
    }
    if (response->status != 200) {
      return fail(source + " answered HTTP " +
                  std::to_string(response->status));
    }
    payload = response->body;
  }

  const auto records = core::parse_provenance_json(payload);
  if (!records) return fail("malformed provenance JSON from " + source);
  for (const core::ProvenanceRecord& record : *records) {
    if (record.id == id) {
      std::fputs(
          core::render_provenance_text(record, /*with_latency=*/true).c_str(),
          stdout);
      return 0;
    }
  }
  return fail("no provenance record with id " + std::to_string(id) + " in " +
              source + " (unknown or rotated out)");
}

constexpr const char* kServeAbout =
    "Long-running multi-tenant monitoring daemon. Tails live control-log\n"
    "sources (at least one --follow, --socket or --unix), feeds each tenant's\n"
    "events to its own monitor shard (baseline, windows, alarms, provenance;\n"
    "every shard takes the same monitor flags), and serves per-tenant\n"
    "telemetry. On SIGINT/SIGTERM it flushes every shard's final window and\n"
    "reports per-tenant results.\n"
    "\n"
    "telemetry (--listen ADDR:PORT):\n"
    "  /healthz                  503 as soon as ANY shard degrades or faults\n"
    "  /tenants                  state, events, windows, alarms and health\n"
    "  /tenants/<id>/healthz     per-tenant health verdict\n"
    "  /tenants/<id>/audits      audit trail (csv|json, ?from=/?to=)\n"
    "  /tenants/<id>/provenance  alarm provenance records (?id=N or ?limit=N)\n"
    "  /tenants/<id>/report      run report (md|html)\n"
    "  /tenants/<id>/transcript  deterministic monitor transcript\n";

const Command kCommands[] = {
    {"summary", "<log>", "Models one control log.\n", cmd_summary},
    {"diff", "<baseline.log> <current.log>", "Diffs two control logs.\n",
     cmd_diff},
    {"mine", "<name> <run.flows>...", "Learns a task automaton.\n", cmd_mine},
    {"detect", "<automaton>...", "Finds task occurrences in a capture.\n",
     cmd_detect},
    {"monitor", "<log>", "Replays a log through the monitor.\n", cmd_monitor},
    {"report", "<log>", "Writes a monitor run's report.\n", cmd_report},
    {"serve", "", kServeAbout, cmd_serve},
    {"explain", "<alarm-id>",
     "Prints why an alarm fired. Takes exactly one of --artifacts and "
     "--from.\n",
     cmd_explain},
};

const Command* find_command(const std::string& name) {
  for (const Command& command : kCommands) {
    if (name == command.name) return &command;
  }
  return nullptr;
}

constexpr const char* kExitStatus =
    "exit status: 0 ok/clean, 1 unknown changes or alarms (diff, monitor,\n"
    "report, serve), 2 usage or I/O error\n";

void print_help(std::FILE* out) {
  std::fputs("usage:\n", out);
  for (const Command& command : kCommands) {
    Invocation in(&command, Mode::kUsage, out);
    command.run(in);
  }
  std::fputs("  flowdiff help [CMD]\n"
             "\n"
             "Every value flag takes --flag VALUE or --flag=VALUE; "
             "`flowdiff help CMD`\n"
             "lists CMD's flags. Global flags (every command but explain):\n",
             out);
  cli::GlobalOptions unused;
  cli::print_flags(out, cli::global_flags(&unused));
  std::fputs(kExitStatus, out);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string name = argv[1];
  if (name == "help" || name == "--help" || name == "-h") {
    if (argc == 2) {
      print_help(stdout);
      return 0;
    }
    Invocation in(find_command(argv[2]), Mode::kHelp);
    if (in.command == nullptr) return usage();
    const int rc = in.command->run(in);
    std::fputs(kExitStatus, stdout);
    return rc;
  }
  Invocation in(find_command(name), Mode::kRun, stdout,
                {argv + 2, argv + argc});
  if (in.command == nullptr) return usage();
  const int rc = in.command->run(in);
  const int obs_rc = cli::dump_observability(in.global);
  return rc != 0 ? rc : obs_rc;
}
