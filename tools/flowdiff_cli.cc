// flowdiff — command-line front end to the library.
//
//   flowdiff summary <log> [--services FILE]       model one control log
//   flowdiff diff <baseline.log> <current.log>     diff two control logs
//        [--services FILE] [--task AUTOMATON]...
//   flowdiff mine <name> <run.flows>... [--mask]   learn a task automaton
//        [--services FILE] [--out FILE]
//   flowdiff detect <AUTOMATON>... --in <capture.flows> [--services FILE]
//   flowdiff monitor <log> [--window SECONDS] [--services FILE]
//        [--task AUTOMATON]... [--rolling] [--report FILE]
//   flowdiff report <log> [--window SECONDS] [--services FILE]
//        [--task AUTOMATON]... [--rolling] [--out FILE] [--html]
//   flowdiff serve (--follow FILE[@TENANT] | --socket ADDR:PORT[@TENANT]
//        | --unix PATH[@TENANT])... [monitor knobs] [--listen ADDR:PORT]
//   flowdiff explain <alarm-id> (--artifacts DIR | --from ADDR:PORT)
//
// Control logs use the openflow/log_io.h text format; flow-sequence files
// hold FLOW lines; automata use TaskAutomaton::serialize(). A services
// file lists special-purpose node IPs, one per line.
//
// Every subcommand accepts the global flag --artifacts=DIR, which collects
// every run artifact under one directory:
// stats.txt, trace.json, series.csv and (monitor/report) report.md. The
// older per-artifact flags --stats[=FILE], --trace[=FILE] and
// --series[=FILE] remain as aliases and override the corresponding
// artifacts path; `flowdiff help` documents the mapping. monitor/report
// runs with an artifacts directory also write DIR/provenance.json — the
// alarm provenance records `flowdiff explain` reads back.
//
// Flag parsing for the global set and the shared monitor knob set lives in
// cli_args.h — one parser, one validation pass (MonitorOptions::validate),
// identical behavior across monitor/report/serve.
#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <functional>
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

void print_help(std::FILE* out) {
  std::fputs(
      "usage:\n"
      "  flowdiff summary <log> [--services FILE]\n"
      "  flowdiff diff <baseline.log> <current.log> [--services FILE] "
      "[--task FILE]...\n"
      "  flowdiff mine <name> <run.flows>... [--mask] [--services FILE] "
      "[--out FILE]\n"
      "  flowdiff detect <automaton>... --in <capture.flows> "
      "[--services FILE]\n"
      "  flowdiff monitor <log> [--window SECONDS] [--services FILE] "
      "[--task FILE]... [--rolling] [--sanitize] "
      "[--lateness SEC] [--listen ADDR:PORT] [--report FILE]\n"
      "  flowdiff report <log> [--window SECONDS] [--services FILE] "
      "[--task FILE]... [--rolling] [--sanitize] "
      "[--lateness SEC] [--listen ADDR:PORT] [--out FILE] [--html]\n"
      "  flowdiff serve (--follow FILE[@TENANT] | --socket "
      "ADDR:PORT[@TENANT] | --unix PATH[@TENANT])... [monitor knobs] "
      "[--by-controller] [--workers N] [--listen ADDR:PORT] "
      "[--transcripts DIR]\n"
      "  flowdiff explain <alarm-id> (--artifacts DIR | --from "
      "ADDR:PORT)\n"
      "  flowdiff help [serve]\n"
      "global flags (any subcommand):\n"
      "  --artifacts=DIR  write every run artifact into DIR (created if "
      "missing):\n"
      "                     DIR/stats.txt   metrics registry "
      "(--stats=DIR/stats.txt)\n"
      "                     DIR/trace.json  span tree "
      "(--trace=DIR/trace.json)\n"
      "                     DIR/series.csv  sampled series "
      "(--series=DIR/series.csv)\n"
      "                     DIR/report.md   run report, monitor/report "
      "only\n"
      "                                     (--report/--out "
      "DIR/report.md)\n"
      "                     DIR/provenance.json  alarm provenance "
      "records,\n"
      "                                     monitor/report only (read "
      "back by\n"
      "                                     `flowdiff explain`)\n"
      "                   the per-artifact aliases below override the\n"
      "                   corresponding DIR path when both are given\n"
      "  --stats[=FILE]   dump metrics after the run (.json/.prom/table "
      "by extension; default stderr)\n"
      "  --trace[=FILE]   dump the tracing span tree (.json for machine-"
      "readable; default stderr)\n"
      "  --series[=FILE]  dump sampled metric time series (.json else "
      "CSV; default stderr)\n"
      "monitor/report/serve knobs (parsed identically everywhere):\n"
      "  --window SECONDS window length (default 30)\n"
      "  --rolling        roll the baseline forward on clean windows\n"
      "  --sanitize       run ingest through the stream sanitizer: raw "
      "arrival\n"
      "                   order in, duplicates and truncated records "
      "dropped,\n"
      "                   bounded reordering repaired, per-window stream-"
      "quality\n"
      "                   records, degraded-mode alarm suppression. Clean\n"
      "                   streams are unaffected.\n"
      "  --lateness SEC   sanitizer reorder horizon in seconds (default 1; "
      "implies\n"
      "                   --sanitize; rejected without it or >= --window)\n"
      "  --listen ADDR:PORT  serve the live telemetry plane over HTTP "
      "(/metrics\n"
      "                   /healthz /series /recorder /audits /provenance "
      "/report;\n"
      "                   serve adds /tenants and /tenants/<id>/...; "
      "\":PORT\"\n"
      "                   binds all interfaces, port 0 picks one)\n"
      "explain flags:\n"
      "  --artifacts DIR  read DIR/provenance.json written by an earlier\n"
      "                   monitor/report run and print the record whose id\n"
      "                   matches <alarm-id> (the provenance id shown in "
      "the\n"
      "                   run report and on /provenance)\n"
      "  --from ADDR:PORT fetch the record from a live telemetry plane "
      "via\n"
      "                   GET /provenance?id=<alarm-id> instead\n"
      "exit status: 0 ok/clean, 1 unknown changes or alarms (diff, "
      "monitor, report, serve), 2 usage or I/O error\n",
      out);
}

void print_serve_help(std::FILE* out) {
  std::fputs(
      "flowdiff serve — long-running multi-tenant monitoring daemon\n"
      "\n"
      "Tails one or more live control-log sources, demultiplexes events\n"
      "into per-tenant monitor shards (each with its own baseline, windows,\n"
      "alarms, and provenance), and serves per-tenant telemetry over HTTP.\n"
      "Runs until SIGINT/SIGTERM, then flushes every shard's final window\n"
      "and reports per-tenant results.\n"
      "\n"
      "sources (repeatable; at least one required):\n"
      "  --follow FILE[@TENANT]     tail a control-log file, surviving\n"
      "                             rename rotation and in-place "
      "truncation;\n"
      "                             a missing file is waited for. Default\n"
      "                             tenant: the file name.\n"
      "  --socket ADDR:PORT[@TENANT] accept line-oriented control-log "
      "text\n"
      "                             over TCP (port 0 picks one; the bound\n"
      "                             port is announced on stdout).\n"
      "  --unix PATH[@TENANT]       same over a unix-domain socket.\n"
      "  --workers N                threads shared by the tenant shards "
      "(0-64;\n"
      "                             default 0 runs every shard inline on "
      "the\n"
      "                             poll thread). Each shard models its\n"
      "                             windows serially.\n"
      "routing:\n"
      "  --by-controller            ignore tenant labels and route every\n"
      "                             event by its controller id to tenant\n"
      "                             \"ctrl<N>\" — one shard per "
      "controller\n"
      "                             in an interleaved multi-controller "
      "feed.\n"
      "daemon knobs:\n"
      "  --from-end                 start tailing files at EOF (attach to "
      "a\n"
      "                             growing log) instead of replaying "
      "their\n"
      "                             current contents from the start.\n"
      "  --poll-ms MS               source poll interval when idle "
      "(default 50)\n"
      "  --evict-idle SECONDS       evict shards idle for SECONDS: flush "
      "the\n"
      "                             final window, keep results as a "
      "tombstone,\n"
      "                             free the monitor (0 = never, the "
      "default)\n"
      "  --exit-after-idle SECONDS  exit once every source has been idle "
      "for\n"
      "                             SECONDS (replay/test mode; 0 = run "
      "until\n"
      "                             signalled, the default)\n"
      "  --transcripts DIR          on shutdown write each tenant's\n"
      "                             deterministic monitor transcript to\n"
      "                             DIR/<tenant>.transcript (single-"
      "tenant\n"
      "                             serve over a corpus log is byte-"
      "identical\n"
      "                             to `flowdiff monitor` on the same "
      "log)\n"
      "monitor knobs: --window --rolling --sanitize --lateness --services\n"
      "  --task (see `flowdiff help`); each shard gets the same "
      "configuration.\n"
      "telemetry (--listen ADDR:PORT):\n"
      "  /healthz                   aggregate verdict — 503 as soon as "
      "ANY\n"
      "                             shard degrades or faults\n"
      "  /tenants                   shard registry (state, events, "
      "windows,\n"
      "                             alarms, health per tenant)\n"
      "  /tenants/<id>/healthz      per-tenant health verdict\n"
      "  /tenants/<id>/audits       per-window audit trail (csv|json,\n"
      "                             ?from=/?to= seconds)\n"
      "  /tenants/<id>/provenance   alarm provenance records (?id=N or\n"
      "                             ?limit=N)\n"
      "  /tenants/<id>/report       run report (md|html)\n"
      "  /tenants/<id>/transcript   deterministic monitor transcript\n"
      "exit status: 0 clean, 1 any shard alarmed, 2 usage or I/O error\n",
      out);
}

int usage() {
  print_help(stderr);
  return 2;
}

/// Set by main() before the subcommand runs; subcommands read the
/// artifacts directory (for the default report path) here.
cli::GlobalOptions g_opts;

/// Offline modeling drops events with a negative timestamp; say how many.
void report_negative_timestamps(const std::string& path,
                                std::uint64_t rejected) {
  if (rejected == 0) return;
  std::fprintf(stderr,
               "flowdiff: %s: %llu event(s) with a negative timestamp "
               "dropped before modeling\n",
               path.c_str(), static_cast<unsigned long long>(rejected));
}

int cmd_summary(const std::vector<std::string>& args) {
  std::string services_path;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--services" && i + 1 < args.size()) {
      services_path = args[++i];
    } else if (cli::reject_unknown_flag(args[i])) {
      return 2;
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 1) return usage();
  const auto log = cli::load_log(positional[0]);
  if (!log) return fail("cannot load control log " + positional[0]);
  core::FlowDiffConfig config;
  if (!services_path.empty()) {
    auto services = cli::load_services(services_path);
    if (!services) return fail("cannot load services " + services_path);
    config.model.special_nodes = std::move(*services);
  }
  const core::FlowDiff flowdiff(config);
  std::uint64_t rejected = 0;
  const auto model = flowdiff.model(*log, &rejected);
  report_negative_timestamps(positional[0], rejected);
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

int cmd_diff(std::vector<std::string> args) {
  std::string services_path;
  std::vector<std::string> task_paths;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--services" && i + 1 < args.size()) {
      services_path = args[++i];
    } else if (args[i] == "--task" && i + 1 < args.size()) {
      task_paths.push_back(args[++i]);
    } else if (cli::reject_unknown_flag(args[i])) {
      return 2;
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 2) return usage();

  core::FlowDiffConfig config;
  if (!services_path.empty()) {
    auto services = cli::load_services(services_path);
    if (!services) return fail("cannot load services " + services_path);
    config.model.special_nodes = std::move(*services);
  }
  std::vector<core::TaskAutomaton> tasks;
  for (const auto& path : task_paths) {
    const auto text = of::read_file(path);
    if (!text) return fail("cannot read automaton " + path);
    auto automaton = core::TaskAutomaton::parse(*text);
    if (!automaton) return fail("malformed automaton " + path);
    tasks.push_back(std::move(*automaton));
  }

  const auto baseline = cli::load_log(positional[0]);
  const auto current = cli::load_log(positional[1]);
  if (!baseline || !current) return fail("cannot load control logs");

  const core::FlowDiff flowdiff(config);
  std::uint64_t rejected_baseline = 0;
  std::uint64_t rejected_current = 0;
  const auto baseline_model = flowdiff.model(*baseline, &rejected_baseline);
  const auto current_model = flowdiff.model(*current, &rejected_current);
  report_negative_timestamps(positional[0], rejected_baseline);
  report_negative_timestamps(positional[1], rejected_current);
  const auto report = flowdiff.diff(baseline_model, current_model, tasks);
  std::fputs(report.render().c_str(), stdout);
  return report.clean() ? 0 : 1;
}

int cmd_mine(std::vector<std::string> args) {
  if (args.empty()) return usage();
  const std::string name = args.front();
  args.erase(args.begin());
  bool mask = false;
  std::string services_path;
  std::string out_path;
  std::vector<std::string> run_paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--mask") {
      mask = true;
    } else if (args[i] == "--services" && i + 1 < args.size()) {
      services_path = args[++i];
    } else if (args[i] == "--out" && i + 1 < args.size()) {
      out_path = args[++i];
    } else {
      run_paths.push_back(args[i]);
    }
  }
  if (run_paths.empty()) return usage();

  core::MiningConfig mining;
  mining.mask_subjects = mask;
  if (!services_path.empty()) {
    auto services = cli::load_services(services_path);
    if (!services) return fail("cannot load services " + services_path);
    mining.service_ips = std::move(*services);
  }
  std::vector<of::FlowSequence> runs;
  for (const auto& path : run_paths) {
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

int cmd_detect(std::vector<std::string> args) {
  std::string services_path;
  std::string capture_path;
  std::vector<std::string> automaton_paths;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--services" && i + 1 < args.size()) {
      services_path = args[++i];
    } else if (args[i] == "--in" && i + 1 < args.size()) {
      capture_path = args[++i];
    } else {
      automaton_paths.push_back(args[i]);
    }
  }
  if (automaton_paths.empty() || capture_path.empty()) return usage();

  core::DetectorConfig config;
  if (!services_path.empty()) {
    auto services = cli::load_services(services_path);
    if (!services) return fail("cannot load services " + services_path);
    config.service_ips = std::move(*services);
  }
  std::vector<core::TaskAutomaton> automata;
  for (const auto& path : automaton_paths) {
    const auto text = of::read_file(path);
    if (!text) return fail("cannot read automaton " + path);
    auto automaton = core::TaskAutomaton::parse(*text);
    if (!automaton) return fail("malformed automaton " + path);
    automata.push_back(std::move(*automaton));
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

// Mode-specific leftovers after the shared knob set was parsed.
struct MonitorCliArgs {
  core::MonitorOptions options;
  std::string log_path;
  std::string report_path;  ///< monitor --report FILE (empty = none)
  std::string out_path;     ///< report --out FILE (empty = stdout)
  bool html = false;        ///< report --html (or --report *.html)
};

std::optional<MonitorCliArgs> parse_monitor_args(
    const std::vector<std::string>& args, bool report_mode) {
  std::string error;
  const auto shared = cli::parse_monitor_flags(args, &error);
  if (!shared) {
    fail(error);
    return std::nullopt;
  }
  MonitorCliArgs parsed;
  parsed.options = shared->options;
  std::vector<std::string> positional;
  const auto& rest = shared->rest;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    if (!report_mode && rest[i] == "--report" && i + 1 < rest.size()) {
      parsed.report_path = rest[++i];
    } else if (report_mode && rest[i] == "--out" && i + 1 < rest.size()) {
      parsed.out_path = rest[++i];
    } else if (report_mode && rest[i] == "--html") {
      parsed.html = true;
    } else if (cli::reject_unknown_flag(rest[i])) {
      return std::nullopt;
    } else {
      positional.push_back(rest[i]);
    }
  }
  if (positional.size() != 1) return std::nullopt;
  parsed.log_path = positional[0];
  // --artifacts=DIR supplies the default report destination; an explicit
  // --report/--out still wins.
  if (!g_opts.artifacts_dir.empty()) {
    const std::string fallback = g_opts.artifacts_dir + "/report.md";
    if (report_mode && parsed.out_path.empty()) parsed.out_path = fallback;
    if (!report_mode && parsed.report_path.empty()) {
      parsed.report_path = fallback;
    }
  }
  return parsed;
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
/// artifacts directory was requested; `flowdiff explain --artifacts DIR`
/// reads it back. A run with no records still writes the (empty)
/// collection so explain can distinguish "no alarms" from "no artifact".
int write_provenance_artifact(const core::SlidingMonitor& monitor) {
  if (g_opts.artifacts_dir.empty()) return 0;
  const core::MonitorSnapshot snap = monitor.snapshot();
  const std::string path = g_opts.artifacts_dir + "/provenance.json";
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
    const MonitorCliArgs& parsed,
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
  if (const int rc = write_provenance_artifact(monitor); rc != 0) return rc;
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

int cmd_monitor(std::vector<std::string> args) {
  const auto parsed = parse_monitor_args(args, /*report_mode=*/false);
  if (!parsed) return usage();
  // The report joins sampled series and flight-recorder events; without
  // the obs layer there would be nothing to join. The telemetry plane
  // serves the same stack, so --listen implies it too.
  if (!parsed->report_path.empty() || !parsed->options.listen.empty()) {
    obs::set_enabled(true);
  }
  return run_file_monitor(*parsed, [&parsed](const core::SlidingMonitor& m) {
    return print_monitor_run(m, *parsed);
  });
}

int cmd_report(std::vector<std::string> args) {
  const auto parsed = parse_monitor_args(args, /*report_mode=*/true);
  if (!parsed) return usage();
  // The report exists to explain a run after the fact, so the telemetry
  // that feeds it is always on here, and a crash mid-run still leaves the
  // flight-recorder tail on stderr.
  obs::set_enabled(true);
  obs::FlightRecorder::install_abnormal_exit_dump();
  return run_file_monitor(
      *parsed, [&parsed](const core::SlidingMonitor& monitor) {
        return write_run_report(monitor, parsed->out_path, parsed->html);
      });
}

// --- serve: the multi-tenant live-source daemon ----------------------------

struct ServeSourceSpec {
  enum class Kind { kFile, kTcp, kUnix } kind = Kind::kFile;
  std::string target;  ///< file path, ADDR:PORT, or unix path
  std::string tenant;  ///< empty = derived default
};

struct ServeCliArgs {
  core::MonitorOptions options;
  std::vector<ServeSourceSpec> sources;
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
constexpr int kMaxServeWorkers = 64;

/// Parses a --workers value: a plain decimal in [0, kMaxServeWorkers].
std::optional<int> parse_worker_count(const std::string& text) {
  int value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end || value < 0 ||
      value > kMaxServeWorkers) {
    return std::nullopt;
  }
  return value;
}

/// Splits "TARGET@TENANT" at the last '@' (targets may contain none).
ServeSourceSpec split_source(ServeSourceSpec::Kind kind,
                             const std::string& value) {
  ServeSourceSpec spec;
  spec.kind = kind;
  const auto at = value.rfind('@');
  if (at == std::string::npos || at == 0) {
    spec.target = value;
  } else {
    spec.target = value.substr(0, at);
    spec.tenant = value.substr(at + 1);
  }
  return spec;
}

std::optional<ServeCliArgs> parse_serve_args(
    const std::vector<std::string>& args) {
  std::string error;
  const auto shared = cli::parse_monitor_flags(args, &error);
  if (!shared) {
    fail(error);
    return std::nullopt;
  }
  ServeCliArgs parsed;
  parsed.options = shared->options;
  const auto& rest = shared->rest;
  std::size_t sockets = 0;
  for (std::size_t i = 0; i < rest.size(); ++i) {
    std::string value;
    if (cli::flag_value(rest, &i, "--workers", &value)) {
      const auto workers = parse_worker_count(value);
      if (!workers) {
        fail("--workers must be an integer from 0 to " +
             std::to_string(kMaxServeWorkers) + " (got '" + value + "')");
        return std::nullopt;
      }
      parsed.workers = *workers;
    } else if (rest[i] == "--follow" && i + 1 < rest.size()) {
      auto spec = split_source(ServeSourceSpec::Kind::kFile, rest[++i]);
      if (spec.tenant.empty()) {
        spec.tenant =
            std::filesystem::path(spec.target).filename().string();
      }
      parsed.sources.push_back(std::move(spec));
    } else if (rest[i] == "--socket" && i + 1 < rest.size()) {
      auto spec = split_source(ServeSourceSpec::Kind::kTcp, rest[++i]);
      if (spec.tenant.empty()) {
        spec.tenant = "socket" + std::to_string(sockets);
      }
      ++sockets;
      parsed.sources.push_back(std::move(spec));
    } else if (rest[i] == "--unix" && i + 1 < rest.size()) {
      auto spec = split_source(ServeSourceSpec::Kind::kUnix, rest[++i]);
      if (spec.tenant.empty()) {
        spec.tenant = "socket" + std::to_string(sockets);
      }
      ++sockets;
      parsed.sources.push_back(std::move(spec));
    } else if (rest[i] == "--by-controller") {
      parsed.by_controller = true;
    } else if (rest[i] == "--from-end") {
      parsed.from_end = true;
    } else if (rest[i] == "--poll-ms" && i + 1 < rest.size()) {
      parsed.poll_ms = std::strtol(rest[++i].c_str(), nullptr, 10);
      if (parsed.poll_ms <= 0) {
        fail("--poll-ms must be a positive integer");
        return std::nullopt;
      }
    } else if (rest[i] == "--evict-idle" && i + 1 < rest.size()) {
      parsed.evict_idle_s = std::strtod(rest[++i].c_str(), nullptr);
    } else if (rest[i] == "--exit-after-idle" && i + 1 < rest.size()) {
      parsed.exit_after_idle_s = std::strtod(rest[++i].c_str(), nullptr);
    } else if (rest[i] == "--transcripts" && i + 1 < rest.size()) {
      parsed.transcripts_dir = rest[++i];
    } else {
      fail("unknown serve argument: " + rest[i]);
      return std::nullopt;
    }
  }
  if (parsed.sources.empty()) {
    fail("serve needs at least one --follow / --socket / --unix source");
    return std::nullopt;
  }
  return parsed;
}

double monotonic_seconds() {
  struct timespec ts = {};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

int cmd_serve(std::vector<std::string> args) {
  const auto parsed = parse_serve_args(args);
  if (!parsed) return 2;
  if (!parsed->options.listen.empty()) obs::set_enabled(true);

  // Build the sources. Sockets bind before the manager starts so their
  // announced ports are live by the time anything connects.
  std::vector<std::unique_ptr<ingest::EventSource>> sources;
  for (const ServeSourceSpec& spec : parsed->sources) {
    switch (spec.kind) {
      case ServeSourceSpec::Kind::kFile: {
        ingest::FileTailConfig config;
        config.path = spec.target;
        config.from_start = !parsed->from_end;
        sources.push_back(std::make_unique<ingest::FileTailSource>(
            spec.tenant, std::move(config)));
        break;
      }
      case ServeSourceSpec::Kind::kTcp: {
        const auto addr = obs::parse_listen_address(spec.target);
        if (!addr) {
          return fail("malformed --socket address: " + spec.target);
        }
        ingest::SocketSourceConfig config;
        config.address = addr->first;
        config.port = addr->second;
        auto source = std::make_unique<ingest::SocketSource>(
            spec.tenant, std::move(config));
        if (!source->start()) {
          return fail("cannot listen on " + spec.target + ": " +
                      source->last_error());
        }
        sources.push_back(std::move(source));
        break;
      }
      case ServeSourceSpec::Kind::kUnix: {
        ingest::SocketSourceConfig config;
        config.unix_path = spec.target;
        auto source = std::make_unique<ingest::SocketSource>(
            spec.tenant, std::move(config));
        if (!source->start()) {
          return fail("cannot listen on " + spec.target + ": " +
                      source->last_error());
        }
        sources.push_back(std::move(source));
        break;
      }
    }
  }

  core::ManagerConfig manager_config;
  manager_config.options = parsed->options;
  manager_config.workers = parsed->workers;
  core::MonitorManager manager(manager_config);
  for (const auto& source : sources) {
    if (!parsed->by_controller) manager.register_tenant(source->tenant());
  }

  std::optional<core::TelemetryPlane> plane;  // Destructs before manager.
  if (!parsed->options.listen.empty()) {
    if (const int rc = cli::start_telemetry_plane(plane,
                                                  parsed->options.listen);
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
      parsed->evict_idle_s > 0
          ? static_cast<std::uint64_t>(
                parsed->evict_idle_s * 1000.0 /
                static_cast<double>(parsed->poll_ms)) +
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
      if (parsed->by_controller) {
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
    if (parsed->exit_after_idle_s > 0 &&
        now - last_event_at >= parsed->exit_after_idle_s) {
      break;
    }
    struct timespec delay = {parsed->poll_ms / 1000,
                             (parsed->poll_ms % 1000) * 1000000L};
    nanosleep(&delay, nullptr);
  }

  // Graceful shutdown: stop accepting (sources die with this scope),
  // drain and flush every shard's final window, then report.
  manager.stop_all();

  if (!parsed->transcripts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parsed->transcripts_dir, ec);
    if (ec) {
      return fail("cannot create transcripts directory " +
                  parsed->transcripts_dir + ": " + ec.message());
    }
    for (const std::string& tenant : manager.tenants()) {
      const auto snap = manager.snapshot(tenant);
      if (!snap) continue;
      const std::string path =
          parsed->transcripts_dir + "/" + tenant + ".transcript";
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

/// `flowdiff explain <id> (--artifacts DIR | --from ADDR:PORT)`. Parses its
/// own flags (deliberately not extract_global_options(): an explain run must
/// never overwrite the stats/trace/series files the monitor run left in the
/// artifacts directory it is reading).
int cmd_explain(const std::vector<std::string>& args) {
  std::string artifacts_dir;
  std::string from;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--artifacts" && i + 1 < args.size()) {
      artifacts_dir = args[++i];
    } else if (args[i].rfind("--artifacts=", 0) == 0) {
      artifacts_dir = args[i].substr(std::strlen("--artifacts="));
    } else if (args[i] == "--from" && i + 1 < args.size()) {
      from = args[++i];
    } else if (args[i].rfind("--from=", 0) == 0) {
      from = args[i].substr(std::strlen("--from="));
    } else {
      positional.push_back(args[i]);
    }
  }
  if (positional.size() != 1 || artifacts_dir.empty() == from.empty()) {
    return usage();
  }
  std::uint64_t id = 0;
  {
    const std::string& text = positional[0];
    char* end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || *end != '\0' || errno != 0 || text[0] == '-') {
      return fail("malformed alarm id '" + text + "' (expected an integer)");
    }
    id = parsed;
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

}  // namespace

int main(int argc, char** argv) {
  using flowdiff::cli::fail;
  if (argc < 2) return usage();
  const std::string command = argv[1];
  if (command == "help" || command == "--help" || command == "-h") {
    if (argc > 2 && std::string(argv[2]) == "serve") {
      print_serve_help(stdout);
    } else {
      print_help(stdout);
    }
    return 0;
  }
  std::vector<std::string> args(argv + 2, argv + argc);
  // explain parses --artifacts itself (it reads that directory; the global
  // flag would make dump_observability() overwrite its contents).
  if (command == "explain") return cmd_explain(args);
  const flowdiff::cli::GlobalOptions obs_opts =
      flowdiff::cli::extract_global_options(args);
  g_opts = obs_opts;
  if (!obs_opts.artifacts_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(obs_opts.artifacts_dir, ec);
    if (ec) {
      return fail("cannot create artifacts directory " +
                  obs_opts.artifacts_dir + ": " + ec.message());
    }
  }

  int rc = 2;
  if (command == "summary") {
    rc = cmd_summary(args);
  } else if (command == "diff") {
    rc = cmd_diff(std::move(args));
  } else if (command == "mine") {
    rc = cmd_mine(std::move(args));
  } else if (command == "detect") {
    rc = cmd_detect(std::move(args));
  } else if (command == "monitor") {
    rc = cmd_monitor(std::move(args));
  } else if (command == "report") {
    rc = cmd_report(std::move(args));
  } else if (command == "serve") {
    rc = cmd_serve(std::move(args));
  } else {
    return usage();
  }

  const int obs_rc = flowdiff::cli::dump_observability(obs_opts);
  return rc != 0 ? rc : obs_rc;
}
