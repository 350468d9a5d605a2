// Canonical end-to-end ingest throughput benchmark.
//
// Replays every committed golden-trace capture (tests/corpus/*.log)
// through the full passive-capture hot path — parse (openflow/log_io) →
// sanitize (ingest/StreamSanitizer) → monitor (core::SlidingMonitor) —
// and reports events/sec, MB/sec, and peak RSS per stage and end to end.
// The numbers land in machine-readable JSON (--out=FILE, committed at the
// repo root as BENCH_throughput.json by tools/ci.sh) so every PR extends
// a recorded perf trajectory instead of guessing.
//
// Correctness is pinned in-run: when a case has a committed .golden
// transcript, the replayed transcript must match byte for byte or the
// bench exits nonzero — a fast wrong parser scores zero.
//
// Schema 3 adds the incremental window-modeling legs: monitor.window_ms
// over the corpus with delta maintenance on vs off (two instrumented
// passes), and a steady-state replay (steady.log repeated through one
// rolling monitor) timed in both modes. The two modes must render
// byte-identical transcripts or the bench exits nonzero — the same
// fast-but-wrong-scores-zero rule, applied to the incremental modeler.
// Schema 4 drops the seed-parser comparison leg (`parse_legacy` and the
// `parse_speedup_vs_legacy` ratios).
//
// Usage: throughput_replay [--quick] [--iters=N] [--corpus=DIR]
//                          [--out=FILE] [--listen=ADDR:PORT]
//   --quick    single iteration (the ctest -L bench coverage run)
//   --iters=N  timing iterations per stage, best-of (default 5)
//   --listen=ADDR:PORT  serve the live telemetry plane during the run
//              (enables obs instrumentation, so timings shift; the flag is
//              for watching a long bench, not for recording trajectories)
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "flowdiff/monitor.h"
#include "flowdiff/telemetry.h"
#include "ingest/sanitizer.h"
#include "obs/export.h"
#include "obs/http_server.h"
#include "obs/metrics.h"
#include "openflow/log_io.h"

namespace flowdiff {
namespace {

// --- Timing helpers ----------------------------------------------------------

using Clock = std::chrono::steady_clock;

/// Best-of-N wall time in seconds; best-of filters scheduler noise the way
/// the micro_benchmarks suite does.
template <typename F>
double time_best(int iters, F&& fn) {
  double best = 1e300;
  for (int i = 0; i < iters; ++i) {
    const auto t0 = Clock::now();
    fn();
    const std::chrono::duration<double> dt = Clock::now() - t0;
    best = std::min(best, dt.count());
  }
  return best;
}

struct StageRate {
  double secs = 0.0;
  double events_per_sec = 0.0;
  double mb_per_sec = 0.0;
};

StageRate rate(double secs, std::size_t events, std::size_t bytes) {
  StageRate out;
  out.secs = secs;
  out.events_per_sec = secs > 0.0 ? static_cast<double>(events) / secs : 0.0;
  out.mb_per_sec =
      secs > 0.0 ? static_cast<double>(bytes) / secs / 1.0e6 : 0.0;
  return out;
}

struct CaseResult {
  std::string name;
  std::size_t bytes = 0;
  std::size_t events = 0;
  bool golden_ok = true;
  bool has_golden = false;
  StageRate parse;
  StageRate sanitize;
  StageRate monitor;
  StageRate end_to_end;
};

/// Steady-state leg (schema 3): the same long-lived rolling replay timed
/// with the delta-maintained incremental modeler on and off, plus the
/// byte-identity verdict that gates the comparison.
struct SteadyResult {
  std::size_t repeats = 0;
  std::size_t events = 0;
  StageRate incremental;
  StageRate from_scratch;
  double speedup = 0.0;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

void append_stage(std::string& json, const char* key, const StageRate& s,
                  bool trailing_comma) {
  json += std::string("      \"") + key + "\": {\"secs\": " + num(s.secs) +
          ", \"events_per_sec\": " + num(s.events_per_sec) +
          ", \"mb_per_sec\": " + num(s.mb_per_sec) + "}";
  json += trailing_comma ? ",\n" : "\n";
}

double peak_rss_mb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  // Linux reports ru_maxrss in kilobytes.
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

int fail(const std::string& message) {
  std::fprintf(stderr, "throughput_replay: %s\n", message.c_str());
  return 1;
}

}  // namespace

int run(int argc, char** argv) {
  std::string corpus_dir = FLOWDIFF_CORPUS_DIR;
  std::string out_path;
  std::string listen;
  int iters = 5;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg.rfind("--iters=", 0) == 0) {
      iters = std::max(1, std::atoi(arg.substr(8).data()));
    } else if (arg.rfind("--corpus=", 0) == 0) {
      corpus_dir = std::string(arg.substr(9));
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = std::string(arg.substr(6));
    } else if (arg.rfind("--listen=", 0) == 0) {
      listen = std::string(arg.substr(9));
    } else {
      return fail("unknown flag: " + std::string(arg) +
                  " (usage: throughput_replay [--quick] [--iters=N] "
                  "[--corpus=DIR] [--out=FILE] [--listen=ADDR:PORT])");
    }
  }
  if (quick) iters = 1;

  // Optional live telemetry plane: each stage-3 monitor is attached while
  // it runs, so a scraper can watch a long bench converge. Implies obs
  // instrumentation for the whole run.
  std::optional<core::TelemetryPlane> plane;
  if (!listen.empty()) {
    const auto addr = obs::parse_listen_address(listen);
    if (!addr) return fail("malformed --listen address: " + listen);
    core::TelemetryConfig tconfig;
    tconfig.http.address = addr->first;
    tconfig.http.port = addr->second;
    plane.emplace(std::move(tconfig));
    if (!plane->start()) {
      return fail("cannot start telemetry plane on " + listen + ": " +
                  plane->last_error());
    }
    obs::set_enabled(true);
    std::printf(
        "throughput_replay: telemetry plane listening on http://%s:%u\n",
        addr->first.c_str(), static_cast<unsigned>(plane->port()));
    std::fflush(stdout);
  }

  std::vector<std::filesystem::path> logs;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(corpus_dir, ec)) {
    if (entry.path().extension() == ".log") logs.push_back(entry.path());
  }
  if (ec) return fail("cannot list corpus dir " + corpus_dir);
  if (logs.empty()) return fail("no .log cases in " + corpus_dir);
  std::sort(logs.begin(), logs.end());

  std::vector<CaseResult> results;
  std::size_t total_events = 0;
  std::size_t total_bytes = 0;
  double total_parse_s = 0.0;
  double total_e2e_s = 0.0;

  for (const auto& path : logs) {
    const auto text = of::read_file(path.string());
    if (!text) return fail("cannot read " + path.string());
    CaseResult r;
    r.name = path.stem().string();
    r.bytes = text->size();

    const auto parsed_case = exp::parse_corpus_case(*text);
    if (!parsed_case) return fail("corpus header/parse failed: " + r.name);
    r.events = parsed_case->events.size();

    // Stage 1: the line parser.
    r.parse = rate(time_best(iters,
                             [&] {
                               const auto events =
                                   of::parse_control_events(*text);
                               if (!events) std::abort();
                             }),
                   r.events, r.bytes);

    // Stage 2: sanitizer restore pass over the parsed arrivals.
    r.sanitize =
        rate(time_best(iters,
                       [&] {
                         ingest::StreamSanitizer sanitizer(
                             parsed_case->config.ingest);
                         std::size_t kept = 0;
                         const auto sink = [&kept](const of::ControlEvent&) {
                           ++kept;
                         };
                         sanitizer.push(parsed_case->events, sink);
                         sanitizer.flush(sink);
                       }),
             r.events, r.bytes);

    // Stage 3: windowed monitor replay (model + diff per window), on the
    // case's own committed configuration.
    std::string transcript;
    r.monitor = rate(time_best(iters,
                               [&] {
                                 core::SlidingMonitor monitor(
                                     parsed_case->config);
                                 if (plane) plane->attach(&monitor);
                                 monitor.feed(parsed_case->events);
                                 monitor.flush();
                                 transcript =
                                     core::render_monitor_transcript(monitor);
                                 if (plane) plane->attach(nullptr);
                               }),
                     r.events, r.bytes);

    // Golden pin: fast but wrong scores zero.
    auto golden_path = path;
    golden_path.replace_extension(".golden");
    if (const auto golden = of::read_file(golden_path.string())) {
      r.has_golden = true;
      r.golden_ok = (*golden == transcript);
      if (!r.golden_ok) {
        return fail("transcript drifted from " + golden_path.string());
      }
    }

    // End to end: bytes on disk to monitor verdicts, one pass.
    r.end_to_end = rate(time_best(iters,
                                  [&] {
                                    const auto replayed =
                                        exp::parse_corpus_case(*text);
                                    if (!replayed) std::abort();
                                    core::SlidingMonitor monitor(
                                        replayed->config);
                                    monitor.feed(replayed->events);
                                    monitor.flush();
                                  }),
                        r.events, r.bytes);

    total_events += r.events;
    total_bytes += r.bytes;
    total_parse_s += r.parse.secs;
    total_e2e_s += r.end_to_end.secs;
    results.push_back(std::move(r));
  }

  // --- Steady-state leg: incremental vs from-scratch window modeling ------
  // Replays steady.log several times, each repeat shifted past the last
  // window boundary, through ONE rolling monitor per mode — the
  // steady-state shape where per-window model cost is the whole story.
  // Golden-drift gate: the two modes must render byte-identical
  // transcripts, or a fast-but-wrong incremental path scores zero.
  SteadyResult steady;
  {
    const auto steady_it =
        std::find_if(logs.begin(), logs.end(), [](const auto& p) {
          return p.stem().string() == "steady";
        });
    if (steady_it == logs.end()) return fail("corpus has no steady case");
    const auto text = of::read_file(steady_it->string());
    if (!text) return fail("cannot read " + steady_it->string());
    const auto parsed_case = exp::parse_corpus_case(*text);
    if (!parsed_case) return fail("corpus header/parse failed: steady");
    if (parsed_case->events.empty()) return fail("steady case is empty");
    steady.repeats = quick ? 2 : 5;
    const SimDuration window = parsed_case->config.window;
    const SimTime span =
        parsed_case->events.back().ts - parsed_case->events.front().ts;
    const SimTime step = (span / window + 2) * window;
    std::vector<of::ControlEvent> stream;
    stream.reserve(parsed_case->events.size() * steady.repeats);
    for (std::size_t rep = 0; rep < steady.repeats; ++rep) {
      for (of::ControlEvent event : parsed_case->events) {
        event.ts += static_cast<SimTime>(rep) * step;
        stream.push_back(std::move(event));
      }
    }
    steady.events = stream.size();
    const int steady_iters = quick ? 1 : std::min(iters, 3);
    std::string transcripts[2];
    const auto run_mode = [&](bool incremental, std::string* transcript) {
      auto config = parsed_case->config;
      config.incremental = incremental;
      config.rolling_baseline = true;  // Clean windows roll the baseline.
      core::SlidingMonitor monitor(config);
      monitor.feed(stream);
      monitor.flush();
      *transcript = core::render_monitor_transcript(monitor);
    };
    steady.incremental =
        rate(time_best(steady_iters, [&] { run_mode(true, &transcripts[0]); }),
             steady.events, 0);
    steady.from_scratch =
        rate(time_best(steady_iters,
                       [&] { run_mode(false, &transcripts[1]); }),
             steady.events, 0);
    if (transcripts[0] != transcripts[1]) {
      return fail(
          "steady_state transcripts diverged between incremental and "
          "from-scratch modes (oracle-identity gate)");
    }
    steady.speedup = steady.incremental.secs > 0.0
                         ? steady.from_scratch.secs / steady.incremental.secs
                         : 0.0;
  }

  // Two instrumented end-to-end passes: the obs registry supplies the
  // per-stage counter breakdown (ingest.* / monitor.*) for the JSON, and
  // monitor.window_ms from the oracle pass vs the incremental pass is the
  // recorded window-close cost drop.
  const auto instrumented_pass = [&](bool incremental) {
    obs::Registry::global().reset();
    obs::set_enabled(true);
    for (const auto& path : logs) {
      const auto text = of::read_file(path.string());
      const auto replayed = exp::parse_corpus_case(*text);
      auto config = replayed->config;
      config.incremental = incremental;
      core::SlidingMonitor monitor(config);
      if (plane) plane->attach(&monitor);
      monitor.feed(replayed->events);
      monitor.flush();
      if (plane) plane->attach(nullptr);
    }
    obs::set_enabled(false);
    return obs::Registry::global().snapshot();
  };
  const obs::Snapshot snap_oracle = instrumented_pass(false);
  const obs::Snapshot snap = instrumented_pass(true);

  const double parse_eps =
      total_parse_s > 0.0 ? static_cast<double>(total_events) / total_parse_s
                          : 0.0;
  const double e2e_eps =
      total_e2e_s > 0.0 ? static_cast<double>(total_events) / total_e2e_s
                        : 0.0;

  std::string json = "{\n";
  json += "  \"bench\": \"throughput_replay\",\n";
  json += "  \"schema\": 4,\n";
  json += std::string("  \"quick\": ") + (quick ? "true" : "false") + ",\n";
  json += "  \"iterations\": " + std::to_string(iters) + ",\n";
  json += "  \"cases\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const CaseResult& r = results[i];
    json += "    {\"name\": \"" + r.name + "\",\n";
    json += "     \"bytes\": " + std::to_string(r.bytes) +
            ", \"events\": " + std::to_string(r.events) + ", \"golden\": " +
            (r.has_golden ? (r.golden_ok ? "\"ok\"" : "\"DRIFTED\"")
                          : "\"none\"") +
            ",\n";
    json += "     \"stages\": {\n";
    append_stage(json, "parse", r.parse, true);
    append_stage(json, "sanitize", r.sanitize, true);
    append_stage(json, "monitor", r.monitor, true);
    append_stage(json, "end_to_end", r.end_to_end, false);
    json += "     }}";
    json += (i + 1 < results.size()) ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"total\": {\"events\": " + std::to_string(total_events) +
          ", \"bytes\": " + std::to_string(total_bytes) + ",\n";
  json += "    \"parse_events_per_sec\": " + num(parse_eps) + ",\n";
  json += "    \"end_to_end_events_per_sec\": " + num(e2e_eps) + ",\n";
  json += "    \"end_to_end_mb_per_sec\": " +
          num(total_e2e_s > 0.0
                  ? static_cast<double>(total_bytes) / total_e2e_s / 1.0e6
                  : 0.0) +
          "},\n";
  // Incremental window modeling (schema 3): per-window close cost over the
  // corpus with delta maintenance on vs off, and the steady-state replay
  // rates. The steady transcripts passed the byte-identity gate above, so
  // these are timings of the *same* outputs.
  const auto hist_mean = [](const obs::Snapshot& s,
                            const std::string& name) -> double {
    for (const auto& [n, h] : s.histograms) {
      if (n == name) return h.mean();
    }
    return 0.0;
  };
  const double window_ms_inc = hist_mean(snap, "monitor.window_ms");
  const double window_ms_oracle = hist_mean(snap_oracle, "monitor.window_ms");
  json += "  \"window_ms\": {\"incremental_mean\": " + num(window_ms_inc) +
          ", \"from_scratch_mean\": " + num(window_ms_oracle) +
          ", \"speedup\": " +
          num(window_ms_inc > 0.0 ? window_ms_oracle / window_ms_inc : 0.0) +
          "},\n";
  json += "  \"steady_state\": {\"repeats\": " +
          std::to_string(steady.repeats) +
          ", \"events\": " + std::to_string(steady.events) + ",\n";
  json += "    \"incremental\": {\"secs\": " + num(steady.incremental.secs) +
          ", \"events_per_sec\": " + num(steady.incremental.events_per_sec) +
          "},\n";
  json += "    \"from_scratch\": {\"secs\": " + num(steady.from_scratch.secs) +
          ", \"events_per_sec\": " + num(steady.from_scratch.events_per_sec) +
          "},\n";
  json += "    \"speedup\": " + num(steady.speedup) +
          ", \"transcripts_identical\": true},\n";
  // Detection latency (schema 2): the monitor.latency.* stage histograms
  // from the instrumented pass, summarized as event->alarm percentiles
  // plus a per-stage breakdown. Wall-clock, so values vary run to run;
  // the trajectory tracks the distribution shape, not exact numbers.
  const auto find_hist =
      [&snap](const std::string& name) -> const obs::HistogramSnapshot* {
    for (const auto& [n, h] : snap.histograms) {
      if (n == name) return &h;
    }
    return nullptr;
  };
  json += "  \"detection_latency_ms\": {\n";
  {
    const auto* e2a = find_hist("monitor.latency.event_to_alarm_ms");
    json += "    \"event_to_alarm\": {\"count\": " +
            std::to_string(e2a ? e2a->count : 0) +
            ", \"p50\": " + num(e2a ? e2a->quantile(0.5) : 0.0) +
            ", \"p99\": " + num(e2a ? e2a->quantile(0.99) : 0.0) +
            ", \"mean\": " + num(e2a ? e2a->mean() : 0.0) + "},\n";
    json += "    \"stages\": {";
    const std::array<const char*, 4> stages = {"ingest", "model", "diff",
                                               "decide"};
    for (std::size_t s = 0; s < stages.size(); ++s) {
      const auto* h =
          find_hist(std::string("monitor.latency.") + stages[s] + "_ms");
      json += s == 0 ? "\n" : ",\n";
      json += std::string("      \"") + stages[s] +
              "\": {\"count\": " + std::to_string(h ? h->count : 0) +
              ", \"mean\": " + num(h ? h->mean() : 0.0) +
              ", \"p99\": " + num(h ? h->quantile(0.99) : 0.0) + "}";
    }
    json += "\n    }\n";
  }
  json += "  },\n";
  json += "  \"peak_rss_mb\": " + num(peak_rss_mb()) + ",\n";
  json += "  \"obs\": {\"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    if (name.rfind("ingest.", 0) != 0 && name.rfind("monitor.", 0) != 0) {
      continue;
    }
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + name + "\": " + std::to_string(value);
  }
  json += first ? "}" : "\n  }";
  json += ", \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    if (name.rfind("monitor.", 0) != 0) continue;
    json += first ? "\n" : ",\n";
    first = false;
    json += "    \"" + name + "\": {\"count\": " + std::to_string(h.count) +
            ", \"mean\": " + num(h.mean()) + "}";
  }
  json += first ? "}}\n" : "\n  }}\n";
  json += "}\n";

  if (!out_path.empty() && !of::write_file(out_path, json)) {
    return fail("cannot write " + out_path);
  }

  std::printf("throughput_replay: %zu cases, %zu events, %.1f MB%s\n",
              results.size(), total_events,
              static_cast<double>(total_bytes) / 1.0e6,
              quick ? " [quick]" : "");
  for (const CaseResult& r : results) {
    std::printf("  %-20s parse %10.0f ev/s  e2e %9.0f ev/s%s\n",
                r.name.c_str(), r.parse.events_per_sec,
                r.end_to_end.events_per_sec,
                r.has_golden ? "  [golden ok]" : "");
  }
  std::printf(
      "  TOTAL parse %.0f ev/s, end-to-end %.0f ev/s, peak RSS %.1f MB\n",
      parse_eps, e2e_eps, peak_rss_mb());
  std::printf(
      "  window close: %.3f ms incremental vs %.3f ms from scratch "
      "(x%.2f)\n",
      window_ms_inc, window_ms_oracle,
      window_ms_inc > 0.0 ? window_ms_oracle / window_ms_inc : 0.0);
  std::printf(
      "  steady state (%zu repeats, %zu events): %.0f ev/s incremental vs "
      "%.0f ev/s from scratch (x%.2f)  [transcripts identical]\n",
      steady.repeats, steady.events, steady.incremental.events_per_sec,
      steady.from_scratch.events_per_sec, steady.speedup);
  if (!out_path.empty()) {
    std::printf("  wrote %s\n", out_path.c_str());
  }
  return 0;
}

}  // namespace flowdiff

int main(int argc, char** argv) { return flowdiff::run(argc, argv); }
