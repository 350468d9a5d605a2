// End-to-end identity of window modeling on the Fig. 13 multi-app
// workload, the corpus captures and a repeated steady capture: the
// incremental monitor must emit the same alarm/audit/provenance sequence
// as the from-scratch oracle, and the same model for every window; the
// ingest sanitizer must be invisible on a clean stream, and a telemetry
// scraper on another thread must never perturb (or tear) what the monitor
// commits. A corrupted capture cycling every fault family, fed in 50 ms
// chunks through a serve tenant, must match the oracle window by window.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiment/corpus.h"
#include "experiment/lab_experiment.h"
#include "experiment/scalability.h"
#include "faults/corruptor.h"
#include "faults/faults.h"
#include "flowdiff/monitor.h"
#include "flowdiff/monitor_manager.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"
#include "incremental_stream.h"
#include "openflow/log_io.h"
#include "workload/fingerprint.h"
#include "workload/flood.h"
#include "workload/incast.h"
#include "workload/tasks.h"

namespace flowdiff::core {
namespace {

/// A 6 s capture of four multi-tier applications: enough windows and
/// behavioral drift that the monitor alarms, rebaselines and files
/// provenance, so a single flipped bit in any window's model shows up.
const of::ControlLog& capture() {
  // The simulation dominates test time; run it once.
  static const of::ControlLog log = [] {
    exp::ScalabilityConfig config;
    config.app_count = 4;
    config.duration = 6 * kSecond;
    config.seed = 11;
    return exp::capture_scalability_log(config);
  }();
  return log;
}

/// The alarm/audit/provenance sequence a monitor committed.
std::vector<std::string> transcript_of(const SlidingMonitor& monitor) {
  std::vector<std::string> transcript;
  for (const auto& audit : monitor.audits()) {
    transcript.push_back(std::to_string(audit.index) + "|" +
                         std::to_string(audit.alarmed) + "|" +
                         std::to_string(audit.rebaselined) + "|" +
                         audit.decision);
  }
  for (const auto& entry : monitor.snapshot().explained) {
    if (!entry->report) continue;
    transcript.push_back("alarm@" +
                         std::to_string(entry->provenance.window_begin) +
                         "\n" + entry->report->render());
  }
  // Provenance records are part of the determinism contract too: same
  // ids, contributors, scores, and verdicts (stage latencies are
  // wall-clock, so the transcript renderer omits them).
  transcript.push_back(render_provenance_transcript(monitor));
  return transcript;
}

/// 1 s windows with a rolling baseline.
/// `incremental = false` forces every window through the from-scratch
/// model build (the oracle mode the identity tests compare against).
MonitorOptions monitor_options(bool sanitize = false,
                               bool incremental = true) {
  MonitorOptions options;
  options.window = kSecond;
  options.rolling_baseline = true;
  options.sanitize = sanitize;
  options.incremental = incremental;
  return options;
}

std::vector<std::string> monitor_transcript(bool sanitize = false,
                                            bool incremental = true) {
  SlidingMonitor monitor(monitor_options(sanitize, incremental));
  monitor.feed(capture());
  monitor.flush();
  return transcript_of(monitor);
}

/// The steady corpus capture repeated `repeats` times, each copy shifted
/// past the previous copy's last window boundary: the long-lived rolling
/// shape in which one monitor reuses its window state across many windows.
exp::CorpusCase steady_repeated(std::size_t repeats) {
  const auto text =
      of::read_file(std::string(FLOWDIFF_CORPUS_DIR) + "/steady.log");
  if (!text) return {};
  auto steady = exp::parse_corpus_case(*text);
  if (!steady || steady->events.empty()) return {};
  const SimDuration window = steady->options.window;
  const SimTime span = steady->events.back().ts - steady->events.front().ts;
  const SimTime step = (span / window + 2) * window;
  exp::CorpusCase repeated;
  repeated.options = steady->options;
  repeated.options.rolling_baseline = true;
  repeated.events.reserve(steady->events.size() * repeats);
  for (std::size_t rep = 0; rep < repeats; ++rep) {
    for (of::ControlEvent event : steady->events) {
      event.ts += static_cast<SimTime>(rep) * step;
      repeated.events.push_back(std::move(event));
    }
  }
  return repeated;
}

TEST(MonitorIdentity, IncrementalMatchesFromScratchOracle) {
  // The incremental-vs-oracle identity contract, end to end: delta-
  // maintained window modeling must reproduce the from-scratch build's
  // DiffReports, audits, and provenance byte for byte, with and without
  // the ingest sanitizer.
  const std::vector<std::string> oracle =
      monitor_transcript(/*sanitize=*/false, /*incremental=*/false);
  ASSERT_FALSE(oracle.empty());
  for (const bool sanitize : {false, true}) {
    EXPECT_EQ(monitor_transcript(sanitize, /*incremental=*/true), oracle)
        << "incremental diverged from oracle at sanitize=" << sanitize;
  }

  // Second input: the steady capture replayed back to back through one
  // rolling monitor per mode.
  auto steady = steady_repeated(3);
  ASSERT_FALSE(steady.events.empty()) << "steady.log missing or empty";
  const auto steady_transcript = [&steady](bool incremental) {
    steady.options.incremental = incremental;
    SlidingMonitor monitor(steady.options);
    monitor.feed(steady.events);
    monitor.flush();
    return render_monitor_transcript(monitor) +
           render_provenance_transcript(monitor);
  };
  const std::string steady_oracle = steady_transcript(false);
  ASSERT_FALSE(steady_oracle.empty());
  EXPECT_EQ(steady_transcript(true), steady_oracle)
      << "incremental diverged from oracle on the repeated steady capture";
}

TEST(MonitorIdentity, PerWindowModelsMatchOracle) {
  // Transcripts show verdicts, not models: a window modeled from the wrong
  // events can still render the same. So compare describe_model of every
  // window between the modes, on every corpus capture (plain and
  // sanitized) and on the repeated steady capture.
  const auto both_modes = [](exp::CorpusCase corpus_case,
                             const std::string& what) {
    std::vector<std::string> models[2];
    for (const bool incremental : {true, false}) {
      corpus_case.options.incremental = incremental;
      SlidingMonitor monitor(corpus_case.options);
      models[incremental ? 0 : 1] =
          feed_window_models(monitor, corpus_case.events);
    }
    EXPECT_FALSE(models[1].empty()) << what;
    expect_same_window_models(models[0], models[1], what);
  };
  namespace fs = std::filesystem;
  std::vector<fs::path> logs;
  for (const auto& entry : fs::directory_iterator(FLOWDIFF_CORPUS_DIR)) {
    if (entry.path().extension() == ".log") logs.push_back(entry.path());
  }
  std::sort(logs.begin(), logs.end());
  ASSERT_GE(logs.size(), 7u);
  for (const auto& path : logs) {
    const auto text = of::read_file(path.string());
    ASSERT_TRUE(text.has_value()) << path;
    auto corpus_case = exp::parse_corpus_case(*text);
    ASSERT_TRUE(corpus_case.has_value()) << path;
    for (const bool sanitize : {false, true}) {
      corpus_case->options.sanitize = sanitize;
      both_modes(*corpus_case, path.filename().string() +
                                   (sanitize ? " sanitized" : " plain"));
    }
  }
  const exp::CorpusCase steady = steady_repeated(3);
  ASSERT_FALSE(steady.events.empty()) << "steady.log missing or empty";
  both_modes(steady, "steady.log repeated");
}

TEST(MonitorIdentity, SanitizerOnCleanStreamIsInvariant) {
  // Clean-log invariance: routing an uncorrupted capture through the
  // ingest sanitizer must not change a single byte of any alarm, audit, or
  // report.
  const std::vector<std::string> plain = monitor_transcript(false);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(monitor_transcript(true), plain);
}

TEST(MonitorIdentity, ScrapeUnderLoadKeepsTranscriptIdentical) {
  // The telemetry plane's contract: a scraper hammering every endpoint
  // while windows commit must never perturb (or tear) the results — the
  // transcript stays bit-identical to an unobserved run.
  const std::vector<std::string> plain = monitor_transcript();
  ASSERT_FALSE(plain.empty());

  auto monitor = std::make_unique<SlidingMonitor>(monitor_options());
  TelemetryPlane plane;
  plane.attach(monitor.get());
  ASSERT_TRUE(plane.start()) << plane.last_error();
  std::atomic<bool> stop{false};
  std::atomic<int> scrapes{0};
  std::thread scraper([&] {
    const char* targets[] = {"/metrics", "/healthz", "/audits", "/report",
                             "/provenance"};
    std::size_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto result =
          flowdiff::testing::http_get(plane.port(), targets[i++ % 5]);
      if (result) scrapes.fetch_add(1, std::memory_order_relaxed);
    }
  });

  // Waits (bounded) until the scrape count passes `seen`; false if the
  // scraper stalled.
  const auto scraped_past = [&](int seen) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (scrapes.load() <= seen &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return scrapes.load() > seen;
  };
  // Let the scraper land its first request before feeding: on a busy
  // host the whole feed can otherwise finish before it connects.
  ASSERT_TRUE(scraped_past(0)) << "scraper never completed a request";

  // Feed in slices, and hold each slice open until a scrape that began no
  // earlier than its feed has completed: every stage of the stream is
  // scraped mid-load, however fast the host runs the feed.
  const auto& events = capture().events();
  constexpr std::size_t kSlices = 8;
  std::size_t unscraped_slices = 0;
  for (std::size_t s = 0; s < kSlices; ++s) {
    const int before = scrapes.load();
    const auto first =
        static_cast<std::ptrdiff_t>(events.size() * s / kSlices);
    const auto last =
        static_cast<std::ptrdiff_t>(events.size() * (s + 1) / kSlices);
    monitor->feed(std::vector<of::ControlEvent>(events.begin() + first,
                                                events.begin() + last));
    // The request in flight at `before` may have started before this
    // slice's feed; the one after it cannot have.
    if (!scraped_past(before + 1)) ++unscraped_slices;
  }
  monitor->flush();
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  plane.stop();
  EXPECT_EQ(unscraped_slices, 0U)
      << "the scraper stalled across a feed slice, so that slice was never "
         "scraped mid-load; the test lost its point";
  EXPECT_EQ(transcript_of(*monitor), plain) << "diverged under scrape load";
}

TEST(MonitorIdentity, SanitizedTranscriptRenderIsInvariant) {
  // Same invariance through the corpus renderer (the exact text the
  // golden-trace corpus diffs byte for byte).
  const auto transcript = [](bool sanitize) {
    SlidingMonitor monitor(monitor_options(sanitize));
    monitor.feed(capture());
    monitor.flush();
    return render_monitor_transcript(monitor);
  };
  const std::string plain = transcript(false);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(transcript(true), plain);
}

// --- One incident storm cycle ----------------------------------------------

/// One capture window of `lab` with one fault family active, the seven
/// families an incident storm cycles through.
of::ControlLog storm_fault_window(exp::LabExperiment& lab, int family) {
  const auto& scenario = lab.lab();
  const SimTime begin = lab.now();
  switch (family) {
    case 0: {
      faults::ServerSlowdownFault f(lab.net(), scenario.host("S4"),
                                    60 * kMillisecond, "logging");
      return lab.run_window(&f);
    }
    case 1: {
      faults::UnauthorizedAccessFault f(
          lab.net(), scenario.host("S21"), scenario.host("S14"), 3306,
          begin + 5 * kSecond, begin + 20 * kSecond, 20);
      return lab.run_window(&f);
    }
    case 2: {
      faults::LinkLossFault f(
          lab.net(),
          {lab.net().topology().host(scenario.host("S4")).links.front()},
          0.2);
      return lab.run_window(&f);
    }
    case 3: {
      faults::ControllerOverloadFault f(lab.controller(), 40.0);
      return lab.run_window(&f);
    }
    case 4: {
      std::vector<HostId> botnet;
      for (const char* name : {"S1", "S5", "S9", "S13", "S18", "S22"}) {
        botnet.push_back(scenario.host(name));
      }
      wl::VolumetricFlood flood(lab.net(), std::move(botnet),
                                scenario.ip("S7"), wl::FloodSpec{}, Rng(902));
      flood.start(begin + 3 * kSecond, begin + 27 * kSecond);
      return lab.run_window();
    }
    case 5: {
      std::vector<HostId> workers;
      for (const char* name : {"S1", "S2", "S5", "S6", "S8", "S9", "S11",
                               "S13", "S16", "S17", "S21", "S22"}) {
        workers.push_back(scenario.host(name));
      }
      wl::IncastTraffic incast(lab.net(), std::move(workers),
                               scenario.host("S10"), wl::IncastSpec{},
                               Rng(903));
      incast.start(begin + 3 * kSecond, begin + 27 * kSecond);
      return lab.run_window();
    }
    default: {
      wl::FingerprintProber prober(lab.net(), scenario.host("S16"),
                                   scenario.services.ntp,
                                   wl::FingerprintSpec{}, Rng(901));
      prober.start(begin + 3 * kSecond, begin + 27 * kSecond);
      return lab.run_window();
    }
  }
}

struct StormCapture {
  MonitorOptions options;
  /// Arrival order, behind a 1% drop/dup/reorder/truncate capture point.
  std::vector<of::ControlEvent> arrivals;
};

/// A healthy window, then a healthy and a fault window per family, with
/// the monitor set up as a serve tenant: 40 s windows, sanitizer on, fixed
/// baseline, the lab's services and a learned task automaton.
const StormCapture& storm_capture() {
  static const StormCapture capture = [] {
    StormCapture out;
    exp::LabExperimentConfig config;
    config.seed = 300;
    exp::LabExperiment lab(config);
    const FlowDiff learner(lab.flowdiff_config());
    Rng rng(17);
    std::vector<of::FlowSequence> runs;
    for (int i = 0; i < 10; ++i) {
      runs.push_back(wl::expand_task(wl::vm_startup_profile(0),
                                     {lab.lab().ip("VM1")},
                                     lab.lab().services, rng, 0)
                         .flows);
    }
    out.options.window = 40 * kSecond;
    out.options.sanitize = true;
    out.options.services = lab.flowdiff_config().model.special_nodes;
    out.options.tasks = {
        learner.learn_task("vm_startup_0", runs, true).automaton};

    of::ControlLog merged;
    const auto add = [&merged](const of::ControlLog& log) {
      for (const auto& event : log.events()) merged.append(event);
    };
    add(lab.run_window());
    for (int family = 0; family < 7; ++family) {
      add(lab.run_window());
      add(storm_fault_window(lab, family));
    }
    faults::StreamCorruptor corruptor(
        faults::CorruptorConfig::uniform(0.01, 301));
    out.arrivals = corruptor.corrupt(merged);
    return out;
  }();
  return capture;
}

/// The arrivals a tail polled every `poll` of capture time finds: a chunk
/// ends before the first event stamped at or after the next poll; events
/// stamped earlier (reordered ones) stay in the chunk that is open.
std::vector<std::vector<of::ControlEvent>> capture_chunks(
    const std::vector<of::ControlEvent>& arrivals, SimDuration poll) {
  std::vector<std::vector<of::ControlEvent>> chunks(1);
  if (arrivals.empty()) return chunks;
  const SimTime first = arrivals.front().ts;
  SimTime next_poll = first + poll;
  for (const auto& event : arrivals) {
    if (event.ts >= next_poll) {
      chunks.emplace_back();
      next_poll = first + ((event.ts - first) / poll + 1) * poll;
    }
    chunks.back().push_back(event);
  }
  return chunks;
}

bool accounting_holds(const ingest::StreamQuality& q) {
  return q.fed == q.kept + q.duplicates + q.late_dropped + q.truncated;
}

TEST(MonitorIdentity, CorruptedIncidentStormTenantMatchesOracle) {
  const StormCapture& capture = storm_capture();
  const auto chunks = capture_chunks(capture.arrivals, 50 * kMillisecond);
  ASSERT_GT(chunks.size(), 1000u);

  ManagerConfig manager_config;
  manager_config.options = capture.options;
  MonitorManager manager(manager_config);
  MonitorOptions oracle_options = capture.options;
  oracle_options.incremental = false;
  SlidingMonitor oracle(oracle_options);
  for (const auto& chunk : chunks) {
    ASSERT_TRUE(manager.feed("storm", chunk));
    oracle.feed(chunk);
  }
  manager.stop_all();
  oracle.flush();

  const auto snapshot = manager.snapshot("storm");
  const auto health = manager.health("storm");
  ASSERT_TRUE(snapshot.has_value());
  ASSERT_TRUE(health.has_value());
  // Every window of the cycle committed, and the faults alarmed.
  EXPECT_EQ(oracle.windows_processed(), 15u);
  EXPECT_GE(snapshot->alarms, 5u);
  EXPECT_EQ(render_monitor_transcript(*snapshot),
            render_monitor_transcript(oracle));

  const std::uint64_t fed = capture.arrivals.size();
  EXPECT_TRUE(accounting_holds(health->quality));
  EXPECT_EQ(health->quality.fed, fed);
  EXPECT_TRUE(accounting_holds(oracle.stream_quality()));
  EXPECT_EQ(oracle.stream_quality().fed, fed);
  // The capture point did corrupt the stream.
  EXPECT_GT(oracle.stream_quality().duplicates, 0u);
  EXPECT_GT(oracle.stream_quality().truncated, 0u);
}

}  // namespace
}  // namespace flowdiff::core
