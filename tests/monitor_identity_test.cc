// End-to-end identity of window modeling on the Fig. 13 multi-app
// workload, the corpus captures and a repeated steady capture: the
// incremental monitor must emit the same alarm/audit/provenance sequence
// as the from-scratch oracle, and the same model for every window; the
// ingest sanitizer must be invisible on a clean stream, and a telemetry
// scraper on another thread must never perturb (or tear) what the monitor
// commits.
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
#include "experiment/scalability.h"
#include "flowdiff/monitor.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"
#include "incremental_stream.h"
#include "openflow/log_io.h"

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
    if (!entry.report) continue;
    transcript.push_back("alarm@" +
                         std::to_string(entry.provenance.window_begin) +
                         "\n" + entry.report->render());
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
MonitorConfig monitor_config(bool sanitize = false, bool incremental = true) {
  MonitorConfig config;
  config.window = kSecond;
  config.rolling_baseline = true;
  config.sanitize = sanitize;
  config.incremental = incremental;
  return config;
}

std::vector<std::string> monitor_transcript(bool sanitize = false,
                                            bool incremental = true) {
  SlidingMonitor monitor(monitor_config(sanitize, incremental));
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
  const SimDuration window = steady->config.window;
  const SimTime span = steady->events.back().ts - steady->events.front().ts;
  const SimTime step = (span / window + 2) * window;
  exp::CorpusCase repeated;
  repeated.config = steady->config;
  repeated.config.rolling_baseline = true;
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
    steady.config.incremental = incremental;
    SlidingMonitor monitor(steady.config);
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
      corpus_case.config.incremental = incremental;
      SlidingMonitor monitor(corpus_case.config);
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
      corpus_case->config.sanitize = sanitize;
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

  auto monitor = std::make_unique<SlidingMonitor>(monitor_config());
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
    SlidingMonitor monitor(monitor_config(sanitize));
    monitor.feed(capture());
    monitor.flush();
    return render_monitor_transcript(monitor);
  };
  const std::string plain = transcript(false);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(transcript(true), plain);
}

}  // namespace
}  // namespace flowdiff::core
