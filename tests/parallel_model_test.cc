// End-to-end identity of window modeling on the Fig. 13 multi-app
// workload: the incremental monitor must emit the same alarm/audit/
// provenance sequence as the from-scratch oracle, the ingest sanitizer must
// be invisible on a clean stream, and a telemetry scraper on another thread
// must never perturb (or tear) what the monitor commits.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiment/scalability.h"
#include "flowdiff/monitor.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"

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
  for (const auto& alarm : monitor.alarms()) {
    transcript.push_back("alarm@" + std::to_string(alarm.window_begin) +
                         "\n" + alarm.report.render());
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
  config.sample_metrics = false;
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

TEST(ParallelModel, IncrementalMatchesFromScratchOracle) {
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
}

TEST(ParallelModel, SanitizerOnCleanStreamIsInvariant) {
  // Clean-log invariance: routing an uncorrupted capture through the
  // ingest sanitizer must not change a single byte of any alarm, audit, or
  // report.
  const std::vector<std::string> plain = monitor_transcript(false);
  ASSERT_FALSE(plain.empty());
  EXPECT_EQ(monitor_transcript(true), plain);
}

TEST(ParallelModel, ScrapeUnderLoadKeepsTranscriptIdentical) {
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

TEST(ParallelModel, SanitizedTranscriptRenderIsInvariant) {
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
