// Determinism of the parallel modeling engine: the Fig. 13 multi-app
// workload modeled with 0, 1, 2, and 8 workers must produce bit-identical
// behavior models (observed through DiffReport::render(), which serializes
// every signature difference), and the pipelined monitor must emit the
// same alarm/audit sequence as the synchronous one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "experiment/scalability.h"
#include "flowdiff/flowdiff.h"
#include "flowdiff/monitor.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"

namespace flowdiff::core {
namespace {

/// Two captures of the same multi-app data center under different seeds:
/// enough behavioral drift that the diff report exercises every signature
/// family's rendering, so a single flipped bit in any model shows up.
struct Scenario {
  Scenario() {
    exp::ScalabilityConfig config;
    config.app_count = 4;
    config.duration = 6 * kSecond;
    config.seed = 7;
    baseline = exp::capture_scalability_log(config);
    config.seed = 11;
    current = exp::capture_scalability_log(config);
  }
  of::ControlLog baseline;
  of::ControlLog current;
};

Scenario& scenario() {
  static Scenario s;  // The simulation dominates test time; run it once.
  return s;
}

std::string render_diff_with_workers(int workers) {
  FlowDiffConfig config;
  config.parallelism = workers;
  const FlowDiff flowdiff(config);
  const BehaviorModel baseline = flowdiff.model(scenario().baseline);
  const BehaviorModel current = flowdiff.model(scenario().current);
  return flowdiff.diff(baseline, current).render();
}

TEST(ParallelModel, DiffReportBitIdenticalAcrossWorkerCounts) {
  const std::string serial = render_diff_with_workers(0);
  EXPECT_FALSE(serial.empty());
  for (const int workers : {1, 2, 8}) {
    EXPECT_EQ(render_diff_with_workers(workers), serial)
        << "workers=" << workers << " diverged from the serial build";
  }
}

TEST(ParallelModel, RepeatedParallelBuildsAreStable) {
  // Flaky scheduling would show up as run-to-run divergence at a fixed
  // worker count; three rounds at the widest pool is a cheap canary.
  const std::string first = render_diff_with_workers(8);
  EXPECT_EQ(render_diff_with_workers(8), first);
  EXPECT_EQ(render_diff_with_workers(8), first);
}

/// One alarm/audit transcript of a monitor run, for sequence comparison.
/// `incremental = false` forces every window through the from-scratch
/// model build (the oracle mode the identity tests compare against).
std::vector<std::string> monitor_transcript(std::size_t pipeline_depth,
                                            int workers,
                                            bool sanitize = false,
                                            bool incremental = true) {
  MonitorConfig config;
  config.flowdiff.parallelism = workers;
  config.window = kSecond;
  config.rolling_baseline = true;
  config.pipeline_depth = pipeline_depth;
  config.sample_metrics = false;
  config.sanitize = sanitize;
  config.incremental = incremental;
  auto monitor = std::make_unique<SlidingMonitor>(config);
  monitor->feed(scenario().current);
  monitor->flush();

  std::vector<std::string> transcript;
  for (const auto& audit : monitor->audits()) {
    transcript.push_back(std::to_string(audit.index) + "|" +
                         std::to_string(audit.alarmed) + "|" +
                         std::to_string(audit.rebaselined) + "|" +
                         audit.decision);
  }
  for (const auto& alarm : monitor->alarms()) {
    transcript.push_back("alarm@" + std::to_string(alarm.window_begin) +
                         "\n" + alarm.report.render());
  }
  // Provenance records are part of the determinism contract too: same
  // ids, contributors, scores, and verdicts at any worker count or
  // pipeline depth (stage latencies are wall-clock, so the transcript
  // renderer omits them).
  transcript.push_back(render_provenance_transcript(*monitor));
  return transcript;
}

TEST(ParallelModel, PipelinedMonitorMatchesSynchronousSequence) {
  const std::vector<std::string> sync = monitor_transcript(0, 0);
  ASSERT_FALSE(sync.empty());
  for (const std::size_t depth : {std::size_t{1}, std::size_t{4}}) {
    for (const int workers : {0, 2}) {
      EXPECT_EQ(monitor_transcript(depth, workers), sync)
          << "pipeline_depth=" << depth << " workers=" << workers;
    }
  }
}

TEST(ParallelModel, IncrementalMatchesFromScratchOracle) {
  // The incremental-vs-oracle identity contract, end to end: delta-
  // maintained window modeling must reproduce the from-scratch build's
  // DiffReports, audits, and provenance byte for byte at every worker
  // count and pipeline depth, with and without the ingest sanitizer.
  const std::vector<std::string> oracle =
      monitor_transcript(0, 0, /*sanitize=*/false, /*incremental=*/false);
  ASSERT_FALSE(oracle.empty());
  for (const bool sanitize : {false, true}) {
    for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                    std::size_t{4}}) {
      for (const int workers : {0, 2}) {
        EXPECT_EQ(monitor_transcript(depth, workers, sanitize,
                                     /*incremental=*/true),
                  oracle)
            << "incremental diverged from oracle at pipeline_depth=" << depth
            << " workers=" << workers << " sanitize=" << sanitize;
      }
    }
  }
}

TEST(ParallelModel, SanitizerOnCleanStreamIsInvariant) {
  // Clean-log invariance: routing an uncorrupted capture through the
  // ingest sanitizer must not change a single byte of any alarm, audit, or
  // report, at any worker count or pipeline depth.
  const std::vector<std::string> plain = monitor_transcript(0, 0, false);
  ASSERT_FALSE(plain.empty());
  for (const std::size_t depth : {std::size_t{0}, std::size_t{1},
                                  std::size_t{4}}) {
    for (const int workers : {0, 2, 8}) {
      EXPECT_EQ(monitor_transcript(depth, workers, true), plain)
          << "sanitize=on pipeline_depth=" << depth
          << " workers=" << workers;
    }
  }
}

TEST(ParallelModel, ScrapeUnderLoadKeepsTranscriptIdentical) {
  // The telemetry plane's contract: a scraper hammering every endpoint
  // while windows commit must never perturb (or tear) the results — the
  // transcript stays bit-identical to an unobserved run at every pipeline
  // depth and worker count.
  const std::vector<std::string> plain = monitor_transcript(0, 0);
  ASSERT_FALSE(plain.empty());

  for (const std::size_t depth : {std::size_t{0}, std::size_t{2}}) {
    for (const int workers : {0, 2}) {
      MonitorConfig config;
      config.flowdiff.parallelism = workers;
      config.window = kSecond;
      config.rolling_baseline = true;
      config.pipeline_depth = depth;
      config.sample_metrics = false;
      auto monitor = std::make_unique<SlidingMonitor>(config);

      TelemetryPlane plane;
      plane.attach(monitor.get());
      ASSERT_TRUE(plane.start()) << plane.last_error();
      std::atomic<bool> stop{false};
      std::atomic<int> scrapes{0};
      std::thread scraper([&] {
        const char* targets[] = {"/metrics", "/healthz", "/audits",
                                 "/report", "/provenance"};
        std::size_t i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          const auto result = flowdiff::testing::http_get(
              plane.port(), targets[i++ % 5]);
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

      // Feed in slices, and hold each slice open until a scrape that began
      // no earlier than its feed has completed: every stage of the stream
      // is scraped mid-load, however fast the host runs the feed.
      const auto& events = scenario().current.events();
      constexpr std::size_t kSlices = 8;
      std::size_t unscraped_slices = 0;
      for (std::size_t s = 0; s < kSlices; ++s) {
        const int before = scrapes.load();
        const auto first = static_cast<std::ptrdiff_t>(events.size() * s /
                                                        kSlices);
        const auto last = static_cast<std::ptrdiff_t>(
            events.size() * (s + 1) / kSlices);
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
          << "the scraper stalled across a feed slice, so that slice was "
             "never scraped mid-load; the test lost its point";

      std::vector<std::string> transcript;
      for (const auto& audit : monitor->audits()) {
        transcript.push_back(std::to_string(audit.index) + "|" +
                             std::to_string(audit.alarmed) + "|" +
                             std::to_string(audit.rebaselined) + "|" +
                             audit.decision);
      }
      for (const auto& alarm : monitor->alarms()) {
        transcript.push_back("alarm@" + std::to_string(alarm.window_begin) +
                             "\n" + alarm.report.render());
      }
      transcript.push_back(render_provenance_transcript(*monitor));
      EXPECT_EQ(transcript, plain)
          << "pipeline_depth=" << depth << " workers=" << workers
          << " diverged under scrape load";
    }
  }
}

TEST(ParallelModel, SanitizedTranscriptRenderIsInvariant) {
  // Same invariance through the corpus renderer (the exact text the
  // golden-trace corpus diffs byte for byte).
  const auto transcript = [](bool sanitize) {
    MonitorConfig config;
    config.window = kSecond;
    config.rolling_baseline = true;
    config.sample_metrics = false;
    config.sanitize = sanitize;
    SlidingMonitor monitor(config);
    monitor.feed(scenario().current);
    monitor.flush();
    return render_monitor_transcript(monitor);
  };
  const std::string plain = transcript(false);
  EXPECT_FALSE(plain.empty());
  EXPECT_EQ(transcript(true), plain);
}

}  // namespace
}  // namespace flowdiff::core
