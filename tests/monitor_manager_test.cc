// MonitorManager: per-tenant shard lifecycle, demux determinism (pinned
// against the single-tenant golden corpus), fault isolation, idle
// eviction tombstones, and aggregate health.
#include "flowdiff/monitor_manager.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "flowdiff/monitor.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "openflow/log_io.h"

namespace flowdiff::core {
namespace {

namespace fs = std::filesystem;

/// Loads one committed corpus case (its events and the monitor options
/// its header encodes) plus the golden transcript it pins.
struct CorpusFixture {
  explicit CorpusFixture(const std::string& stem) {
    const fs::path log = fs::path(FLOWDIFF_CORPUS_DIR) / (stem + ".log");
    const auto text = of::read_file(log.string());
    if (!text) ADD_FAILURE() << "unreadable: " << log;
    const auto parsed = exp::parse_corpus_case(*text);
    if (!parsed) ADD_FAILURE() << "unparseable: " << log;
    corpus_case = *parsed;
    fs::path golden_path = log;
    golden_path.replace_extension(".golden");
    const auto golden_text = of::read_file(golden_path.string());
    if (!golden_text) ADD_FAILURE() << "unreadable: " << golden_path;
    golden = *golden_text;
  }

  exp::CorpusCase corpus_case;
  std::string golden;
};

std::string tenant_transcript(const MonitorManager& manager,
                              const std::string& tenant) {
  const auto snap = manager.snapshot(tenant);
  if (!snap) {
    ADD_FAILURE() << "no snapshot for tenant " << tenant;
    return {};
  }
  return render_monitor_transcript(*snap);
}

TEST(MonitorManager, ConstructionRejectsInvalidOptions) {
  // The shard template is validated once, up front: a manager whose
  // shards would run on rejected options is never built.
  std::vector<MonitorOptions> invalid(4);
  invalid[0].window = 0;
  invalid[1].sanitize = true;
  invalid[1].lateness = invalid[1].window;
  invalid[2].lateness = kSecond;
  invalid[3].workers = 1;
  for (const MonitorOptions& options : invalid) {
    const auto message = options.validate();
    ASSERT_TRUE(message.has_value());
    SCOPED_TRACE(*message);
    for (const int workers : {0, 2}) {
      ManagerConfig config;
      config.options = options;
      config.workers = workers;
      try {
        MonitorManager manager(config);
        ADD_FAILURE() << "built a manager from rejected options";
      } catch (const std::invalid_argument& e) {
        EXPECT_EQ(e.what(), *message);
      }
    }
  }
}

TEST(MonitorManager, SingleTenantMatchesGoldenTranscript) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.corpus_case.options;
  MonitorManager manager(config);

  EXPECT_TRUE(manager.register_tenant("a"));
  EXPECT_FALSE(manager.register_tenant("a"));  // Already present.
  ASSERT_TRUE(manager.feed("a", corpus.corpus_case.events));
  manager.stop("a");

  EXPECT_EQ(tenant_transcript(manager, "a"), corpus.golden);
  const auto status = manager.status("a");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, ShardState::kStopped);
  EXPECT_EQ(status->events, corpus.corpus_case.events.size());
  EXPECT_EQ(status->dropped, 0u);
}

TEST(MonitorManager, TwoTenantInterleavedDemuxMatchesSingleTenant) {
  // The acceptance bar for demux: two tenants' streams interleaved
  // event-by-event through one manager must each produce the transcript a
  // dedicated single-tenant monitor (the committed golden) produces.
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.corpus_case.options;
  MonitorManager manager(config);

  for (const auto& event : corpus.corpus_case.events) {
    ASSERT_TRUE(manager.feed("a", event));
    ASSERT_TRUE(manager.feed("b", event));
  }
  manager.stop_all();

  EXPECT_EQ(tenant_transcript(manager, "a"), corpus.golden);
  EXPECT_EQ(tenant_transcript(manager, "b"), corpus.golden);
  EXPECT_EQ(manager.shard_count(), 2u);
}

TEST(MonitorManager, ParallelWorkersMatchSerialTranscripts) {
  // Shards scheduled on a real pool must not change any tenant's output:
  // per-tenant order is preserved by the single-in-flight-task rule.
  const CorpusFixture corpus("slowdown");
  ManagerConfig config;
  config.options = corpus.corpus_case.options;
  config.workers = 4;
  MonitorManager manager(config);

  const std::vector<std::string> tenants{"t0", "t1", "t2"};
  for (const auto& tenant : tenants) {
    ASSERT_TRUE(manager.feed(tenant, corpus.corpus_case.events));
  }
  manager.stop_all();
  for (const auto& tenant : tenants) {
    EXPECT_EQ(tenant_transcript(manager, tenant), corpus.golden)
        << tenant;
  }
}

TEST(MonitorManager, OversizedBatchMatchesEventByEventFeeding) {
  // One feed of many thousands of events, behind the sanitizer: the shard
  // hands its whole queue to the monitor in one batched call, and the
  // result must match feeding the same events one call at a time, inline
  // or on a pool. feed_hook must see every event, in order.
  const CorpusFixture corpus("corrupted_slowdown");
  const auto& events = corpus.corpus_case.events;
  ASSERT_GT(events.size(), 3u * 4096u);
  std::vector<std::string> lines;
  lines.reserve(events.size());
  for (const auto& event : events) lines.push_back(of::serialize_event(event));

  std::string one_by_one;
  {
    ManagerConfig config;
    config.options = corpus.corpus_case.options;
    MonitorManager manager(config);
    for (const auto& event : events) ASSERT_TRUE(manager.feed("t", event));
    manager.stop_all();
    one_by_one = tenant_transcript(manager, "t");
  }
  EXPECT_EQ(one_by_one, corpus.golden);

  for (const int workers : {0, 2}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    ManagerConfig config;
    config.options = corpus.corpus_case.options;
    config.workers = workers;
    std::vector<std::string> seen;  // Written by the shard's one task.
    config.feed_hook = [&seen](const std::string&,
                               const of::ControlEvent& event) {
      seen.push_back(of::serialize_event(event));
    };
    MonitorManager manager(config);
    ASSERT_TRUE(manager.feed("t", events));
    manager.stop_all();
    EXPECT_EQ(tenant_transcript(manager, "t"), one_by_one);
    EXPECT_EQ(manager.status("t")->events, events.size());
    EXPECT_TRUE(seen == lines) << "feed_hook saw " << seen.size() << " of "
                               << lines.size() << " events or out of order";
  }
}

TEST(MonitorManager, FaultIsOneTenantsProblem) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.corpus_case.options;
  std::atomic<int> bad_events{0};
  config.feed_hook = [&](const std::string& tenant,
                         const of::ControlEvent&) {
    if (tenant == "bad" && ++bad_events > 3) {
      throw std::runtime_error("injected shard failure");
    }
  };
  MonitorManager manager(config);

  ASSERT_TRUE(manager.feed("good", corpus.corpus_case.events));
  manager.feed("bad", corpus.corpus_case.events);  // Faults mid-feed.
  manager.drain("bad");

  const auto bad = manager.status("bad");
  ASSERT_TRUE(bad.has_value());
  EXPECT_EQ(bad->state, ShardState::kFaulted);
  EXPECT_FALSE(bad->healthy);
  EXPECT_NE(bad->fault.find("injected shard failure"), std::string::npos);
  // Later feeds into the faulted shard are dropped, not retried.
  EXPECT_FALSE(manager.feed("bad", corpus.corpus_case.events.front()));
  EXPECT_GT(manager.status("bad")->dropped, 0u);

  // The healthy tenant is untouched and still replays to its golden.
  manager.stop("good");
  EXPECT_EQ(tenant_transcript(manager, "good"), corpus.golden);

  const MonitorHealth aggregate = manager.aggregate_health();
  EXPECT_FALSE(aggregate.healthy);
  bool names_bad = false;
  for (const auto& reason : aggregate.reasons) {
    names_bad = names_bad || reason.find("bad") != std::string::npos;
  }
  EXPECT_TRUE(names_bad) << "aggregate health must name the faulted tenant";
}

TEST(MonitorManager, IdleEvictionLeavesAReadableTombstone) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.corpus_case.options;
  MonitorManager manager(config);

  ASSERT_TRUE(manager.feed("quiet", corpus.corpus_case.events));
  ASSERT_TRUE(
      manager.feed("chatty", corpus.corpus_case.events.front()));
  manager.tick();
  manager.tick();
  // "chatty" spoke this tick; "quiet" has been silent for 2 >= 2 ticks.
  ASSERT_TRUE(manager.feed("chatty", corpus.corpus_case.events.front()));
  const auto evicted = manager.evict_idle(2);
  ASSERT_EQ(evicted, std::vector<std::string>{"quiet"});

  const auto status = manager.status("quiet");
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, ShardState::kEvicted);
  // Eviction flushed the final window first: the tombstone transcript is
  // the full golden, answerable after the monitor itself is gone.
  EXPECT_EQ(tenant_transcript(manager, "quiet"), corpus.golden);
  EXPECT_TRUE(manager.health("quiet").has_value());
  EXPECT_FALSE(manager.feed("quiet", corpus.corpus_case.events.front()));

  // The surviving tenant keeps running.
  EXPECT_EQ(manager.status("chatty")->state, ShardState::kRunning);
  manager.stop_all();
}

TEST(MonitorManager, StopAllIsIdempotentAndKeepsResults) {
  const CorpusFixture corpus("steady");
  ManagerConfig config;
  config.options = corpus.corpus_case.options;
  MonitorManager manager(config);
  ASSERT_TRUE(manager.feed("a", corpus.corpus_case.events));
  manager.stop_all();
  manager.stop_all();  // Second SIGTERM must not wedge or clear results.
  EXPECT_EQ(tenant_transcript(manager, "a"), corpus.golden);
  EXPECT_EQ(manager.tenants(), std::vector<std::string>{"a"});
}

TEST(MonitorManager, AggregateHealthSumsShards) {
  const CorpusFixture steady("steady");
  const CorpusFixture slowdown("slowdown");
  ManagerConfig config;
  config.options = steady.corpus_case.options;
  MonitorManager manager(config);
  ASSERT_TRUE(manager.feed("clean", steady.corpus_case.events));
  ASSERT_TRUE(manager.feed("slow", slowdown.corpus_case.events));
  manager.stop_all();

  const auto clean = manager.status("clean");
  const auto slow = manager.status("slow");
  ASSERT_TRUE(clean && slow);
  EXPECT_EQ(clean->alarms, 0u);
  EXPECT_GT(slow->alarms, 0u) << "slowdown corpus must alarm";

  const MonitorHealth aggregate = manager.aggregate_health();
  EXPECT_EQ(aggregate.windows, clean->windows + slow->windows);
  EXPECT_EQ(aggregate.alarms, clean->alarms + slow->alarms);
}

/// A fresh, enabled registry, sampler and recorder for one check.
struct ObsScope {
  ObsScope() {
    clear();
    obs::set_enabled(true);
  }
  ~ObsScope() {
    obs::set_enabled(false);
    clear();
  }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;

  static void clear() {
    obs::Registry::global().reset();
    obs::Sampler::global().clear();
    obs::FlightRecorder::global().clear();
  }
};

TEST(MonitorManager, OneSpikeFilesOneWatchdogAlert) {
  // Tenants share the process-wide sampler and its watchdog: one spike of
  // the event-queue depth is one alert, however many tenants close a
  // window after it, and the shared series stay time-ordered even when
  // the tenants' clocks disagree.
  const CorpusFixture corpus("steady");
  const std::vector<of::ControlEvent>& events = corpus.corpus_case.events;
  ASSERT_FALSE(events.empty());
  constexpr SimDuration kChunk = 10 * kSecond;
  constexpr std::size_t kSpikeChunk = 6;
  for (const int workers : {0, 2}) {
    for (const SimDuration shift : {SimDuration{0}, 1000 * kSecond}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " shift=" + std::to_string(shift));
      const ObsScope obs_scope;
      // Pin the wall-clock rule: one 1 s window time up front keeps
      // monitor.window_ms.p99 far above any real window, so only the
      // gauge can fire.
      obs::Registry::global().histogram("monitor.window_ms", 5.0).observe(
          1000.0);
      obs::Gauge& depth = obs::Registry::global().gauge("sim.queue.depth");
      depth.set(100);

      ManagerConfig config;
      config.options = corpus.corpus_case.options;
      config.options.window = kChunk;
      config.workers = workers;
      MonitorManager manager(config);

      std::size_t chunk = 0;
      for (auto it = events.begin(); it != events.end(); ++chunk) {
        const SimTime end = events.front().ts +
                            static_cast<SimTime>(chunk + 1) * kChunk;
        const auto stop = std::find_if(
            it, events.end(),
            [end](const of::ControlEvent& e) { return e.ts >= end; });
        std::vector<of::ControlEvent> a(it, stop);
        std::vector<of::ControlEvent> b = a;
        for (of::ControlEvent& e : b) e.ts += shift;
        it = stop;
        if (chunk == kSpikeChunk) depth.set(5000);
        ASSERT_TRUE(manager.feed("a", a));
        ASSERT_TRUE(manager.feed("b", b));
        manager.drain("a");
        manager.drain("b");
      }
      ASSERT_GT(chunk, kSpikeChunk + 1) << "steady.log too short";
      manager.stop_all();

      EXPECT_EQ(obs::Sampler::global().watchdog_alerts(), 1u);
      EXPECT_EQ(
          obs::Registry::global().counter("obs.watchdog.alerts").value(), 1u);
      const MonitorHealth aggregate = manager.aggregate_health();
      EXPECT_EQ(aggregate.watchdog_alerts, 1u);
      EXPECT_EQ(std::count_if(aggregate.reasons.begin(),
                              aggregate.reasons.end(),
                              [](const std::string& reason) {
                                return reason.find("watchdog filed") !=
                                       std::string::npos;
                              }),
                1);
      const auto warnings =
          obs::FlightRecorder::global().events(obs::Severity::kWarn);
      EXPECT_EQ(std::count_if(warnings.begin(), warnings.end(),
                              [](const obs::FlightEvent& event) {
                                return event.component == "watchdog";
                              }),
                1);
      for (const auto& [name, series] : obs::Sampler::global().series()) {
        const auto points = series.points();
        for (std::size_t i = 1; i < points.size(); ++i) {
          EXPECT_GT(points[i].t_begin, points[i - 1].t_begin) << name;
        }
      }
    }
  }
}

TEST(MonitorManager, AggregateHealthSumsStreamQuality) {
  // Two sanitized tenants fed different corrupted captures: the daemon's
  // /healthz must carry the field-wise sum of their stream quality, not
  // an all-zero record.
  const CorpusFixture corrupted("corrupted_slowdown");
  ManagerConfig config;
  config.options = corrupted.corpus_case.options;
  ASSERT_TRUE(config.options.sanitize);
  MonitorManager manager(config);
  const auto& events = corrupted.corpus_case.events;
  ASSERT_TRUE(manager.feed("whole", events));
  ASSERT_TRUE(manager.feed(
      "half", std::vector<of::ControlEvent>(
                  events.begin(), events.begin() + events.size() / 2)));
  manager.stop_all();

  const auto whole = manager.health("whole");
  const auto half = manager.health("half");
  ASSERT_TRUE(whole && half);
  ASSERT_GT(whole->quality.duplicates, 0u) << "corpus must carry duplicates";
  ASSERT_GT(half->quality.fed, 0u);
  ASSERT_NE(whole->quality.fed, half->quality.fed);

  const ingest::StreamQuality& sum = manager.aggregate_health().quality;
  const ingest::StreamQuality& a = whole->quality;
  const ingest::StreamQuality& b = half->quality;
  EXPECT_EQ(sum.fed, a.fed + b.fed);
  EXPECT_EQ(sum.kept, a.kept + b.kept);
  EXPECT_EQ(sum.duplicates, a.duplicates + b.duplicates);
  EXPECT_EQ(sum.reordered, a.reordered + b.reordered);
  EXPECT_EQ(sum.late_dropped, a.late_dropped + b.late_dropped);
  EXPECT_EQ(sum.truncated, a.truncated + b.truncated);
  EXPECT_EQ(sum.pairs_matched, a.pairs_matched + b.pairs_matched);
  EXPECT_EQ(sum.orphan_packet_ins, a.orphan_packet_ins + b.orphan_packet_ins);
  EXPECT_EQ(sum.orphan_flow_mods, a.orphan_flow_mods + b.orphan_flow_mods);
}

}  // namespace
}  // namespace flowdiff::core
