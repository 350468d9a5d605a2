// Incremental-vs-oracle property sweep: randomized admit/retire event
// streams (seeded, with duplicate timestamps, multi-hop flows, stats polls,
// empty windows, and sanitizer-suppressed arrivals) must produce
// IncrementalModeler finalizes that are bit-identical — via describe_model,
// the lossless hexfloat dump — to a from-scratch Modeler::build over the
// same window, after every window slide. Monitor-level runs must emit
// byte-identical transcripts with the incremental path on and off, and
// FlowDiff::model (sorted feed -> finalize) must equal Modeler::build on
// every committed corpus capture.
#include "flowdiff/incremental_model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "flowdiff/flowdiff.h"
#include "flowdiff/model.h"
#include "flowdiff/monitor.h"
#include "obs/metrics.h"
#include "openflow/control_log.h"
#include "openflow/log_io.h"
#include "util/rng.h"

namespace flowdiff::core {
namespace {

Ipv4 host(int app, int i) {
  return Ipv4(10, 0, static_cast<std::uint8_t>(app),
              static_cast<std::uint8_t>(i + 1));
}

of::ControlEvent pin(SimTime ts, std::uint32_t sw, const of::FlowKey& k) {
  of::PacketIn msg;
  msg.sw = SwitchId{sw};
  msg.in_port = PortId{1};
  msg.key = k;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

of::ControlEvent fmod(SimTime ts, std::uint32_t sw, const of::FlowKey& k) {
  of::FlowMod msg;
  msg.sw = SwitchId{sw};
  msg.out_port = PortId{2};
  msg.key = k;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

of::ControlEvent fremoved(SimTime ts, std::uint32_t sw, const of::FlowKey& k,
                          SimDuration duration, std::uint64_t bytes) {
  of::FlowRemoved msg;
  msg.sw = SwitchId{sw};
  msg.key = k;
  msg.duration = duration;
  msg.byte_count = bytes;
  msg.packet_count = bytes / 100;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

of::ControlEvent fstats(SimTime ts, std::uint32_t sw, const of::FlowKey& k,
                        SimDuration age, std::uint64_t bytes) {
  of::FlowStatsReply msg;
  msg.sw = SwitchId{sw};
  msg.key = k;
  msg.age = age;
  msg.byte_count = bytes;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

/// A randomized admit/retire stream over three small app clusters:
/// dependency chains a -> b -> c (so DD triples form), multi-hop installs,
/// FlowRemoved retirements, stats polls, PacketOut/EchoReply noise,
/// duplicate timestamps (time advances by 0 with real probability), and
/// occasional multi-window gaps (empty windows). Returned time-sorted
/// (stable), so feeding it in order is a valid monitor stream.
std::vector<of::ControlEvent> random_stream(std::uint64_t seed,
                                            SimTime duration) {
  Rng rng(seed);
  std::vector<of::ControlEvent> events;
  SimTime now = 0;
  std::uint16_t next_port = 20000;
  while (now < duration) {
    const int app = static_cast<int>(rng.uniform_int(0, 2));
    const int a = static_cast<int>(rng.uniform_int(0, 3));
    int b = static_cast<int>(rng.uniform_int(0, 3));
    if (rng.bernoulli(0.05)) b = a;  // Occasional self-flow (x, x).
    const of::FlowKey key{host(app, a), host(app, b), next_port++, 80,
                          of::Proto::kTcp};
    const auto hops = rng.uniform_int(1, 3);
    SimTime t = now;
    for (std::int64_t h = 0; h < hops; ++h) {
      const auto sw = static_cast<std::uint32_t>(app * 4 + h + 1);
      events.push_back(pin(t, sw, key));
      if (!rng.bernoulli(0.1)) {  // 10% of installs go unanswered.
        events.push_back(
            fmod(t + rng.uniform_int(0, 2 * kMillisecond), sw, key));
      }
      t += rng.uniform_int(0, 5 * kMillisecond);
    }
    if (rng.bernoulli(0.7)) {  // Chain: the dependency DD should pair.
      const int c = static_cast<int>(rng.uniform_int(0, 3));
      const of::FlowKey out{host(app, b), host(app, c), next_port++, 80,
                            of::Proto::kTcp};
      events.push_back(pin(t + rng.uniform_int(0, 400 * kMillisecond),
                           static_cast<std::uint32_t>(app * 4 + 1), out));
    }
    if (rng.bernoulli(0.6)) {  // Retirement with counters.
      events.push_back(fremoved(
          now + rng.uniform_int(kMillisecond, 2 * kSecond),
          static_cast<std::uint32_t>(app * 4 + 1), key,
          rng.uniform_int(kMillisecond, kSecond),
          static_cast<std::uint64_t>(rng.uniform_int(100, 1 << 20))));
    }
    if (rng.bernoulli(0.2)) {  // Stats poll (age 0 sometimes: ignored).
      events.push_back(fstats(
          now + rng.uniform_int(0, kSecond),
          static_cast<std::uint32_t>(app * 4 + 1), key,
          rng.bernoulli(0.2) ? 0 : rng.uniform_int(1, kSecond),
          static_cast<std::uint64_t>(rng.uniform_int(100, 1 << 16))));
    }
    if (rng.bernoulli(0.1)) {
      of::EchoReply echo;
      echo.sw = SwitchId{static_cast<std::uint32_t>(app * 4 + 1)};
      events.push_back(of::ControlEvent{now, ControllerId{0}, echo});
    }
    // Duplicate timestamps are the norm here: ~1/3 of iterations do not
    // advance time at all.
    if (!rng.bernoulli(0.35)) now += rng.uniform_int(1, 40 * kMillisecond);
    if (rng.bernoulli(0.01)) now += 3 * kSecond;  // Multi-window gap.
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const of::ControlEvent& x, const of::ControlEvent& y) {
                     return x.ts < y.ts;
                   });
  return events;
}

struct OraclePair {
  explicit OraclePair(const ModelConfig& config)
      : modeler(config), inc(config) {}
  Modeler modeler;
  IncrementalModeler inc;
};

/// Cuts `events` into `window`-sized tumbling windows and checks, at every
/// slide, that the incremental finalize is byte-identical to the
/// from-scratch build of the same window. Returns windows compared.
int sweep_stream(const std::vector<of::ControlEvent>& events,
                 const ModelConfig& config, SimDuration window) {
  OraclePair o(config);
  int compared = 0;
  of::ControlLog log;
  IncrementalWindowState state;
  SimTime window_start = events.empty() ? 0 : events.front().ts;
  auto close = [&] {
    if (log.empty()) return;  // Empty window: nothing to compare.
    EXPECT_TRUE(o.inc.ready(state)) << "in-order stream fell back";
    const std::string got = describe_model(o.inc.finalize(state));
    const std::string want = describe_model(o.modeler.build(log));
    EXPECT_EQ(got, want) << "window " << compared << " diverged";
    ++compared;
    log.clear();
    state.reset();
  };
  for (const auto& event : events) {
    while (event.ts >= window_start + window) {
      close();
      window_start += window;
    }
    log.append(event);
    o.inc.feed(state, event);
  }
  close();
  return compared;
}

TEST(IncrementalModel, RandomStreamsMatchOracleAfterEverySlide) {
  ModelConfig config;
  config.app.min_edge_flows = 1;  // Sparse edges stay visible.
  int total = 0;
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    total += sweep_stream(random_stream(seed, 8 * kSecond), config, kSecond);
  }
  EXPECT_GE(total, 20) << "sweep degenerated; streams too short";
}

TEST(IncrementalModel, ConfigVariantsMatchOracle) {
  for (const std::uint64_t min_flows : {std::uint64_t{1}, std::uint64_t{3}}) {
    for (const bool partial : {false, true}) {
      ModelConfig config;
      config.app.min_edge_flows = min_flows;
      config.app.pc_control_for_group = partial;
      config.stability_segments = 3;
      const int n =
          sweep_stream(random_stream(11, 6 * kSecond), config, kSecond);
      EXPECT_GT(n, 0) << "min_flows=" << min_flows << " partial=" << partial;
    }
  }
}

TEST(IncrementalModel, UnsupportedConfigRefusesIncrementalPath) {
  // min_edge_flows == 0 makes the from-scratch extractors emit zero-sample
  // pairs the stream never observes; the incremental path must refuse
  // rather than risk divergence.
  ModelConfig config;
  config.app.min_edge_flows = 0;
  EXPECT_FALSE(IncrementalModeler::supported(config));
  OraclePair o(config);
  IncrementalWindowState state;
  o.inc.feed(state, pin(100, 1,
                        of::FlowKey{host(0, 0), host(0, 1), 1, 80,
                                    of::Proto::kTcp}));
  EXPECT_FALSE(o.inc.ready(state));
}

TEST(IncrementalModel, FreshStateIsNotReady) {
  ModelConfig config;
  OraclePair o(config);
  const IncrementalWindowState state;  // Empty window: never fed.
  EXPECT_FALSE(o.inc.ready(state));
}

TEST(IncrementalModel, ResetClearsEverything) {
  ModelConfig config;
  config.app.min_edge_flows = 1;
  OraclePair o(config);
  IncrementalWindowState state;
  for (const auto& event : random_stream(7, 2 * kSecond)) {
    o.inc.feed(state, event);
  }
  ASSERT_TRUE(state.active);
  state.reset();
  EXPECT_FALSE(state.active);
  EXPECT_FALSE(state.dd_over_budget);
  EXPECT_EQ(state.events, 0u);
  EXPECT_TRUE(state.occurrences.empty());
  EXPECT_TRUE(state.edges.empty());
  EXPECT_TRUE(state.triples.empty());
  // A recycled state must behave exactly like a fresh one.
  const auto events = random_stream(8, 2 * kSecond);
  of::ControlLog log;
  for (const auto& event : events) {
    log.append(event);
    o.inc.feed(state, event);
  }
  ASSERT_TRUE(o.inc.ready(state));
  EXPECT_EQ(describe_model(o.inc.finalize(state)),
            describe_model(o.modeler.build(log)));
}

/// Monitor transcripts (audits, alarms, provenance) with the incremental
/// path on vs. off — the off mode forces every window through the
/// from-scratch oracle, so equality here is end-to-end bit-identity.
/// 1 s windows, rolling baseline, no metric sampling.
MonitorConfig monitor_config(bool incremental, bool sanitize = false) {
  MonitorConfig config;
  config.window = kSecond;
  config.rolling_baseline = true;
  config.sample_metrics = false;
  config.incremental = incremental;
  config.sanitize = sanitize;
  return config;
}

std::string run_monitor(const MonitorConfig& config,
                        const std::vector<of::ControlEvent>& events) {
  SlidingMonitor monitor(config);
  monitor.feed(events);
  monitor.flush();
  return render_monitor_transcript(monitor) + "\n" +
         render_provenance_transcript(monitor);
}

TEST(IncrementalModel, MonitorMatchesOracleModeAcrossDepths) {
  const auto events = random_stream(21, 8 * kSecond);
  const std::string oracle = run_monitor(monitor_config(false), events);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_monitor(monitor_config(true), events), oracle);
}

TEST(IncrementalModel, SanitizerDegradedStreamMatchesOracleMode) {
  // Corrupt the arrival order: displace a slice of events far enough past
  // the sanitizer's lateness horizon that it drops them (a degraded,
  // suppression-prone stream), and duplicate another slice. Both monitor
  // modes see the same restored stream, so their transcripts must match
  // byte for byte — and the sanitizer's output is in order, so the
  // incremental path must not have fallen back either.
  auto events = random_stream(31, 8 * kSecond);
  Rng rng(99);
  std::vector<of::ControlEvent> arrivals;
  arrivals.reserve(events.size() + events.size() / 10);
  for (std::size_t i = 0; i < events.size(); ++i) {
    arrivals.push_back(events[i]);
    if (rng.bernoulli(0.05) && i > 20) {
      // Re-emit an old event now: late past the horizon -> dropped.
      arrivals.push_back(events[i - 20]);
    }
    if (rng.bernoulli(0.05)) arrivals.push_back(events[i]);  // Duplicate.
  }
  const std::string oracle =
      run_monitor(monitor_config(false, true), arrivals);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_monitor(monitor_config(true, true), arrivals), oracle);
}

/// Counters only count while obs is on: a fresh, enabled registry for the
/// scope of one check.
struct ObsScope {
  ObsScope() {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
  ~ObsScope() {
    obs::set_enabled(false);
    obs::Registry::global().reset();
  }
  ObsScope(const ObsScope&) = delete;
  ObsScope& operator=(const ObsScope&) = delete;
};

std::uint64_t counter(const char* name) {
  return obs::Registry::global().counter(name).value();
}

// --- FlowDiff::model: sorted feed -> finalize ------------------------------

void expect_facade_matches_oracle(const FlowDiff& fd, const of::ControlLog& log,
                                  const std::string& what) {
  EXPECT_EQ(describe_model(fd.model(log)),
            describe_model(fd.modeler().build(log)))
      << what;
}

TEST(FacadeModel, CorpusCapturesMatchOracleWholeAndPerWindow) {
  namespace fs = std::filesystem;
  std::vector<fs::path> logs;
  for (const auto& entry : fs::directory_iterator(FLOWDIFF_CORPUS_DIR)) {
    if (entry.path().extension() == ".log") logs.push_back(entry.path());
  }
  std::sort(logs.begin(), logs.end());
  ASSERT_GE(logs.size(), 7u);
  int windows = 0;
  for (const auto& path : logs) {
    const auto text = of::read_file(path.string());
    ASSERT_TRUE(text.has_value()) << path;
    const auto corpus_case = exp::parse_corpus_case(*text);
    ASSERT_TRUE(corpus_case.has_value()) << path;
    const FlowDiff fd(corpus_case->config.flowdiff);
    // Raw arrival order (the corrupted case is out of order): the log
    // sorts, and both paths read the same sorted events.
    of::ControlLog whole;
    for (const auto& event : corpus_case->events) whole.append(event);
    const std::string name = path.filename().string();
    expect_facade_matches_oracle(fd, whole, name + " whole");
    constexpr SimDuration kWindow = 40 * kSecond;
    for (SimTime t = whole.begin_time(); t <= whole.end_time(); t += kWindow) {
      const of::ControlLog window = whole.slice(t, t + kWindow);
      expect_facade_matches_oracle(
          fd, window, name + " window @" + std::to_string(t));
      ++windows;
    }
  }
  EXPECT_GE(windows, 7);
}

TEST(FacadeModel, ShuffledRandomStreamMatchesOracle) {
  for (const std::uint64_t min_flows : {std::uint64_t{1}, std::uint64_t{5}}) {
    FlowDiffConfig config;
    config.model.app.min_edge_flows = min_flows;
    const FlowDiff fd(config);
    auto events = random_stream(41, 6 * kSecond);
    Rng rng(43);
    for (std::size_t i = events.size(); i > 1; --i) {
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(i) - 1));
      std::swap(events[i - 1], events[j]);
    }
    of::ControlLog log;
    for (const auto& event : events) log.append(event);
    expect_facade_matches_oracle(fd, log,
                                 "min_edge_flows=" + std::to_string(min_flows));
  }
}

TEST(FacadeModel, EmptyLogMatchesOracle) {
  const FlowDiff fd(FlowDiffConfig{});
  expect_facade_matches_oracle(fd, of::ControlLog{}, "empty log");
}

TEST(FacadeModel, UnsupportedConfigUsesOracle) {
  FlowDiffConfig config;
  config.model.app.min_edge_flows = 0;
  const FlowDiff fd(config);
  of::ControlLog log;
  for (const auto& event : random_stream(45, 3 * kSecond)) log.append(event);
  const ObsScope obs_on;
  expect_facade_matches_oracle(fd, log, "min_edge_flows=0");
  EXPECT_EQ(counter("model.incremental_finalizes"), 0u);
}

/// A dense fan-in/fan-out at one node: kFan in-flows into `hub` within
/// 100 ms, then kFan + 1 out-flows of it within the next 100 ms, from two
/// clients to two servers. Every in/out combination is a DD pair inside
/// the 500 ms pairing window: kFan * (kFan + 1) > 1M pairs over only four
/// triples.
constexpr int kFan = 1000;

std::vector<of::ControlEvent> dense_fan_in(SimTime t0) {
  const Ipv4 hub = host(0, 0);
  std::vector<of::ControlEvent> events;
  std::uint16_t port = 1024;
  for (int i = 0; i < kFan; ++i) {
    const of::FlowKey in{host(0, 1 + i % 2), hub, port++, 80,
                         of::Proto::kTcp};
    events.push_back(pin(t0 + i * 100, 1, in));
  }
  for (int j = 0; j <= kFan; ++j) {
    const of::FlowKey out{hub, host(0, 3 + j % 2), port++, 80,
                          of::Proto::kTcp};
    events.push_back(pin(t0 + 100 * kMillisecond + j * 100, 1, out));
  }
  return events;
}

TEST(FacadeModel, DdBudgetOverflowDropsPairsAndFacadeUsesOracle) {
  const auto events = dense_fan_in(0);
  const FlowDiff fd(FlowDiffConfig{});
  of::ControlLog log;
  for (const auto& event : events) log.append(event);
  expect_facade_matches_oracle(fd, log, "dense fan-in past the DD budget");

  // The incremental state itself: bounded (no stored pairs), window-wide
  // DD exact, every DD pair stability-unknown.
  IncrementalWindowState state;
  for (const auto& event : events) fd.incremental_modeler().feed(state, event);
  ASSERT_TRUE(state.dd_over_budget);
  EXPECT_FALSE(fd.incremental_modeler().ready(state));
  std::uint64_t hist_total = 0;
  for (const auto& [triple, agg] : state.triples) {
    EXPECT_EQ(agg.pairs.capacity(), 0u);
    hist_total += agg.hist.total();
  }
  EXPECT_EQ(hist_total, std::uint64_t{kFan} * (kFan + 1));
  EXPECT_EQ(state.dd_samples, hist_total);

  const BehaviorModel degraded = fd.incremental_modeler().finalize(state);
  const BehaviorModel oracle = fd.modeler().build(log);
  ASSERT_EQ(degraded.groups.size(), oracle.groups.size());
  std::size_t dd_pairs = 0;
  for (std::size_t g = 0; g < oracle.groups.size(); ++g) {
    const auto& got = degraded.groups[g];
    const auto& want = oracle.groups[g];
    ASSERT_EQ(got.sig.dd.per_pair.size(), want.sig.dd.per_pair.size());
    for (const auto& [triple, pair] : want.sig.dd.per_pair) {
      const auto it = got.sig.dd.per_pair.find(triple);
      ASSERT_NE(it, got.sig.dd.per_pair.end());
      EXPECT_EQ(it->second.samples, pair.samples);
      EXPECT_EQ(it->second.hist.counts(), pair.hist.counts());
      EXPECT_EQ(it->second.peak_ms, pair.peak_ms);
      EXPECT_EQ(it->second.mean_ms, pair.mean_ms);
      EXPECT_TRUE(got.unstable_dd_pairs.contains(triple));
      ++dd_pairs;
    }
    EXPECT_EQ(got.unstable_ci_nodes, want.unstable_ci_nodes);
    EXPECT_EQ(got.unstable_pc_pairs, want.unstable_pc_pairs);
  }
  EXPECT_EQ(dd_pairs, 4u);
}

// --- Monitor: one store per window ------------------------------------------

TEST(IncrementalModel, UnsanitizedOutOfOrderEventIsRejectedInBothModes) {
  const auto events = random_stream(51, 8 * kSecond);
  // Re-deliver an event from the fourth window once the stream has moved
  // on: older than the newest ingested, so it must be rejected.
  std::size_t k = 0;
  while (events[k].ts < 3 * kSecond + 100 * kMillisecond) ++k;
  std::size_t at = k;
  while (events[at].ts <= events[k].ts) ++at;
  std::vector<of::ControlEvent> arrivals = events;
  arrivals.insert(arrivals.begin() + static_cast<std::ptrdiff_t>(at + 5),
                  events[k]);

  const std::string in_order = run_monitor(monitor_config(true), events);
  const std::string suffix = "; rejected 1 out-of-order event(s)";
  std::vector<std::string> per_mode;
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental" : "oracle");
    const ObsScope obs_on;
    MonitorConfig config = monitor_config(incremental);
    SlidingMonitor monitor(config);
    monitor.feed(arrivals);
    monitor.flush();
    EXPECT_EQ(counter("monitor.rejected_out_of_order"), 1u);
    const MonitorHealth health = monitor.health();
    EXPECT_EQ(health.rejected_out_of_order, 1u);
    EXPECT_FALSE(health.healthy);
    ASSERT_EQ(health.reasons.size(), 1u);
    EXPECT_NE(health.reasons[0].find("out-of-order"), std::string::npos);
    std::size_t flagged = 0;
    for (const auto& audit : monitor.audits()) {
      if (audit.decision.find(suffix) == std::string::npos) continue;
      ++flagged;
      // The window open when it arrived: the one holding the newest event.
      const SimTime newest = events[at + 4].ts;
      EXPECT_LE(audit.window_begin, newest);
      EXPECT_GT(audit.window_end, newest);
    }
    EXPECT_EQ(flagged, 1u);
    // Dropping the suffix gives the in-order transcript back: every other
    // window renders unchanged and the rejected event was never modeled.
    std::string transcript = render_monitor_transcript(monitor) + "\n" +
                             render_provenance_transcript(monitor);
    per_mode.push_back(transcript);
    for (auto pos = transcript.find(suffix); pos != std::string::npos;
         pos = transcript.find(suffix)) {
      transcript.erase(pos, suffix.size());
    }
    EXPECT_EQ(transcript, in_order);
  }
  EXPECT_EQ(per_mode[0], per_mode[1]);
}

TEST(IncrementalModel, DdBudgetWindowIsAuditedNotRebuilt) {
  const ObsScope obs_on;
  MonitorConfig config = monitor_config(true);
  SlidingMonitor monitor(config);
  monitor.feed(dense_fan_in(0));
  monitor.flush();
  ASSERT_EQ(monitor.audits().size(), 1u);
  EXPECT_NE(monitor.audits()[0].decision.find(
                "DD budget exceeded: DD stability unknown"),
            std::string::npos)
      << monitor.audits()[0].decision;
  EXPECT_EQ(counter("monitor.incremental.windows"), 1u);
  EXPECT_EQ(counter("monitor.incremental.fallbacks"), 1u);
}

TEST(IncrementalModel, UnsupportedConfigMonitorRunsOracleMode) {
  const auto events = random_stream(61, 6 * kSecond);
  MonitorConfig config = monitor_config(false);
  config.flowdiff.model.app.min_edge_flows = 0;
  const std::string oracle = run_monitor(config, events);
  config.incremental = true;
  const ObsScope obs_on;
  EXPECT_EQ(run_monitor(config, events), oracle);
  EXPECT_EQ(counter("monitor.incremental.windows"), 0u);
  EXPECT_EQ(counter("monitor.incremental.fallbacks"), 0u);
  EXPECT_EQ(counter("model.incremental_finalizes"), 0u);
}

TEST(IncrementalModel, OracleModeNeverFinalizes) {
  const auto events = random_stream(71, 6 * kSecond);
  {
    const ObsScope obs_on;
    run_monitor(monitor_config(false), events);
    EXPECT_EQ(counter("model.incremental_finalizes"), 0u);
    EXPECT_GT(counter("monitor.windows"), 0u);
  }
  const ObsScope obs_on;
  run_monitor(monitor_config(true), events);
  EXPECT_EQ(counter("model.incremental_finalizes"),
            counter("monitor.windows"));
}

}  // namespace
}  // namespace flowdiff::core
