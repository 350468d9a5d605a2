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
#include "incremental_stream.h"
#include "obs/metrics.h"
#include "openflow/control_log.h"
#include "openflow/log_io.h"
#include "util/rng.h"

namespace flowdiff::core {
namespace {

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
    ModelConfig config;
    config.app.min_edge_flows = min_flows;
    config.stability_segments = 3;
    const int n = sweep_stream(random_stream(11, 6 * kSecond), config, kSecond);
    EXPECT_GT(n, 0) << "min_flows=" << min_flows;
  }
}

TEST(IncrementalModel, PairAtTheLastTimestampMatchesOracle) {
  // The window ends on an in-flow and an out-flow of one node at the same
  // timestamp: a zero-delay pair whose t_in and t_out are both the window
  // end, which the half-open stability segments leave out of every
  // segment.
  ModelConfig config;
  config.app.min_edge_flows = 1;
  OraclePair o(config);
  const Ipv4 a = host(0, 0);
  const Ipv4 b = host(0, 1);
  const Ipv4 c = host(0, 2);
  std::vector<of::ControlEvent> events;
  std::uint16_t port = 1000;
  for (int i = 0; i < 8; ++i) {
    const SimTime t = i * 100 * kMillisecond;
    events.push_back(pin(t, 1, of::FlowKey{a, b, port++, 80, of::Proto::kTcp}));
    events.push_back(pin(t + 10 * kMillisecond, 1,
                         of::FlowKey{b, c, port++, 80, of::Proto::kTcp}));
  }
  events.push_back(pin(750 * kMillisecond, 1,
                       of::FlowKey{a, b, port++, 80, of::Proto::kTcp}));
  events.push_back(pin(750 * kMillisecond, 1,
                       of::FlowKey{b, c, port++, 80, of::Proto::kTcp}));
  IncrementalWindowState state;
  of::ControlLog log;
  for (const auto& event : events) {
    log.append(event);
    o.inc.feed(state, event);
  }
  EXPECT_EQ(describe_model(o.inc.finalize(state)),
            describe_model(o.modeler.build(log)));
}

/// Two flows through 10.0.0.2, 8 s apart: adjacent edges whose only
/// combination lies far outside the DD pairing window.
std::vector<of::ControlEvent> unpaired_chain() {
  return {pin(1 * kSecond, 1,
              of::FlowKey{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 1000, 80,
                          of::Proto::kTcp}),
          pin(9 * kSecond, 1,
              of::FlowKey{Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 3), 1001, 80,
                          of::Proto::kTcp})};
}

TEST(IncrementalModel, ZeroMinEdgeFlowsMatchesOracle) {
  // With min_edge_flows == 0 every adjacent edge pair passes the edge
  // gates, but a pair without a single delay has nothing to summarize: the
  // DD gate refuses it on both sides.
  ModelConfig config;
  config.app.min_edge_flows = 0;
  OraclePair o(config);
  IncrementalWindowState state;
  of::ControlLog log;
  for (const auto& event : unpaired_chain()) {
    log.append(event);
    o.inc.feed(state, event);
  }
  const std::string want = describe_model(o.modeler.build(log));
  EXPECT_EQ(want.find("\ndd "), std::string::npos) << want;
  EXPECT_EQ(describe_model(o.inc.finalize(state)), want);

  EXPECT_GT(sweep_stream(random_stream(12, 4 * kSecond), config, kSecond), 0);
  // No stored delay bounds the pairing window any more: one past 2^32 µs
  // pairs every in/out combination of a window.
  config.app.min_edge_flows = 1;
  config.app.dd_window = SimDuration{1} << 32;
  EXPECT_GT(sweep_stream(random_stream(13, 4 * kSecond), config, kSecond), 0);
}

TEST(IncrementalModel, FreshStateIsNotReady) {
  // A never-fed state holds no window: it finalizes to the empty model,
  // the oracle's model of the empty log.
  ModelConfig config;
  OraclePair o(config);
  const IncrementalWindowState state;
  EXPECT_FALSE(state.active);
  EXPECT_EQ(describe_model(o.inc.finalize(state)),
            describe_model(o.modeler.build(of::ControlLog{})));
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
  EXPECT_EQ(state.events, 0u);
  EXPECT_TRUE(state.occurrences.empty());
  EXPECT_TRUE(state.hops.empty());
  EXPECT_TRUE(state.open.empty());
  EXPECT_TRUE(state.hosts.empty());
  EXPECT_TRUE(state.edges.empty());
  EXPECT_TRUE(state.triples.empty());
  EXPECT_TRUE(state.polls.empty());

  // A recycled state must behave exactly like a fresh one, whatever the
  // previous window left in its buffers: big -> small -> big, then a
  // window of over a million DD pairs followed by a normal one.
  struct Window {
    const char* name;
    std::vector<of::ControlEvent> events;
  };
  const std::vector<Window> windows = {
      {"big", random_stream(8, 4 * kSecond)},
      {"small", random_stream(9, kSecond / 4)},
      {"big again", random_stream(10, 4 * kSecond)},
      {"dense fan-in", dense_fan_in(0)},
      {"normal after the fan-in", random_stream(11, 2 * kSecond)},
  };
  for (const Window& window : windows) {
    SCOPED_TRACE(window.name);
    state.reset();
    IncrementalWindowState fresh;
    of::ControlLog log;
    for (const auto& event : window.events) {
      log.append(event);
      o.inc.feed(state, event);
      o.inc.feed(fresh, event);
    }
    const std::string got = describe_model(o.inc.finalize(state));
    EXPECT_EQ(got, describe_model(o.inc.finalize(fresh)));
    EXPECT_EQ(got, describe_model(o.modeler.build(log)));
  }
}

/// Monitor transcripts (audits, alarms, provenance) with the incremental
/// path on vs. off — the off mode forces every window through the
/// from-scratch oracle, so equality here is end-to-end bit-identity.
/// 1 s windows, rolling baseline.
MonitorOptions monitor_options(bool incremental, bool sanitize = false) {
  MonitorOptions options;
  options.window = kSecond;
  options.rolling_baseline = true;
  options.incremental = incremental;
  options.sanitize = sanitize;
  return options;
}

std::string run_monitor(const MonitorOptions& options,
                        const std::vector<of::ControlEvent>& events) {
  SlidingMonitor monitor(options);
  monitor.feed(events);
  monitor.flush();
  return render_monitor_transcript(monitor) + "\n" +
         render_provenance_transcript(monitor);
}

TEST(IncrementalModel, MonitorMatchesOracleModeAcrossDepths) {
  const auto events = random_stream(21, 8 * kSecond);
  const std::string oracle = run_monitor(monitor_options(false), events);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_monitor(monitor_options(true), events), oracle);
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
      run_monitor(monitor_options(false, true), arrivals);
  ASSERT_FALSE(oracle.empty());
  EXPECT_EQ(run_monitor(monitor_options(true, true), arrivals), oracle);
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
    const FlowDiff fd(corpus_case->options.monitor_config().flowdiff);
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

/// `events` with every timestamp moved by `shift`, as a (sorted) log.
of::ControlLog shifted_log(const std::vector<of::ControlEvent>& events,
                           SimDuration shift) {
  of::ControlLog log;
  for (of::ControlEvent event : events) {
    event.ts += shift;
    log.append(std::move(event));
  }
  return log;
}

TEST(FacadeModel, NegativeTimestampsAreDroppedAndCounted) {
  const auto text =
      of::read_file(std::string(FLOWDIFF_CORPUS_DIR) + "/steady.log");
  ASSERT_TRUE(text.has_value());
  const auto corpus_case = exp::parse_corpus_case(*text);
  ASSERT_TRUE(corpus_case.has_value());
  const auto& events = corpus_case->events;
  for (const std::uint64_t min_flows : {std::uint64_t{5}, std::uint64_t{0}}) {
    SCOPED_TRACE("min_edge_flows=" + std::to_string(min_flows));
    FlowDiffConfig config = corpus_case->options.monitor_config().flowdiff;
    config.model.app.min_edge_flows = min_flows;
    const FlowDiff fd(config);

    // The whole capture before t = 0: nothing is modeled. (Unchecked, the
    // negative FlowMod times read as unanswered hops: 30 topology edges
    // and no ISL pairs instead of the capture's 36 and 10.)
    const of::ControlLog early = shifted_log(events, -400000 * kSecond);
    std::uint64_t rejected = 0;
    EXPECT_EQ(describe_model(fd.model(early, &rejected)),
              describe_model(fd.model(of::ControlLog{})));
    EXPECT_EQ(rejected, events.size());

    // Straddling t = 0: exactly the non-negative suffix is modeled.
    const of::ControlLog whole = shifted_log(events, 0);
    const SimTime mid = whole.events()[whole.size() / 2].ts;
    const of::ControlLog straddling = shifted_log(events, -mid);
    const of::ControlLog kept = whole.slice(mid, whole.end_time() + 1);
    const of::ControlLog kept_shifted = shifted_log(kept.events(), -mid);
    EXPECT_EQ(describe_model(fd.model(straddling, &rejected)),
              describe_model(fd.model(kept_shifted)));
    EXPECT_EQ(rejected, whole.size() - kept.size());
    EXPECT_GT(rejected, 0u);
  }
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

TEST(FacadeModel, ZeroMinEdgeFlowsMatchesOracle) {
  FlowDiffConfig config;
  config.model.app.min_edge_flows = 0;
  const FlowDiff fd(config);
  of::ControlLog random;
  for (const auto& event : random_stream(45, 3 * kSecond)) random.append(event);
  of::ControlLog chain;
  for (const auto& event : unpaired_chain()) chain.append(event);
  const ObsScope obs_on;
  expect_facade_matches_oracle(fd, random, "min_edge_flows=0");
  // The oracle once kept the chain's delay-less pair, with a NaN mean.
  const std::string model = describe_model(fd.model(chain));
  EXPECT_EQ(model.find("nan"), std::string::npos) << model;
  expect_facade_matches_oracle(fd, chain, "unpaired chain");
  EXPECT_EQ(counter("model.incremental_finalizes"), 3u);
}

TEST(FacadeModel, PastTheOldDdBudgetMatchesOracle) {
  // Over a million DD pairs in one log, past the pair log the incremental
  // modeler once kept: per-segment DD is still judged from the edges' flow
  // starts, exactly as the oracle judges it.
  const auto events = dense_fan_in(0);
  const FlowDiff fd(FlowDiffConfig{});
  of::ControlLog log;
  for (const auto& event : events) log.append(event);
  const ObsScope obs_on;
  const BehaviorModel model = fd.model(log);
  EXPECT_EQ(counter("model.incremental_finalizes"), 1u);
  EXPECT_EQ(describe_model(model), describe_model(fd.modeler().build(log)));
  std::uint64_t samples = 0;
  std::size_t dd_pairs = 0;
  for (const GroupModel& group : model.groups) {
    for (const auto& [triple, pair] : group.sig.dd.per_pair) {
      samples += pair.samples;
      ++dd_pairs;
    }
  }
  EXPECT_EQ(dd_pairs, 4u);
  EXPECT_EQ(samples, std::uint64_t{kFan} * (kFan + 1));
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

  const std::string in_order = run_monitor(monitor_options(true), events);
  const std::string suffix = "; rejected 1 out-of-order event(s)";
  std::vector<std::string> per_mode;
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental" : "oracle");
    const ObsScope obs_on;
    SlidingMonitor monitor(monitor_options(incremental));
    monitor.feed(arrivals);
    monitor.flush();
    EXPECT_EQ(counter("monitor.rejected_out_of_order"), 1u);
    const MonitorHealth health = monitor.health();
    EXPECT_EQ(health.rejected_out_of_order, 1u);
    EXPECT_FALSE(health.healthy);
    // The self-watchdog is process-wide and reads wall-clock series, so
    // under load it may add its own reason first; nothing else may.
    std::vector<std::string> reasons = health.reasons;
    if (health.watchdog_alerts > 0) {
      ASSERT_FALSE(reasons.empty());
      EXPECT_EQ(reasons.front(), watchdog_reason(health.watchdog_alerts));
      reasons.erase(reasons.begin());
    }
    ASSERT_EQ(reasons.size(), 1u);
    EXPECT_NE(reasons[0].find("out-of-order"), std::string::npos);
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

/// Transcript and per-window models of one monitor run per mode: [0] is
/// incremental, [1] oracle.
struct ModeRuns {
  std::string transcript[2];
  std::vector<std::string> models[2];
};

ModeRuns run_both_modes(MonitorOptions options,
                        const std::vector<of::ControlEvent>& events) {
  ModeRuns runs;
  for (const bool incremental : {true, false}) {
    options.incremental = incremental;
    SlidingMonitor monitor(options);
    const int i = incremental ? 0 : 1;
    runs.models[i] = feed_window_models(monitor, events);
    runs.transcript[i] = render_monitor_transcript(monitor) + "\n" +
                         render_provenance_transcript(monitor);
  }
  return runs;
}

TEST(IncrementalModel, DdBudgetWindowIsAuditedNotRebuilt) {
  // One window of over a million DD pairs, past the budget of the pair log
  // the incremental modeler once kept: it is finalized, not rebuilt, and
  // reads exactly as in oracle mode, transcript and model.
  const ObsScope obs_on;
  const ModeRuns runs = run_both_modes(monitor_options(true), dense_fan_in(0));
  ASSERT_EQ(runs.models[1].size(), 1u);
  expect_same_window_models(runs.models[0], runs.models[1], "dense fan-in");
  EXPECT_EQ(runs.transcript[0], runs.transcript[1]);
  EXPECT_EQ(counter("monitor.incremental.windows"), 1u);
  EXPECT_EQ(counter("model.incremental_finalizes"), 1u);
  EXPECT_EQ(counter("monitor.windows"), 2u);
}

TEST(IncrementalModel, OracleModeNeverFinalizes) {
  const auto events = random_stream(71, 6 * kSecond);
  {
    const ObsScope obs_on;
    run_monitor(monitor_options(false), events);
    EXPECT_EQ(counter("model.incremental_finalizes"), 0u);
    EXPECT_GT(counter("monitor.windows"), 0u);
  }
  const ObsScope obs_on;
  run_monitor(monitor_options(true), events);
  EXPECT_EQ(counter("model.incremental_finalizes"),
            counter("monitor.windows"));
}

}  // namespace
}  // namespace flowdiff::core
