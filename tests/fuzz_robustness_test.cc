// Robustness sweeps: the analysis pipeline must behave sanely on random,
// adversarial, and degenerate inputs — no crashes, no self-diff changes,
// serialization round-trips, detector stability under noise floods.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "faults/corruptor.h"
#include "flowdiff/flowdiff.h"
#include "flowdiff/monitor.h"
#include "ingest/sanitizer.h"
#include "obs/metrics.h"
#include "openflow/log_io.h"
#include "workload/tasks.h"

namespace flowdiff {
namespace {

of::ControlLog random_log(std::uint64_t seed, int events) {
  Rng rng(seed);
  of::ControlLog log;
  auto random_key = [&rng] {
    return of::FlowKey{
        Ipv4(static_cast<std::uint32_t>(rng.uniform_int(0x0a000001,
                                                        0x0a0000ff))),
        Ipv4(static_cast<std::uint32_t>(rng.uniform_int(0x0a000001,
                                                        0x0a0000ff))),
        static_cast<std::uint16_t>(rng.uniform_int(1, 65535)),
        static_cast<std::uint16_t>(rng.uniform_int(1, 65535)),
        rng.bernoulli(0.7) ? of::Proto::kTcp : of::Proto::kUdp};
  };
  SimTime ts = 0;
  for (int i = 0; i < events; ++i) {
    ts += static_cast<SimDuration>(rng.exponential(5000.0));
    const auto kind = rng.uniform_int(0, 4);
    of::ControlEvent event;
    event.ts = ts;
    event.controller = ControllerId{0};
    const auto key = random_key();
    const auto sw =
        SwitchId{static_cast<std::uint32_t>(rng.uniform_int(0, 7))};
    switch (kind) {
      case 0: {
        of::PacketIn pin;
        pin.sw = sw;
        pin.in_port = PortId{1};
        pin.key = key;
        event.msg = pin;
        break;
      }
      case 1: {
        of::FlowMod fm;
        fm.sw = sw;
        fm.out_port = PortId{2};
        fm.key = key;
        fm.match = rng.bernoulli(0.5)
                       ? of::FlowMatch::exact(key)
                       : of::FlowMatch::host_pair(key.src_ip, key.dst_ip);
        event.msg = fm;
        break;
      }
      case 2: {
        of::PacketOut po;
        po.sw = sw;
        po.out_port = PortId{2};
        po.key = key;
        event.msg = po;
        break;
      }
      case 3: {
        of::FlowRemoved fr;
        fr.sw = sw;
        fr.key = key;
        fr.match = of::FlowMatch::exact(key);
        fr.byte_count = static_cast<std::uint64_t>(
            rng.uniform_int(0, 1000000));
        fr.packet_count = static_cast<std::uint64_t>(
            rng.uniform_int(0, 1000));
        fr.duration = static_cast<SimDuration>(rng.uniform_int(0, kSecond));
        event.msg = fr;
        break;
      }
      default: {
        of::FlowStatsReply st;
        st.sw = sw;
        st.key = key;
        st.match = of::FlowMatch::exact(key);
        st.age = static_cast<SimDuration>(rng.uniform_int(1, 10 * kSecond));
        st.byte_count = static_cast<std::uint64_t>(
            rng.uniform_int(0, 1000000));
        event.msg = st;
        break;
      }
    }
    log.append(std::move(event));
  }
  return log;
}

class RandomLogTest : public ::testing::TestWithParam<int> {};

TEST_P(RandomLogTest, PipelineNeverChokesAndSelfDiffIsClean) {
  const auto log =
      random_log(static_cast<std::uint64_t>(GetParam()) * 131, 800);
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const auto model = flowdiff.model(log);
  // Self-diff must be clean whatever garbage went in.
  const auto report = flowdiff.diff(model, model);
  EXPECT_EQ(report.change_count(), 0u);
  // Rendering must not throw on any content.
  EXPECT_FALSE(report.render().empty());
}

TEST_P(RandomLogTest, SerializationRoundTripsExactly) {
  const auto log =
      random_log(static_cast<std::uint64_t>(GetParam()) * 977, 500);
  const std::string text = of::serialize(log);
  const auto parsed = of::parse_control_log(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), log.size());
  EXPECT_EQ(of::serialize(*parsed), text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLogTest, ::testing::Range(1, 9));

// ---------------------------------------------------------------------------
// Corruption sweeps: seeded drop/dup/reorder/truncate at 1%, 5%, and 10%
// through the full sanitized monitor pipeline. The contract is (a) never
// crash, (b) every fed event is accounted for (kept + duplicates + late +
// truncated == fed), (c) windows carry StreamQuality records and degraded
// windows say so in the audit decision.

class CorruptionSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(CorruptionSweepTest, SanitizedMonitorSurvivesAndCountersReconcile) {
  const double rate = static_cast<double>(GetParam()) / 100.0;
  for (const std::uint64_t seed : {3u, 17u}) {
    const auto log = random_log(seed * 131 + 7, 800);
    faults::StreamCorruptor corruptor(
        faults::CorruptorConfig::uniform(rate, seed));
    const auto arrivals = corruptor.corrupt(log);

    core::MonitorOptions options;
    options.window = kSecond;
    options.sanitize = true;
    options.lateness = 500 * kMillisecond;
    core::SlidingMonitor monitor(options);
    monitor.feed(arrivals);
    monitor.flush();

    const ingest::StreamQuality q = monitor.stream_quality();
    EXPECT_EQ(q.fed, arrivals.size()) << "rate=" << rate << " seed=" << seed;
    EXPECT_EQ(q.fed, q.kept + q.duplicates + q.late_dropped + q.truncated)
        << "rate=" << rate << " seed=" << seed;
    // Per-window attribution never exceeds the run totals, and any window
    // with hard corruption evidence is annotated in its audit decision.
    std::uint64_t window_fed = 0;
    for (const auto& audit : monitor.audits()) {
      window_fed += audit.quality.fed;
      if (audit.quality.degraded()) {
        EXPECT_NE(audit.decision.find("DEGRADED"), std::string::npos);
      }
    }
    EXPECT_LE(window_fed, q.fed);
    // Alarm reports over a corrupted stream carry the quality record.
    for (const auto& entry : monitor.snapshot().explained) {
      if (entry->report) {
        EXPECT_FALSE(entry->report->render().empty());
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Rates, CorruptionSweepTest,
                         ::testing::Values(1, 5, 10));

// Line-level corruption of the serialized form: drops, duplicates, and
// swaps keep each line well-formed, so the parse must succeed and the
// sanitized pipeline must model the result without choking.
TEST(ByteLevelCorruption, LineCorruptedLogStillParsesAndModels) {
  for (const std::uint64_t seed : {5u, 23u, 91u}) {
    const auto log = random_log(seed * 977 + 3, 400);
    faults::CorruptorConfig config;
    config.drop = 0.05;
    config.duplicate = 0.05;
    config.reorder = 0.05;
    config.seed = seed;
    faults::StreamCorruptor corruptor(config);
    const std::string corrupted = corruptor.corrupt_text(of::serialize(log));
    const auto events = of::parse_control_events(corrupted);
    ASSERT_TRUE(events.has_value()) << "seed=" << seed;
    const auto sanitized = ingest::sanitize_log(*events);
    EXPECT_EQ(sanitized.quality.fed, events->size());
    const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
    const auto model = flowdiff.model(sanitized.log);
    EXPECT_EQ(flowdiff.diff(model, model).change_count(), 0u);
  }
}

// Byte flips and tail clipping can make lines unparseable; the contract
// degrades to "fail cleanly or survive": parse either returns nullopt or
// yields events the sanitized pipeline handles without crashing.
TEST(ByteLevelCorruption, FlippedBytesFailCleanlyOrSurvive) {
  for (const std::uint64_t seed : {2u, 13u, 47u, 101u}) {
    const auto log = random_log(seed * 37 + 11, 300);
    faults::CorruptorConfig config;
    config.byte_flip = 0.2;
    config.truncate = 0.1;
    config.seed = seed;
    faults::StreamCorruptor corruptor(config);
    const std::string corrupted = corruptor.corrupt_text(of::serialize(log));
    const auto events = of::parse_control_events(corrupted);
    if (!events) continue;  // Clean failure is an acceptable outcome.
    const auto sanitized = ingest::sanitize_log(*events);
    const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
    const auto model = flowdiff.model(sanitized.log);
    EXPECT_FALSE(flowdiff.diff(model, model).render().empty());
  }
}

// ---------------------------------------------------------------------------
// Adversarial numeric fields, systematically: take one canonical line per
// event type and substitute every numeric token with alpha bytes, -1, a
// 20-digit overflow, 65536, and outright removal. The contract mirrors the
// byte-flip tests but is exhaustive per field: no substitution may throw;
// unparseable bytes and missing fields must yield nullopt; values that do
// parse (e.g. -1 into a signed duration) must flow through the sanitizer
// with exact accounting and model without choking.

std::vector<std::string> split_fields(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && line[i] == ' ') ++i;
    std::size_t j = i;
    while (j < line.size() && line[j] != ' ') ++j;
    if (j > i) fields.push_back(line.substr(i, j - i));
    i = j;
  }
  return fields;
}

bool is_numeric_token(const std::string& tok) {
  std::size_t i = (tok.size() > 1 && tok[0] == '-') ? 1 : 0;
  if (i == tok.size()) return false;  // Bare "-" is a match wildcard.
  for (; i < tok.size(); ++i) {
    if (tok[i] < '0' || tok[i] > '9') return false;
  }
  return true;
}

std::string join_fields(const std::vector<std::string>& fields) {
  std::string line;
  for (const auto& f : fields) {
    if (!line.empty()) line += ' ';
    line += f;
  }
  return line;
}

TEST(AdversarialNumericSweep, EveryNumericFieldFailsCleanlyOrSurvives) {
  // One canonical, known-good line per event type (matches the serializer
  // format; the sanity ASSERT below keeps them honest if it evolves).
  const std::vector<std::string> canonical = {
      "PIN 1000 0 3 1 10.0.0.1 40000 10.0.0.2 80 6 42",
      "FMOD 1200 0 3 2 5000000 60000000 10.0.0.1 40000 10.0.0.2 80 6 1 "
      "10.0.0.1 40000 10.0.0.2 80 6 42",
      "POUT 1300 0 3 2 10.0.0.1 40000 10.0.0.2 80 6 42",
      "FREM 9000000 0 3 0 7000000 123456 99 10.0.0.1 - 10.0.0.2 - 6 - "
      "10.0.0.1 40000 10.0.0.2 80 6",
      "STAT 1000 0 3 5000000 123 45 10.0.0.1 40000 10.0.0.2 80 6 1 "
      "10.0.0.1 40000 10.0.0.2 80 6",
      "ECHO 10000000 1 3",
  };
  const std::vector<std::string> substitutions = {
      "abc", "-1", "99999999999999999999", "65536"};

  for (const std::string& line : canonical) {
    ASSERT_TRUE(of::parse_control_events(line).has_value()) << line;
    const std::vector<std::string> fields = split_fields(line);
    for (std::size_t i = 1; i < fields.size(); ++i) {
      if (!is_numeric_token(fields[i])) continue;

      auto check = [&](const std::string& mutated, bool must_fail) {
        std::optional<std::vector<of::ControlEvent>> events;
        ASSERT_NO_THROW(events = of::parse_control_events(mutated))
            << mutated;
        if (must_fail) {
          EXPECT_FALSE(events.has_value()) << mutated;
        }
        if (!events.has_value()) return;
        // The value was legal for this field's type: the sanitized
        // pipeline must account for every event and model cleanly.
        const auto sanitized = ingest::sanitize_log(*events);
        const auto& q = sanitized.quality;
        EXPECT_EQ(q.fed, events->size()) << mutated;
        EXPECT_EQ(q.fed, q.kept + q.duplicates + q.late_dropped + q.truncated)
            << mutated;
        const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
        const auto model = flowdiff.model(sanitized.log);
        EXPECT_EQ(flowdiff.diff(model, model).change_count(), 0u) << mutated;
      };

      for (const std::string& sub : substitutions) {
        std::vector<std::string> mutated = fields;
        mutated[i] = sub;
        // Alpha bytes can never be a number; the rest depend on the
        // field's width and signedness, so "reject or survive" applies.
        check(join_fields(mutated), /*must_fail=*/sub == "abc");
      }
      // Empty field: removing the token shifts the tail and starves the
      // fixed-arity line parser, which must fail cleanly every time.
      std::vector<std::string> shortened = fields;
      shortened.erase(shortened.begin() + static_cast<std::ptrdiff_t>(i));
      check(join_fields(shortened), /*must_fail=*/true);
    }
  }
}

// ---------------------------------------------------------------------------
// Hostile arrival order: the sanitizer's reorder buffer must stay
// O(log n) per event however the displacement is arranged. A buffer with
// linear-time insertion (one sorted array shifted by memmove) needs
// minutes on these streams; the wall-clock budget turns that into a
// failure instead of a CI timeout.

constexpr int kHostileEvents = 200000;
constexpr double kHostileBudgetSeconds = 15.0;

of::ControlEvent hostile_packet_in(SimTime ts, std::uint64_t uid) {
  of::PacketIn pin;
  pin.sw = SwitchId{1};
  pin.in_port = PortId{1};
  pin.key = of::FlowKey{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                        static_cast<std::uint16_t>(1024 + uid % 60000), 80,
                        of::Proto::kTcp};
  pin.flow_uid = uid;
  return of::ControlEvent{ts, ControllerId{0}, pin};
}

/// Sanitizes `arrivals` (default 1 s horizon, so nothing here is late)
/// within the budget and checks that every event comes out, in order.
void expect_sanitized_within_budget(
    const std::vector<of::ControlEvent>& arrivals,
    std::uint64_t expect_reordered) {
  ingest::StreamSanitizer sanitizer{ingest::SanitizerConfig{}};
  std::vector<of::ControlEvent> out;
  out.reserve(arrivals.size());
  const ingest::StreamSanitizer::Sink sink =
      [&out](const of::ControlEvent& e) { out.push_back(e); };
  const auto start = std::chrono::steady_clock::now();
  sanitizer.push(arrivals, sink);
  sanitizer.flush(sink);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - start;
  EXPECT_LT(took.count(), kHostileBudgetSeconds);
  const ingest::StreamQuality& q = sanitizer.total();
  EXPECT_EQ(q.fed, arrivals.size());
  EXPECT_EQ(q.kept, arrivals.size());
  EXPECT_EQ(q.reordered, expect_reordered);
  ASSERT_EQ(out.size(), arrivals.size());
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [](const auto& a, const auto& b) {
                               return a.ts < b.ts;
                             }));
}

TEST(HostileOrder, StreamReversedWithinHorizonStaysFast) {
  // 200k events 4 µs apart span 0.8 s: the whole stream fits inside the
  // 1 s horizon and arrives newest first, so every arrival after the
  // first is displaced.
  std::vector<of::ControlEvent> arrivals;
  arrivals.reserve(kHostileEvents);
  for (int i = kHostileEvents - 1; i >= 0; --i) {
    arrivals.push_back(hostile_packet_in(kSecond + i * 4, i + 1));
  }
  expect_sanitized_within_budget(arrivals, kHostileEvents - 1);
}

TEST(HostileOrder, AlternatingFarDisplacedArrivalsStayFast) {
  // In-order arrivals every 10 µs keep about 100k events (1 s) buffered;
  // every other arrival is displaced 0.9 s back, deep behind that backlog
  // but ahead of the watermark.
  std::vector<of::ControlEvent> arrivals;
  arrivals.reserve(kHostileEvents);
  for (int i = 0; i < kHostileEvents / 2; ++i) {
    const SimTime t = kSecond + i * 10;
    arrivals.push_back(hostile_packet_in(t, 2 * i + 1));
    arrivals.push_back(
        hostile_packet_in(t - 900 * kMillisecond - 5, 2 * i + 2));
  }
  expect_sanitized_within_budget(arrivals, kHostileEvents / 2);
}

// ---------------------------------------------------------------------------
// Hostile timestamps: one far-future event must not make the monitor walk
// every idle window in the gap (about 2e11 windows here). An optimizer can
// delete such a loop outright, so tools/ci.sh also runs this at -O0.

constexpr double kHostileTimestampBudgetSeconds = 2.0;

TEST(HostileTimestamp, FarFutureEventSkipsIdleWindowsInOneStep) {
  constexpr SimDuration kWindow = 40 * kSecond;
  constexpr SimTime kFar = 9'000'000'000'000'000'000;  // ~98.6% of INT64_MAX.
  for (const bool sanitize : {false, true}) {
    SCOPED_TRACE(sanitize ? "sanitized" : "unsanitized");
    obs::Registry::global().reset();
    obs::set_enabled(true);
    core::MonitorOptions options;
    options.window = kWindow;
    options.sanitize = sanitize;
    core::SlidingMonitor monitor(options);
    const auto start = std::chrono::steady_clock::now();
    monitor.feed(hostile_packet_in(0, 1));
    monitor.feed(hostile_packet_in(kFar, 2));
    monitor.flush();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    const std::uint64_t skipped =
        obs::Registry::global().counter("monitor.idle_windows_skipped").value();
    obs::set_enabled(false);
    obs::Registry::global().reset();

    EXPECT_LT(took.count(), kHostileTimestampBudgetSeconds);
    // [0, 40 s) closes normally; every window from 40 s up to the one
    // holding kFar is idle.
    EXPECT_EQ(skipped, static_cast<std::uint64_t>(kFar / kWindow) - 1);
    ASSERT_EQ(monitor.audits().size(), 2u);
    EXPECT_EQ(monitor.audits()[0].events, 1u);
    EXPECT_EQ(monitor.audits()[1].events, 1u);
    EXPECT_EQ(monitor.audits()[1].window_begin, kFar);
    const ingest::StreamQuality q = monitor.stream_quality();
    EXPECT_EQ(q.fed, q.kept + q.duplicates + q.late_dropped + q.truncated);
    EXPECT_EQ(q.fed, sanitize ? 2u : 0u);
  }
}

TEST(HostileTimestamp, GapEndingAtInt64MaxDoesNotOverflow) {
  // Window arithmetic right at the top of the range: the far event is the
  // last timestamp whose window still ends inside int64 (the flush closes
  // it at INT64_MAX), and the gap before it spans most of the range. It is
  // an echo, which no signature family models.
  constexpr SimTime kMax = std::numeric_limits<SimTime>::max();
  for (const bool sanitize : {false, true}) {
    SCOPED_TRACE(sanitize ? "sanitized" : "unsanitized");
    core::MonitorOptions options;
    options.window = 40 * kSecond;
    options.sanitize = sanitize;
    core::SlidingMonitor monitor(options);
    const auto start = std::chrono::steady_clock::now();
    monitor.feed(hostile_packet_in(0, 1));
    of::EchoReply echo;
    echo.sw = SwitchId{1};
    monitor.feed(of::ControlEvent{kMax - 1, ControllerId{0}, echo});
    monitor.flush();
    const std::chrono::duration<double> took =
        std::chrono::steady_clock::now() - start;
    EXPECT_LT(took.count(), kHostileTimestampBudgetSeconds);
    ASSERT_EQ(monitor.audits().size(), 2u);
    EXPECT_LE(monitor.audits()[1].window_begin, kMax - 1);
    EXPECT_GT(monitor.audits()[1].window_begin, kMax - 40 * kSecond);
    EXPECT_EQ(monitor.audits()[1].window_end, kMax);
  }
}

TEST(HostileTimestamp, CaptureStartingNearInt64MaxModelsLikeTheOracle) {
  // The first 100 events of the steady corpus capture, moved to within a
  // second of INT64_MAX: each modeler's one-second flow-rate horizon past
  // the capture start must saturate, not overflow, and the facade must
  // still match the from-scratch build.
  constexpr SimTime kShift = 9'223'372'036'854'000'000;
  const auto text =
      of::read_file(std::string(FLOWDIFF_CORPUS_DIR) + "/steady.log");
  ASSERT_TRUE(text.has_value());
  const auto events = of::parse_control_events(*text);
  ASSERT_TRUE(events.has_value());
  ASSERT_GE(events->size(), 100u);
  of::ControlLog log;
  for (std::size_t i = 0; i < 100; ++i) {
    of::ControlEvent event = (*events)[i];
    ASSERT_LE(event.ts, std::numeric_limits<SimTime>::max() - kShift);
    event.ts += kShift;
    log.append(event);
  }
  const core::FlowDiff flowdiff(core::FlowDiffConfig{});
  const core::BehaviorModel model = flowdiff.model(log);
  ASSERT_FALSE(model.groups.empty());
  EXPECT_GT(model.groups.front().sig.fs.flows_per_sec.count(), 0u);
  EXPECT_EQ(core::describe_model(model),
            core::describe_model(flowdiff.modeler().build(log)));
}

TEST(HostileTimestamp, NegativeTimestampsAreRejectedAndCounted) {
  // A stream shifted below zero must not vanish silently: negative time
  // collides with the "no window yet" sentinel (-1), so every event is
  // rejected, counted, and turns the monitor unhealthy.
  constexpr std::uint64_t kEvents = 200;
  for (const bool sanitize : {false, true}) {
    SCOPED_TRACE(sanitize ? "sanitized" : "unsanitized");
    core::MonitorOptions options;
    options.window = 40 * kSecond;
    options.sanitize = sanitize;
    core::SlidingMonitor monitor(options);
    for (std::uint64_t i = 0; i < kEvents; ++i) {
      const auto ts = -400'000 * kSecond + static_cast<SimTime>(i) * kSecond;
      monitor.feed(hostile_packet_in(ts, i + 1));
    }
    monitor.flush();
    const core::MonitorHealth health = monitor.health();
    EXPECT_EQ(health.rejected_out_of_order, kEvents);
    EXPECT_FALSE(health.healthy);
    EXPECT_EQ(monitor.windows_processed(), 0u);
  }
}

// ---------------------------------------------------------------------------
// Detector robustness across noise densities.

class NoiseFloodTest : public ::testing::TestWithParam<int> {};

TEST_P(NoiseFloodTest, MigrationStillDetectedUnderNoise) {
  wl::ServiceCatalog services;
  services.nfs = Ipv4(10, 0, 10, 1);
  services.dns = Ipv4(10, 0, 10, 2);
  services.dhcp = Ipv4(10, 0, 10, 3);
  services.ntp = Ipv4(10, 0, 10, 4);
  services.netbios = Ipv4(10, 0, 10, 5);
  services.metadata = Ipv4(10, 0, 10, 6);
  services.apt_mirror = Ipv4(10, 0, 10, 7);
  std::set<Ipv4> service_ips;
  for (const Ipv4 ip : services.special_nodes()) service_ips.insert(ip);

  Rng rng(321);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < 12; ++i) {
    runs.push_back(wl::expand_task(wl::vm_migration_profile(),
                                   {Ipv4(10, 0, 1, 1), Ipv4(10, 0, 2, 1)},
                                   services, rng, 0)
                       .flows);
  }
  core::MiningConfig mining;
  mining.mask_subjects = true;
  mining.service_ips = service_ips;
  const auto automaton =
      core::mine_task("vm_migration", runs, mining).automaton;

  // One migration of a new pair, flooded with `GetParam()` noise flows
  // between OTHER hosts in the same window.
  const auto task = wl::expand_task(wl::vm_migration_profile(),
                                    {Ipv4(10, 0, 3, 1), Ipv4(10, 0, 4, 1)},
                                    services, rng, kSecond);
  std::vector<Ipv4> noisy_hosts;
  for (int i = 0; i < 10; ++i) {
    noisy_hosts.push_back(Ipv4(10, 0, 7, static_cast<std::uint8_t>(i + 1)));
  }
  const auto noise =
      wl::background_noise(noisy_hosts, static_cast<std::size_t>(GetParam()),
                           0, task.end + kSecond, rng);
  const auto stream = wl::merge_sequences({task.flows, noise});

  core::DetectorConfig det;
  det.service_ips = service_ips;
  const auto found = core::detect_tasks({automaton}, det, stream);
  bool hit = false;
  for (const auto& occ : found) {
    for (const Ipv4 ip : occ.involved) {
      if (ip == Ipv4(10, 0, 3, 1)) hit = true;
    }
  }
  EXPECT_TRUE(hit) << "migration lost among " << GetParam()
                   << " noise flows";
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseFloodTest,
                         ::testing::Values(0, 50, 200, 800, 2000));

}  // namespace
}  // namespace flowdiff
