// Flow-counter polling: the controller periodically reads switch entry
// counters (paper: "the central controller can also poll flow counters on
// switches to learn utilization") and FlowDiff turns them into a per-switch
// utilization baseline that shifts under congestion-class faults.
#include <gtest/gtest.h>

#include "controller/controller.h"
#include "flowdiff/flowdiff.h"
#include "openflow/log_io.h"
#include "simnet/network.h"

namespace flowdiff {
namespace {

struct Fixture {
  sim::Topology build() {
    sim::Topology topo;
    h1 = topo.add_host("h1", Ipv4(10, 0, 0, 1));
    h2 = topo.add_host("h2", Ipv4(10, 0, 0, 2));
    sw1 = topo.add_of_switch("sw1");
    sw2 = topo.add_of_switch("sw2");
    topo.connect(h1.value, sw1.value);
    topo.connect(sw1.value, sw2.value);
    topo.connect(sw2.value, h2.value);
    return topo;
  }

  Fixture() : net(build(), sim::NetworkConfig{}),
              controller(net, ControllerId{0}, ctrl::ControllerConfig{}) {
    net.set_controller(&controller);
  }

  /// Sustained traffic h1 -> h2 at roughly `flows_per_sec` fresh flows/s.
  void drive(double flows_per_sec, SimDuration duration, std::uint64_t bytes,
             SimDuration drain = 8 * kSecond) {
    const auto count = static_cast<int>(flows_per_sec *
                                        to_seconds(duration));
    const SimTime begin = net.now();
    for (int i = 0; i < count; ++i) {
      const SimTime at = begin + duration * i / count;
      of::FlowKey key{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                      static_cast<std::uint16_t>(30000 + (i % 30000)), 80,
                      of::Proto::kTcp};
      net.events().schedule(at, [this, key, bytes] {
        sim::FlowSpec spec;
        spec.key = key;
        spec.bytes = bytes;
        spec.duration = 50 * kMillisecond;
        net.start_flow(std::move(spec));
      });
    }
    net.events().run_until(begin + duration + drain);
  }

  HostId h1, h2;
  SwitchId sw1, sw2;
  sim::Network net;
  ctrl::Controller controller;
};

TEST(StatsPolling, ReadStatsSnapshotsCounters) {
  Fixture f;
  // No drain: read the counters while the entries are still installed.
  f.drive(5, 2 * kSecond, 14600, 0);
  const auto stats = f.net.read_stats(f.sw1);
  // Some entries may have expired, but recent ones must carry counters.
  bool counted = false;
  for (const auto& reply : stats) {
    EXPECT_EQ(reply.sw, f.sw1);
    if (reply.byte_count > 0) counted = true;
    EXPECT_GE(reply.age, 0);
  }
  EXPECT_TRUE(counted);
  // Down switches answer nothing.
  f.net.set_node_up(f.sw1.value, false);
  EXPECT_TRUE(f.net.read_stats(f.sw1).empty());
}

TEST(StatsPolling, ControllerLogsStatsReplies) {
  Fixture f;
  f.controller.start_stats_polling(kSecond, 10 * kSecond);
  f.drive(5, 8 * kSecond, 14600);
  EXPECT_GT(f.controller.log().count<of::FlowStatsReply>(), 5u);
}

TEST(StatsPolling, ParsedIntoUtilizationSignature) {
  Fixture f;
  f.controller.start_stats_polling(kSecond, 20 * kSecond);
  f.drive(10, 15 * kSecond, 14600);
  const auto parsed = core::parse_log(f.controller.log());
  EXPECT_FALSE(parsed.stats.empty());
  const auto infra = core::extract_infra_signatures(parsed);
  ASSERT_TRUE(infra.load.mbps.contains(f.sw1.value));
  // ~10 flows/s x 14600 B = ~1.2 Mbps; the bytes/age estimator is coarse,
  // so just require a sane positive rate.
  EXPECT_GT(infra.load.mbps.at(f.sw1.value).mean(), 0.1);
  EXPECT_LT(infra.load.mbps.at(f.sw1.value).mean(), 100.0);
}

TEST(StatsPolling, UtilizationChangeDetectedByDiff) {
  auto run = [](std::uint64_t bytes) {
    Fixture f;
    f.controller.start_stats_polling(kSecond, 30 * kSecond);
    f.drive(10, 20 * kSecond, bytes);
    core::FlowDiffConfig config;
    const core::FlowDiff flowdiff(config);
    return flowdiff.model(f.controller.log());
  };
  const auto baseline = run(14600);
  const auto loaded = run(146000);  // 10x heavier flows.
  const auto changes =
      core::diff_models(baseline, loaded);
  bool util_change = false;
  for (const auto& c : changes) {
    if (c.kind == core::SignatureKind::kUtil) util_change = true;
  }
  EXPECT_TRUE(util_change);

  // Same load twice: no utilization alarm.
  const auto again = run(14600);
  for (const auto& c :
       core::diff_models(baseline, again)) {
    EXPECT_NE(c.kind, core::SignatureKind::kUtil) << c.description;
  }
}

TEST(StatsPolling, StatRecordsRoundTripThroughLogIo) {
  Fixture f;
  f.controller.start_stats_polling(kSecond, 6 * kSecond);
  f.drive(5, 4 * kSecond, 14600);
  const std::string text = of::serialize(f.controller.log());
  EXPECT_NE(text.find("STAT "), std::string::npos);
  const auto parsed = of::parse_control_log(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->count<of::FlowStatsReply>(),
            f.controller.log().count<of::FlowStatsReply>());
  EXPECT_EQ(of::serialize(*parsed), text);
}

TEST(StatsPolling, PollingStopsAtDeadline) {
  Fixture f;
  f.controller.start_stats_polling(kSecond, 3 * kSecond);
  f.drive(5, 10 * kSecond, 14600);
  // Polls at 1s, 2s, 3s only (deadline); each poll logs >= 0 entries, but
  // no polls happen after 3 s.
  SimTime last_stat = 0;
  for (const auto& e : f.controller.log().events()) {
    if (std::holds_alternative<of::FlowStatsReply>(e.msg)) {
      last_stat = std::max(last_stat, e.ts);
    }
  }
  EXPECT_LE(last_stat, 3 * kSecond + kSecond);
}

TEST(StatsPolling, ZeroIntervalIsNoOp) {
  Fixture f;
  f.controller.start_stats_polling(0, 10 * kSecond);
  f.drive(5, 3 * kSecond, 14600);
  EXPECT_EQ(f.controller.log().count<of::FlowStatsReply>(), 0u);
}

}  // namespace
}  // namespace flowdiff
