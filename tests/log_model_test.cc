#include "flowdiff/log_model.h"

#include <gtest/gtest.h>

#include "controller/controller.h"
#include "simnet/network.h"

namespace flowdiff::core {
namespace {

of::FlowKey key(std::uint16_t sport = 40000) {
  return of::FlowKey{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), sport, 80,
                     of::Proto::kTcp};
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

TEST(ParseLog, GroupsPacketInsByFlow) {
  of::ControlLog log;
  log.append(pin(100, 1, key()));
  log.append(fmod(150, 1, key()));
  log.append(pin(300, 2, key()));
  log.append(fmod(350, 2, key()));
  const ParsedLog parsed = parse_log(log);
  ASSERT_EQ(parsed.occurrences.size(), 1u);
  const auto& occ = parsed.occurrences[0];
  EXPECT_EQ(occ.first_ts, 100);
  ASSERT_EQ(occ.hops.size(), 2u);
  EXPECT_EQ(occ.hops[0].sw, SwitchId{1});
  EXPECT_EQ(occ.hops[0].flow_mod_ts, 150);
  EXPECT_EQ(occ.hops[1].sw, SwitchId{2});
}

TEST(ParseLog, SameKeyBeyondWindowIsNewOccurrence) {
  of::ControlLog log;
  log.append(pin(100, 1, key()));
  log.append(pin(100 + kGroupingWindow, 1, key()));  // Still the same flow.
  log.append(pin(100 + 2 * kGroupingWindow + 1, 1, key()));
  const ParsedLog parsed = parse_log(log);
  EXPECT_EQ(parsed.occurrences.size(), 2u);
}

TEST(ParseLog, DistinctKeysAreDistinctOccurrences) {
  of::ControlLog log;
  log.append(pin(100, 1, key(40000)));
  log.append(pin(110, 1, key(40001)));
  const ParsedLog parsed = parse_log(log);
  EXPECT_EQ(parsed.occurrences.size(), 2u);
}

TEST(ParseLog, CrtSamplesFromPinToFlowMod) {
  of::ControlLog log;
  log.append(pin(1000, 1, key()));
  log.append(fmod(1500, 1, key()));
  const ParsedLog parsed = parse_log(log);
  ASSERT_EQ(parsed.crt_samples_ms.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.crt_samples_ms[0], 0.5);
}

TEST(ParseLog, FlowRemovedCollected) {
  of::ControlLog log;
  of::FlowRemoved fr;
  fr.sw = SwitchId{1};
  fr.key = key();
  fr.byte_count = 1234;
  fr.packet_count = 5;
  fr.duration = kSecond;
  log.append(of::ControlEvent{9000, ControllerId{0}, fr});
  const ParsedLog parsed = parse_log(log);
  ASSERT_EQ(parsed.removed.size(), 1u);
  EXPECT_EQ(parsed.removed[0].bytes, 1234u);
  EXPECT_EQ(parsed.removed[0].ts, 9000);
}

TEST(ParseLog, FlowStartsAreTimeOrdered) {
  of::ControlLog log;
  log.append(pin(300, 1, key(40002)));
  log.append(pin(100, 1, key(40000)));
  log.append(pin(200, 1, key(40001)));
  const auto starts = parse_log(log).flow_starts();
  ASSERT_EQ(starts.size(), 3u);
  EXPECT_EQ(starts[0].ts, 100);
  EXPECT_EQ(starts[2].ts, 300);
}

TEST(ParseLog, EndToEndFromSimulatedNetwork) {
  // A two-switch network: parse_log must recover the hop order the flow
  // actually took.
  sim::Topology topo;
  const HostId h1 = topo.add_host("h1", Ipv4(10, 0, 0, 1));
  const HostId h2 = topo.add_host("h2", Ipv4(10, 0, 0, 2));
  const SwitchId sw1 = topo.add_of_switch("sw1");
  const SwitchId sw2 = topo.add_of_switch("sw2");
  topo.connect(h1.value, sw1.value);
  topo.connect(sw1.value, sw2.value);
  topo.connect(sw2.value, h2.value);
  sim::Network net(std::move(topo), sim::NetworkConfig{});
  ctrl::Controller controller(net, ControllerId{0}, ctrl::ControllerConfig{});
  net.set_controller(&controller);
  net.start_flow(sim::FlowSpec{key(), 1000, 10 * kMillisecond, {}, {}});
  net.events().run_until(kSecond);

  const ParsedLog parsed = parse_log(controller.log());
  ASSERT_EQ(parsed.occurrences.size(), 1u);
  const auto& occ = parsed.occurrences[0];
  ASSERT_EQ(occ.hops.size(), 2u);
  EXPECT_EQ(occ.hops[0].sw, sw1);
  EXPECT_EQ(occ.hops[1].sw, sw2);
  EXPECT_GE(occ.hops[0].flow_mod_ts, occ.hops[0].packet_in_ts);
  EXPECT_GE(occ.hops[1].packet_in_ts, occ.hops[0].flow_mod_ts);
  EXPECT_EQ(parsed.crt_samples_ms.size(), 2u);
}

}  // namespace
}  // namespace flowdiff::core
