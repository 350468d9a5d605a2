#include "openflow/control_log.h"

#include <gtest/gtest.h>

namespace flowdiff::of {
namespace {

ControlEvent packet_in_at(SimTime ts, std::uint32_t sw = 1) {
  PacketIn pin;
  pin.sw = SwitchId{sw};
  pin.in_port = PortId{1};
  pin.key = FlowKey{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), 40000, 80,
                    Proto::kTcp};
  return ControlEvent{ts, ControllerId{0}, pin};
}

ControlEvent flow_mod_at(SimTime ts) {
  FlowMod fm;
  fm.sw = SwitchId{1};
  fm.out_port = PortId{2};
  return ControlEvent{ts, ControllerId{0}, fm};
}

TEST(ControlLog, AppendAndTimes) {
  ControlLog log;
  EXPECT_TRUE(log.empty());
  log.append(packet_in_at(100));
  log.append(flow_mod_at(200));
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.begin_time(), 100);
  EXPECT_EQ(log.end_time(), 200);
}

TEST(ControlLog, OutOfOrderAppendGetsSorted) {
  ControlLog log;
  log.append(packet_in_at(300));
  log.append(packet_in_at(100));
  log.append(packet_in_at(200));
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[0].ts, 100);
  EXPECT_EQ(log.events()[1].ts, 200);
  EXPECT_EQ(log.events()[2].ts, 300);
}

TEST(ControlLog, AdoptedEventsKeepArrivalTiesAndSortLazily) {
  // Adopting a vector keeps equal timestamps in their given order (the
  // stable sort the append path uses) and sorts out-of-order input.
  std::vector<ControlEvent> events = {packet_in_at(300, 1),
                                      packet_in_at(100, 2), flow_mod_at(300),
                                      packet_in_at(200, 3)};
  const ControlLog log(std::move(events));
  ASSERT_EQ(log.size(), 4u);
  EXPECT_EQ(log.begin_time(), 100);
  EXPECT_EQ(log.events()[1].ts, 200);
  EXPECT_TRUE(std::holds_alternative<PacketIn>(log.events()[2].msg));
  EXPECT_TRUE(std::holds_alternative<FlowMod>(log.events()[3].msg));

  const ControlLog sorted(
      std::vector<ControlEvent>{packet_in_at(1), packet_in_at(1),
                                packet_in_at(2)});
  EXPECT_EQ(sorted.end_time(), 2);
}

TEST(ControlLog, SliceIsHalfOpen) {
  ControlLog log;
  for (SimTime ts : {100, 200, 300, 400}) log.append(packet_in_at(ts));
  const ControlLog s = log.slice(200, 400);
  ASSERT_EQ(s.size(), 2u);
  EXPECT_EQ(s.events()[0].ts, 200);
  EXPECT_EQ(s.events()[1].ts, 300);
}

TEST(ControlLog, FilterByPredicate) {
  ControlLog log;
  log.append(packet_in_at(100, 1));
  log.append(packet_in_at(200, 2));
  log.append(packet_in_at(300, 1));
  const ControlLog only_sw1 = log.filter([](const ControlEvent& e) {
    const auto* pin = std::get_if<PacketIn>(&e.msg);
    return pin != nullptr && pin->sw == SwitchId{1};
  });
  EXPECT_EQ(only_sw1.size(), 2u);
}

TEST(ControlLog, MergeInterleavesByTime) {
  ControlLog a;
  a.append(packet_in_at(100));
  a.append(packet_in_at(300));
  ControlLog b;
  b.append(packet_in_at(200));
  a.merge(b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.events()[1].ts, 200);
}

TEST(ControlLog, CountByMessageType) {
  ControlLog log;
  log.append(packet_in_at(100));
  log.append(packet_in_at(150));
  log.append(flow_mod_at(200));
  EXPECT_EQ(log.count<PacketIn>(), 2u);
  EXPECT_EQ(log.count<FlowMod>(), 1u);
  EXPECT_EQ(log.count<FlowRemoved>(), 0u);
}

TEST(ControlEvent, ToStringMentionsTypeAndSwitch) {
  const auto e = packet_in_at(123);
  const std::string s = e.to_string();
  EXPECT_NE(s.find("PacketIn"), std::string::npos);
  EXPECT_NE(s.find("sw=1"), std::string::npos);
}

}  // namespace
}  // namespace flowdiff::of
