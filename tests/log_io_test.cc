#include "openflow/log_io.h"

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <string>
#include <vector>

#include "controller/controller.h"
#include "simnet/network.h"

namespace flowdiff::of {
namespace {

FlowKey key(std::uint16_t sport = 40000) {
  return FlowKey{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), sport, 80,
                 Proto::kTcp};
}

ControlLog sample_log() {
  ControlLog log;
  PacketIn pin;
  pin.sw = SwitchId{3};
  pin.in_port = PortId{1};
  pin.key = key();
  pin.flow_uid = 42;
  log.append(ControlEvent{1000, ControllerId{0}, pin});

  FlowMod fm;
  fm.sw = SwitchId{3};
  fm.out_port = PortId{2};
  fm.idle_timeout = 5 * kSecond;
  fm.hard_timeout = 60 * kSecond;
  fm.match = FlowMatch::exact(key());
  fm.key = key();
  fm.flow_uid = 42;
  log.append(ControlEvent{1200, ControllerId{0}, fm});

  PacketOut po;
  po.sw = SwitchId{3};
  po.out_port = PortId{2};
  po.key = key();
  po.flow_uid = 42;
  log.append(ControlEvent{1200, ControllerId{0}, po});

  FlowRemoved fr;
  fr.sw = SwitchId{3};
  fr.reason = RemovedReason::kIdleTimeout;
  fr.duration = 7 * kSecond;
  fr.byte_count = 123456;
  fr.packet_count = 99;
  fr.match = FlowMatch::host_pair(key().src_ip, key().dst_ip);
  fr.key = key();
  log.append(ControlEvent{9 * kSecond, ControllerId{0}, fr});

  FlowStatsReply st;
  st.sw = SwitchId{4};
  st.age = 3 * kSecond;
  st.byte_count = 4096;
  st.packet_count = 7;
  st.match = FlowMatch::exact(key(40001));
  st.match.in_port = PortId{5};
  st.key = key(40001);
  log.append(ControlEvent{9500 * kMillisecond, ControllerId{1}, st});

  log.append(ControlEvent{10 * kSecond, ControllerId{1},
                          EchoReply{SwitchId{3}}});
  return log;
}

TEST(LogIo, ControlLogRoundTrip) {
  const ControlLog original = sample_log();
  const std::string text = serialize(original);
  const auto parsed = parse_control_log(text);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_EQ(parsed->size(), original.size());

  for (std::size_t i = 0; i < original.size(); ++i) {
    const auto& a = original.events()[i];
    const auto& b = parsed->events()[i];
    EXPECT_EQ(a.ts, b.ts);
    EXPECT_EQ(a.controller, b.controller);
    EXPECT_EQ(a.msg.index(), b.msg.index());
  }
  // Spot-check deep fields.
  const auto* fm = std::get_if<FlowMod>(&parsed->events()[1].msg);
  ASSERT_NE(fm, nullptr);
  EXPECT_EQ(fm->idle_timeout, 5 * kSecond);
  EXPECT_EQ(fm->match, FlowMatch::exact(key()));
  EXPECT_EQ(fm->flow_uid, 42u);
  const auto* fr = std::get_if<FlowRemoved>(&parsed->events()[3].msg);
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->byte_count, 123456u);
  EXPECT_FALSE(fr->match.src_port.has_value());  // Wildcard survived.
  EXPECT_EQ(fr->match.src_ip, key().src_ip);
  const auto* st = std::get_if<FlowStatsReply>(&parsed->events()[4].msg);
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->sw, SwitchId{4});
  EXPECT_EQ(st->age, 3 * kSecond);
  EXPECT_EQ(st->byte_count, 4096u);
  EXPECT_EQ(st->packet_count, 7u);
  EXPECT_EQ(st->match.in_port, PortId{5});
  EXPECT_EQ(st->key, key(40001));
  EXPECT_EQ(parsed->events()[4].controller, ControllerId{1});
}

TEST(LogIo, SerializedTwiceIsIdentical) {
  const std::string once = serialize(sample_log());
  const auto parsed = parse_control_log(once);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(serialize(*parsed), once);
}

TEST(LogIo, RejectsMalformedInput) {
  EXPECT_FALSE(parse_control_log("BOGUS 1 2 3").has_value());
  EXPECT_FALSE(parse_control_log("PIN 100").has_value());
  EXPECT_FALSE(
      parse_control_log("PIN abc 0 1 1 10.0.0.1 1 10.0.0.2 2 6 0")
          .has_value());
  // Comments and blank lines are fine.
  const auto ok = parse_control_log("# comment\n\n");
  ASSERT_TRUE(ok.has_value());
  EXPECT_TRUE(ok->empty());
}

TEST(LogIo, AppendingParseRollsBackARejectedInput) {
  const std::string text = serialize(sample_log());
  std::vector<ControlEvent> out;
  ASSERT_TRUE(parse_control_events(text, out));
  ASSERT_EQ(out.size(), sample_log().size());
  const std::string before = serialize(out);

  // A good line ahead of the bad one must not survive either: the
  // overload is all-or-nothing over its input.
  EXPECT_FALSE(parse_control_events(
      "PIN 2000 0 3 1 10.0.0.1 40000 10.0.0.2 80 6 43\nPIN 100\n", out));
  EXPECT_FALSE(parse_control_events("BOGUS 1 2 3", out));
  EXPECT_EQ(serialize(out), before);

  // Blank and comment lines append nothing.
  EXPECT_TRUE(parse_control_events("", out));
  EXPECT_TRUE(parse_control_events("# comment\n\n#another\n", out));
  EXPECT_EQ(serialize(out), before);

  // A good line appends after what is already there.
  ASSERT_TRUE(parse_control_events(
      "PIN 2000 0 3 1 10.0.0.1 40000 10.0.0.2 80 6 43", out));
  ASSERT_EQ(out.size(), sample_log().size() + 1);
  EXPECT_EQ(out.back().ts, 2000);
  out.pop_back();
  EXPECT_EQ(serialize(out), before);
}

// Corrupted captures land adversarial bytes in numeric fields; every one
// of them must come back as a parse failure (nullopt), never an exception
// (the seed parser's std::stoi/std::stoul threw and could take the whole
// capture daemon down) and never a silent modulo-2^16 truncation.
TEST(LogIo, AdversarialNumericFieldsRejectWithoutThrow) {
  const char* bad_lines[] = {
      // PIN: alpha timestamp, negative switch, port overflow, uid overflow,
      // missing trailing field.
      "PIN abc 0 3 1 10.0.0.1 40000 10.0.0.2 80 6 42",
      "PIN 1000 0 -1 1 10.0.0.1 40000 10.0.0.2 80 6 42",
      "PIN 1000 0 3 1 10.0.0.1 65536 10.0.0.2 80 6 42",
      "PIN 1000 0 3 1 10.0.0.1 40000 10.0.0.2 80 6 99999999999999999999",
      "PIN 1000 0 3 1 10.0.0.1 40000 10.0.0.2 80 6",
      // FMOD: alpha idle timeout, match port > 65535 (was truncated to
      // 4464 by the old static_cast), negative match in_port, garbled
      // match IP (was silently widened to a wildcard).
      "FMOD 1200 0 3 2 5e6x 60000000 10.0.0.1 40000 10.0.0.2 80 6 1 "
      "10.0.0.1 40000 10.0.0.2 80 6 42",
      "FMOD 1200 0 3 2 5000000 60000000 10.0.0.1 70000 10.0.0.2 80 6 1 "
      "10.0.0.1 40000 10.0.0.2 80 6 42",
      "FMOD 1200 0 3 2 5000000 60000000 10.0.0.1 40000 10.0.0.2 80 6 -1 "
      "10.0.0.1 40000 10.0.0.2 80 6 42",
      "FMOD 1200 0 3 2 5000000 60000000 10.0.0.x 40000 10.0.0.2 80 6 1 "
      "10.0.0.1 40000 10.0.0.2 80 6 42",
      // POUT: out_port overflow, empty (missing) uid field.
      "POUT 1200 0 3 99999999999999999999 10.0.0.1 40000 10.0.0.2 80 6 42",
      "POUT 1200 0 3 2 10.0.0.1 40000 10.0.0.2 80 6",
      // FREM: alpha reason, negative byte count, key port exactly 65536.
      "FREM 9000000 0 3 idle 7000000 123456 99 10.0.0.1 - 10.0.0.2 - 6 - "
      "10.0.0.1 40000 10.0.0.2 80 6",
      "FREM 9000000 0 3 0 7000000 -1 99 10.0.0.1 - 10.0.0.2 - 6 - "
      "10.0.0.1 40000 10.0.0.2 80 6",
      "FREM 9000000 0 3 0 7000000 123456 99 10.0.0.1 - 10.0.0.2 - 6 - "
      "10.0.0.1 40000 10.0.0.2 65536 6",
      // STAT: alpha age, packet-count overflow.
      "STAT 1000 0 3 age 123 45 10.0.0.1 40000 10.0.0.2 80 6 1 "
      "10.0.0.1 40000 10.0.0.2 80 6",
      "STAT 1000 0 3 5000000 123 99999999999999999999 10.0.0.1 40000 "
      "10.0.0.2 80 6 1 10.0.0.1 40000 10.0.0.2 80 6",
      // ECHO: negative switch, alpha switch, missing switch.
      "ECHO 10000000 1 -1",
      "ECHO 10000000 1 sw",
      "ECHO 10000000 1",
  };
  for (const char* line : bad_lines) {
    ASSERT_NO_THROW({
      EXPECT_FALSE(parse_control_events(line).has_value()) << line;
    }) << line;
  }
}

TEST(LogIo, BoundaryNumericFieldsStillParse) {
  // 65535 is the last valid port, uint64 max the last valid counter, and
  // a match in_port is 32-bit so 65536 is in range there.
  const auto events = parse_control_events(
      "PIN 1000 0 3 1 10.0.0.1 65535 10.0.0.2 80 6 "
      "18446744073709551615\n"
      "FMOD 1200 0 3 2 5000000 60000000 10.0.0.1 65535 10.0.0.2 80 6 "
      "65536 10.0.0.1 40000 10.0.0.2 80 6 42\n");
  ASSERT_TRUE(events.has_value());
  ASSERT_EQ(events->size(), 2u);
  const auto* pin = std::get_if<PacketIn>(&(*events)[0].msg);
  ASSERT_NE(pin, nullptr);
  EXPECT_EQ(pin->key.src_port, 65535u);
  EXPECT_EQ(pin->flow_uid, 18446744073709551615ull);
  const auto* fm = std::get_if<FlowMod>(&(*events)[1].msg);
  ASSERT_NE(fm, nullptr);
  ASSERT_TRUE(fm->match.src_port.has_value());
  EXPECT_EQ(*fm->match.src_port, 65535u);
  ASSERT_TRUE(fm->match.in_port.has_value());
  EXPECT_EQ(fm->match.in_port->value, 65536u);
}

TEST(LogIo, FlowSequenceRoundTrip) {
  FlowSequence flows;
  for (int i = 0; i < 5; ++i) {
    flows.push_back(TimedFlow{i * kSecond,
                              key(static_cast<std::uint16_t>(40000 + i))});
  }
  const auto parsed = parse_flow_sequence(serialize(flows));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, flows);
}

TEST(LogIo, FlowSequenceRejectsGarbage) {
  EXPECT_FALSE(parse_flow_sequence("FLOW 1 nonsense").has_value());
  EXPECT_FALSE(parse_flow_sequence("NOTFLOW 1").has_value());
}

TEST(LogIo, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/flowdiff_log_io_test.log";
  const std::string content = serialize(sample_log());
  ASSERT_TRUE(write_file(path, content));
  const auto back = read_file(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, content);
  std::remove(path.c_str());
  EXPECT_FALSE(read_file(path + ".does.not.exist").has_value());
}

TEST(LogIo, ReadFileRejectsDirectoriesAndNonRegularFiles) {
  // A directory used to load as "" and so diff as an empty baseline.
  EXPECT_FALSE(read_file(::testing::TempDir()).has_value());
  EXPECT_FALSE(read_file("/").has_value());
  EXPECT_FALSE(read_file("/dev/null").has_value());  // Character device.
  // A FIFO with no writer is refused, not waited on.
  const std::string fifo = ::testing::TempDir() + "/flowdiff_log_io_fifo";
  std::remove(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_FALSE(read_file(fifo).has_value());
  std::remove(fifo.c_str());
}

TEST(LogIo, ReadFileReadsPastItsStatSize) {
  // procfs files stat as 0 bytes but have content: the loader must keep
  // reading to EOF, not stop at the size it saw at open.
  const auto status = read_file("/proc/self/status");
  ASSERT_TRUE(status.has_value());
  EXPECT_NE(status->find("VmRSS"), std::string::npos);
  EXPECT_EQ(status->back(), '\n');
}

TEST(LogIo, EmptyFileIsAValidEmptyCapture) {
  const std::string path = ::testing::TempDir() + "/flowdiff_log_io_empty.log";
  ASSERT_TRUE(write_file(path, ""));
  const auto text = read_file(path);
  ASSERT_TRUE(text.has_value());
  EXPECT_TRUE(text->empty());
  const auto log = parse_control_log(*text);
  ASSERT_TRUE(log.has_value());
  EXPECT_TRUE(log->empty());
  std::remove(path.c_str());
}

TEST(LogIo, SimulatedLogSurvivesRoundTrip) {
  // A real captured log (hundreds of events) must round-trip exactly.
  sim::Topology topo;
  const HostId h1 = topo.add_host("h1", Ipv4(10, 0, 0, 1));
  const HostId h2 = topo.add_host("h2", Ipv4(10, 0, 0, 2));
  const SwitchId sw = topo.add_of_switch("sw");
  topo.connect(h1.value, sw.value);
  topo.connect(sw.value, h2.value);
  sim::NetworkConfig config;
  config.idle_timeout = kSecond;
  sim::Network net(std::move(topo), config);
  ctrl::Controller controller(net, ControllerId{0}, ctrl::ControllerConfig{});
  net.set_controller(&controller);
  for (std::uint16_t i = 0; i < 50; ++i) {
    sim::FlowSpec spec;
    spec.key = key(static_cast<std::uint16_t>(41000 + i));
    net.events().schedule(i * 100 * kMillisecond, [&net, spec]() mutable {
      net.start_flow(std::move(spec));
    });
  }
  net.events().run_until(30 * kSecond);

  const std::string text = serialize(controller.log());
  const auto parsed = parse_control_log(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->size(), controller.log().size());
  EXPECT_EQ(serialize(*parsed), text);
  EXPECT_EQ(parsed->count<PacketIn>(), controller.log().count<PacketIn>());
  EXPECT_EQ(parsed->count<FlowRemoved>(),
            controller.log().count<FlowRemoved>());
}

}  // namespace
}  // namespace flowdiff::of
