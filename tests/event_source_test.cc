// EventSource: the serve daemon's live ingest edge. FileTailSource must
// survive rotation and truncation without losing pre-rotation events;
// SocketSource must handle partial lines, disconnects, and reconnects; and
// events lost while a producer was down must surface as sanitizer orphan
// accounting downstream, not silent gaps.
#include "ingest/event_source.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "flowdiff/monitor.h"
#include "flowdiff/monitor_options.h"
#include "openflow/log_io.h"
#include "http_test_util.h"

namespace flowdiff::ingest {
namespace {

namespace fs = std::filesystem;

/// A synthetic PIN line: one event at `ts_us` from controller `ctrl`.
std::string pin_line(long long ts_us, int ctrl, int uid) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "PIN %lld %d 1 1 10.0.0.1 %d 10.0.0.2 80 6 %d\n", ts_us,
                ctrl, 1000 + uid, uid);
  return buf;
}

/// Matching FMOD so the PIN is not an orphan: wildcard match, key echoing
/// the PIN's 5-tuple.
std::string fmod_line(long long ts_us, int ctrl, int uid) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "FMOD %lld %d 1 2 10 30 - - - - - - 10.0.0.1 %d 10.0.0.2 "
                "80 6 %d\n",
                ts_us, ctrl, 1000 + uid, uid);
  return buf;
}

fs::path fresh_dir(const std::string& name) {
  const fs::path dir = fs::path(::testing::TempDir()) / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void append(const fs::path& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
}

std::size_t poll_all(EventSource& source,
                     std::vector<of::ControlEvent>& out) {
  return source.poll(out);
}

// --- FileTailSource --------------------------------------------------------

TEST(FileTailSource, ReadsExistingContentAndFollowsAppends) {
  const fs::path dir = fresh_dir("evsrc_follow");
  const fs::path log = dir / "a.log";
  append(log, "# a comment\n" + pin_line(1000, 0, 1) + pin_line(2000, 0, 2));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 2u);
  EXPECT_TRUE(source.idle());

  append(log, pin_line(3000, 0, 3));
  EXPECT_EQ(poll_all(source, events), 1u);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].ts, SimTime{3000});
  EXPECT_EQ(source.stats().events, 3u);
  fs::remove_all(dir);
}

TEST(FileTailSource, PartialLineWaitsForItsNewline) {
  const fs::path dir = fresh_dir("evsrc_partial");
  const fs::path log = dir / "a.log";
  const std::string line = pin_line(1000, 0, 1);
  append(log, line.substr(0, 10));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 0u);  // Half a line is not an event.
  append(log, line.substr(10));
  EXPECT_EQ(poll_all(source, events), 1u);
  EXPECT_EQ(source.stats().lines_rejected, 0u);
  fs::remove_all(dir);
}

TEST(FileTailSource, MissingFileIsWaitedForNotFatal) {
  const fs::path dir = fresh_dir("evsrc_missing");
  const fs::path log = dir / "later.log";

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 0u);
  EXPECT_TRUE(source.idle());

  append(log, pin_line(1000, 0, 1));
  EXPECT_EQ(poll_all(source, events), 1u);
  fs::remove_all(dir);
}

TEST(FileTailSource, RotationDrainsOldFileBeforeSwitching) {
  const fs::path dir = fresh_dir("evsrc_rotate");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 1u);

  // logrotate-style: rename, then keep writing to the *old* inode briefly
  // before the new file appears. Nothing written pre-switch may be lost.
  const fs::path rotated = dir / "a.log.1";
  fs::rename(log, rotated);
  append(rotated, pin_line(2000, 0, 2));
  append(log, pin_line(3000, 0, 3) + pin_line(4000, 0, 4));

  EXPECT_EQ(poll_all(source, events), 3u);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[1].ts, SimTime{2000});  // Old-inode tail drained first.
  EXPECT_EQ(events[2].ts, SimTime{3000});
  EXPECT_EQ(source.stats().rotations, 1u);
  EXPECT_EQ(source.stats().truncations, 0u);
  fs::remove_all(dir);
}

TEST(FileTailSource, TruncationResetsToTheNewShorterFile) {
  const fs::path dir = fresh_dir("evsrc_trunc");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1) + pin_line(2000, 0, 2));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 2u);

  // copytruncate: same inode, size snaps back to zero, new content begins.
  ASSERT_TRUE(fs::exists(log));
  fs::resize_file(log, 0);
  append(log, pin_line(5000, 0, 5));

  EXPECT_EQ(poll_all(source, events), 1u);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[2].ts, SimTime{5000});
  EXPECT_EQ(source.stats().truncations, 1u);
  fs::remove_all(dir);
}

TEST(FileTailSource, MalformedLinesAreCountedAndSkipped) {
  const fs::path dir = fresh_dir("evsrc_reject");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1) + "THIS IS NOT AN EVENT\n" +
                  pin_line(2000, 0, 2) + "PIN not numbers\n");

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 2u);
  EXPECT_EQ(source.stats().lines_rejected, 2u);
  EXPECT_EQ(source.stats().events, 2u);
  fs::remove_all(dir);
}

TEST(FileTailSource, OverlongLineIsRejectedOnceAndNotBuffered) {
  const fs::path dir = fresh_dir("evsrc_overlong");
  const fs::path log = dir / "a.log";
  // A record padded with trailing field space to exactly the cap is still
  // a record, also when it arrives across two polls.
  std::string at_cap = pin_line(1000, 0, 1);
  at_cap.pop_back();
  at_cap.resize(kMaxPendingLine, ' ');
  append(log, at_cap.substr(0, 100));

  FileTailSource source("t", FileTailConfig{log.string(), true});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 0u);
  append(log, at_cap.substr(100) + "\n");
  EXPECT_EQ(poll_all(source, events), 1u);

  // One byte more is rejected, counted once however long it keeps going.
  append(log, pin_line(2000, 0, 2) + std::string(kMaxPendingLine + 1, 'x'));
  EXPECT_EQ(poll_all(source, events), 1u);
  EXPECT_EQ(source.stats().lines_rejected, 1u);
  for (int i = 0; i < 4; ++i) {
    append(log, std::string(3 * kMaxPendingLine, '7'));
    EXPECT_EQ(poll_all(source, events), 0u);
  }
  EXPECT_EQ(source.stats().lines_rejected, 1u);

  // The line after it parses normally.
  append(log, "tail of the long line\n" + pin_line(3000, 0, 3));
  EXPECT_EQ(poll_all(source, events), 1u);
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events.back().ts, SimTime{3000});
  EXPECT_EQ(source.stats().lines_rejected, 1u);
  fs::remove_all(dir);
}

TEST(FileTailSource, FromEndSkipsExistingContent) {
  const fs::path dir = fresh_dir("evsrc_end");
  const fs::path log = dir / "a.log";
  append(log, pin_line(1000, 0, 1));

  FileTailSource source("t", FileTailConfig{log.string(), false});
  std::vector<of::ControlEvent> events;
  EXPECT_EQ(poll_all(source, events), 0u);
  append(log, pin_line(2000, 0, 2));
  EXPECT_EQ(poll_all(source, events), 1u);
  EXPECT_EQ(events[0].ts, SimTime{2000});
  fs::remove_all(dir);
}

// --- SocketSource ----------------------------------------------------------

void send_all(int fd, const std::string& text) {
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
}

/// Polls until `out` holds `want` events (the accept loop and the client
/// bytes race the test thread; poll() never blocks).
void poll_until(SocketSource& source, std::vector<of::ControlEvent>& out,
                std::size_t want) {
  for (int i = 0; i < 500 && out.size() < want; ++i) {
    source.poll(out);
    if (out.size() < want) ::usleep(2000);
  }
}

TEST(SocketSource, AcceptsAndParsesSplitLines) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  ASSERT_NE(source.port(), 0);

  const int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  const std::string text = pin_line(1000, 0, 1) + pin_line(2000, 0, 2);
  send_all(fd, text.substr(0, 20));  // Mid-line split.
  std::vector<of::ControlEvent> events;
  poll_until(source, events, 0);
  send_all(fd, text.substr(20));
  poll_until(source, events, 2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, SimTime{1000});
  EXPECT_EQ(source.stats().accepts, 1u);
  ::close(fd);
}

TEST(SocketSource, DisconnectFlushesFinalUnterminatedLine) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();

  const int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  std::string line = pin_line(1000, 0, 1);
  line.pop_back();  // Producer died before the trailing newline.
  send_all(fd, line);
  ::close(fd);

  std::vector<of::ControlEvent> events;
  poll_until(source, events, 1);
  ASSERT_EQ(events.size(), 1u);
  for (int i = 0; i < 500 && source.stats().disconnects == 0; ++i) {
    source.poll(events);
    ::usleep(2000);
  }
  EXPECT_EQ(source.stats().disconnects, 1u);
  EXPECT_TRUE(source.idle());
}

TEST(SocketSource, ClientStreamingWithoutNewlinesIsCappedPerLine) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  const int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);

  std::vector<of::ControlEvent> events;
  send_all(fd, pin_line(1000, 0, 1));
  poll_until(source, events, 1);
  ASSERT_EQ(events.size(), 1u);

  // Far more than the cap without a newline, in pieces the source drains
  // between polls: one rejection, nothing delivered.
  for (int i = 0; i < 8; ++i) {
    send_all(fd, std::string(kMaxPendingLine / 2, '9'));
    source.poll(events);
  }
  send_all(fd, "\n" + pin_line(2000, 0, 2));
  poll_until(source, events, 2);
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[1].ts, SimTime{2000});
  EXPECT_EQ(source.stats().lines_rejected, 1u);

  // A producer that disconnects mid-way through an over-long line is not
  // counted twice, and its dropped tail is not flushed as a record.
  for (int i = 0; i < 4; ++i) {
    send_all(fd, std::string(kMaxPendingLine / 2, '5'));
    source.poll(events);
  }
  ::close(fd);
  for (int i = 0; i < 500 && source.stats().disconnects == 0; ++i) {
    source.poll(events);
    ::usleep(2000);
  }
  EXPECT_EQ(source.stats().disconnects, 1u);
  EXPECT_EQ(events.size(), 2u);
  EXPECT_EQ(source.stats().lines_rejected, 2u);
}

TEST(SocketSource, ReconnectContinuesTheSameTenantStream) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  std::vector<of::ControlEvent> events;

  int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  send_all(fd, pin_line(1000, 0, 1));
  poll_until(source, events, 1);
  ::close(fd);

  fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  send_all(fd, pin_line(2000, 0, 2));
  poll_until(source, events, 2);
  ::close(fd);

  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(source.stats().accepts, 2u);
}

TEST(SocketSource, ProducersPastTheCapAreClosedAndCounted) {
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  std::vector<of::ControlEvent> events;
  std::vector<int> fds;
  for (std::size_t i = 0; i < SocketSource::kMaxClients; ++i) {
    fds.push_back(flowdiff::testing::http_connect(source.port()));
    ASSERT_GE(fds.back(), 0);
  }
  for (int i = 0; i < 500 && source.clients() < SocketSource::kMaxClients;
       ++i) {
    source.poll(events);
    ::usleep(2000);
  }
  ASSERT_EQ(source.clients(), SocketSource::kMaxClients);

  // One producer past the cap is accepted and closed at once.
  const int extra = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(extra, 0);
  for (int i = 0; i < 500 && source.stats().disconnects == 0; ++i) {
    source.poll(events);
    ::usleep(2000);
  }
  EXPECT_EQ(source.stats().disconnects, 1u);
  EXPECT_EQ(source.stats().accepts, SocketSource::kMaxClients);
  EXPECT_EQ(source.clients(), SocketSource::kMaxClients);
  ssize_t got = -1;
  char byte = 0;
  for (int i = 0; i < 500 && got < 0; ++i) {
    got = ::recv(extra, &byte, 1, MSG_DONTWAIT);
    if (got < 0) ::usleep(2000);
  }
  EXPECT_EQ(got, 0) << "the producer past the cap must see end of stream";
  ::close(extra);

  // The producers within the cap keep streaming lines that parse.
  std::vector<SimTime> sent;
  for (int round = 0; round < 2; ++round) {
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const long long ts = 1000 * (round * 100 + static_cast<long long>(i) + 1);
      send_all(fds[i], pin_line(ts, 0, static_cast<int>(i)));
      sent.push_back(SimTime{ts});
    }
  }
  poll_until(source, events, sent.size());
  ASSERT_EQ(events.size(), sent.size());
  std::vector<SimTime> received;
  for (const auto& event : events) received.push_back(event.ts);
  std::sort(received.begin(), received.end());
  std::sort(sent.begin(), sent.end());
  EXPECT_EQ(received, sent);
  EXPECT_EQ(source.stats().lines_rejected, 0u);
  EXPECT_EQ(source.stats().disconnects, 1u);
  for (const int fd : fds) ::close(fd);
}

TEST(SocketSource, UnixDomainSocketRoundTrips) {
  const fs::path dir = fresh_dir("evsrc_unix");
  SocketSourceConfig config;
  config.unix_path = (dir / "s.sock").string();
  SocketSource source("t", config);
  ASSERT_TRUE(source.start()) << source.last_error();

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::snprintf(addr.sun_path, sizeof(addr.sun_path), "%s",
                config.unix_path.c_str());
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof(addr)),
            0);
  send_all(fd, pin_line(1000, 0, 1));
  std::vector<of::ControlEvent> events;
  poll_until(source, events, 1);
  ::close(fd);
  ASSERT_EQ(events.size(), 1u);
  fs::remove_all(dir);
}

// --- the gap contract ------------------------------------------------------

TEST(SocketSource, DisconnectGapSurfacesAsSanitizerOrphans) {
  // Events emitted while the producer was disconnected never reach the
  // daemon. The serve pipeline's answer is not to guess — it is the ingest
  // sanitizer's orphan reconciliation: PacketIns whose FlowMods fell into
  // the gap (and vice versa) show up in the window's StreamQuality.
  SocketSource source("t", SocketSourceConfig{});
  ASSERT_TRUE(source.start()) << source.last_error();
  std::vector<of::ControlEvent> events;

  // Connection 1: complete request/response pairs, then a PIN whose FMOD
  // will be lost with the connection.
  int fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  std::string first;
  for (int i = 1; i <= 4; ++i) {
    first += pin_line(i * 100000, 0, i) + fmod_line(i * 100000 + 500, 0, i);
  }
  first += pin_line(500000, 0, 5);
  send_all(fd, first);
  poll_until(source, events, 9);
  ::close(fd);

  // The gap: uid 5's FMOD and uid 6's PIN are never sent.

  // Connection 2: resumes with uid 6's FMOD (orphaned — its PIN is gone)
  // and a final clean pair.
  fd = flowdiff::testing::http_connect(source.port());
  ASSERT_GE(fd, 0);
  std::string second = fmod_line(600500, 0, 6);
  second += pin_line(700000, 0, 7) + fmod_line(700500, 0, 7);
  send_all(fd, second);
  poll_until(source, events, 12);
  ::close(fd);
  ASSERT_EQ(events.size(), 12u);

  core::MonitorOptions options;
  options.window = 1 * kSecond;
  options.sanitize = true;
  options.lateness = 500 * kMillisecond;
  ASSERT_FALSE(options.validate().has_value());
  core::SlidingMonitor monitor(options);
  monitor.feed(events);
  monitor.flush();

  std::uint64_t orphans = 0;
  for (const auto& audit : monitor.audits()) {
    orphans += audit.quality.orphan_packet_ins +
               audit.quality.orphan_flow_mods;
  }
  EXPECT_GE(orphans, 2u) << "the disconnect gap left no trace in stream "
                            "quality";
}

}  // namespace
}  // namespace flowdiff::ingest
