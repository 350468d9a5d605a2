// Synthetic control-event streams shared by the incremental-modeling
// suites (randomized admit/retire windows and a dense fan-in of over a
// million DD pairs in one window), and a reader of a monitor's model
// window by window.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "flowdiff/model.h"
#include "flowdiff/monitor.h"
#include "openflow/control_log.h"
#include "util/rng.h"

namespace flowdiff::core {

inline Ipv4 host(int app, int i) {
  return Ipv4(10, 0, static_cast<std::uint8_t>(app),
              static_cast<std::uint8_t>(i + 1));
}

inline of::ControlEvent pin(SimTime ts, std::uint32_t sw,
                            const of::FlowKey& k) {
  of::PacketIn msg;
  msg.sw = SwitchId{sw};
  msg.in_port = PortId{1};
  msg.key = k;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

inline of::ControlEvent fmod(SimTime ts, std::uint32_t sw,
                             const of::FlowKey& k) {
  of::FlowMod msg;
  msg.sw = SwitchId{sw};
  msg.out_port = PortId{2};
  msg.key = k;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

inline of::ControlEvent fremoved(SimTime ts, std::uint32_t sw,
                                 const of::FlowKey& k, SimDuration duration,
                                 std::uint64_t bytes) {
  of::FlowRemoved msg;
  msg.sw = SwitchId{sw};
  msg.key = k;
  msg.duration = duration;
  msg.byte_count = bytes;
  msg.packet_count = bytes / 100;
  return of::ControlEvent{ts, ControllerId{0}, msg};
}

inline of::ControlEvent fstats(SimTime ts, std::uint32_t sw,
                               const of::FlowKey& k, SimDuration age,
                               std::uint64_t bytes) {
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
inline std::vector<of::ControlEvent> random_stream(std::uint64_t seed,
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

/// A dense fan-in/fan-out at one node: kFan in-flows into `hub` within
/// 100 ms, then kFan + 1 out-flows of it within the next 100 ms, from two
/// clients to two servers. Every in/out combination is a DD pair inside
/// the 500 ms pairing window: kFan * (kFan + 1) > 1M pairs over only four
/// triples.
inline constexpr int kFan = 1000;

inline std::vector<of::ControlEvent> dense_fan_in(SimTime t0) {
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

/// Feeds `events` to `monitor` one at a time and returns describe_model of
/// each window's model as the window closes, flush included: the per-window
/// models the identity checks compare across modeling modes. A feed that
/// closes more than one window hides all but the last model, and fails the
/// test.
inline std::vector<std::string> feed_window_models(
    SlidingMonitor& monitor, const std::vector<of::ControlEvent>& events) {
  std::vector<std::string> models;
  const auto take = [&] {
    const std::size_t closed = monitor.windows_processed();
    if (closed == models.size()) return;
    if (closed > models.size() + 1) {
      ADD_FAILURE() << "one feed closed windows " << models.size() << ".."
                    << closed - 1;
    }
    models.resize(closed - 1);
    models.push_back(describe_model(*monitor.last_window_model()));
  };
  for (const auto& event : events) {
    monitor.feed(event);
    take();
  }
  monitor.flush();
  take();
  return models;
}

/// Expects equal per-window model lists, naming the first window whose
/// model differs (the full dumps are too long to print).
inline void expect_same_window_models(const std::vector<std::string>& got,
                                      const std::vector<std::string>& want,
                                      const std::string& what) {
  EXPECT_EQ(got.size(), want.size()) << what << ": window count";
  for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
    if (got[i] != want[i]) {
      ADD_FAILURE() << what << ": the model of window " << i << " differs";
      return;
    }
  }
}

}  // namespace flowdiff::core
