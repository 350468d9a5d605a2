// Differential oracle for the ingest sanitizer: the production
// StreamSanitizer (ring + side buffer, dedup prefilter, batched metrics)
// against the original multimap implementation kept in
// reference_sanitizer.h. A seeded sweep over StreamCorruptor profiles,
// lateness horizons and push chunk sizes requires the two to
// agree on everything observable: the released event sequence and when
// each event is released, buffered() and watermark_lag() after every
// chunk, take_window_quality() at cut points, and total().
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "faults/corruptor.h"
#include "ingest/sanitizer.h"
#include "openflow/log_io.h"
#include "reference_sanitizer.h"
#include "util/rng.h"

namespace flowdiff::ingest {
namespace {

of::FlowKey key_for(std::uint64_t flow) {
  return of::FlowKey{Ipv4(10, 0, 0, static_cast<std::uint8_t>(1 + flow % 7)),
                     Ipv4(10, 0, 1, static_cast<std::uint8_t>(1 + flow % 5)),
                     static_cast<std::uint16_t>(20000 + flow % 40000), 80,
                     of::Proto::kTcp};
}

/// A capture shaped like a controller log: PacketIn, then a FlowMod and
/// its PacketOut logged in the same microsecond, sometimes a FlowRemoved
/// (whose counters the corruptor may truncate), echoes and stats replies;
/// three controllers; flows often start in the same microsecond as the
/// previous one, so same-timestamp neighbours of the same kind and
/// controller (the dedup prefilter's pass case) are common, and gaps go
/// down to 1 µs. Timestamps start below zero to cover signed stream time.
of::ControlLog synthetic_capture(std::uint64_t seed, int flows) {
  Rng rng(seed);
  of::ControlLog log;
  SimTime t = -20 * kMillisecond;
  for (int i = 0; i < flows; ++i) {
    t += rng.bernoulli(0.3) ? 0 : rng.uniform_int(1, 400);
    const ControllerId ctrl{static_cast<std::uint32_t>(rng.uniform_int(0, 2))};
    const std::uint64_t uid =
        rng.bernoulli(0.05) ? 0 : static_cast<std::uint64_t>(1000 + i);
    const of::FlowKey key = key_for(static_cast<std::uint64_t>(i));
    const SwitchId sw{static_cast<std::uint32_t>(rng.uniform_int(1, 4))};

    of::PacketIn pin;
    pin.sw = sw;
    pin.in_port = PortId{1};
    pin.key = key;
    pin.flow_uid = uid;
    log.append(of::ControlEvent{t, ctrl, pin});

    of::FlowMod fm;
    fm.sw = sw;
    fm.out_port = PortId{2};
    fm.key = key;
    fm.match = of::FlowMatch::exact(key);
    fm.flow_uid = uid;
    log.append(of::ControlEvent{t + 100, ctrl, fm});
    of::PacketOut po;
    po.sw = sw;
    po.out_port = PortId{2};
    po.key = key;
    po.flow_uid = uid;
    log.append(of::ControlEvent{t + 100, ctrl, po});

    if (rng.bernoulli(0.3)) {
      of::FlowRemoved fr;
      fr.sw = sw;
      fr.key = key;
      fr.match = fm.match;
      fr.duration = 5 * kMillisecond;
      fr.packet_count = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
      fr.byte_count = fr.packet_count * 1500;
      log.append(of::ControlEvent{t + 5 * kMillisecond, ctrl, fr});
    }
    if (rng.bernoulli(0.05)) {
      log.append(of::ControlEvent{t, ctrl, of::EchoReply{sw}});
    }
    if (rng.bernoulli(0.05)) {
      of::FlowStatsReply st;
      st.sw = sw;
      st.key = key;
      st.match = fm.match;
      st.age = kMillisecond;
      st.packet_count = 2;
      st.byte_count = 3000;
      log.append(of::ControlEvent{t + 100, ctrl, st});
    }
  }
  return log;
}

auto quality_fields(const StreamQuality& q) {
  return std::make_tuple(q.fed, q.kept, q.duplicates, q.reordered,
                         q.late_dropped, q.truncated, q.pairs_matched,
                         q.orphan_packet_ins, q.orphan_flow_mods);
}

/// Feeds `arrivals` to both implementations in chunks of `chunk` events
/// (chunk 1 uses the single-event push) and requires identical behaviour.
void expect_identical(const std::vector<of::ControlEvent>& arrivals,
                      const SanitizerConfig& config, std::size_t chunk) {
  StreamSanitizer fast(config);
  reference::StreamSanitizer ref(config);
  std::vector<of::ControlEvent> fast_out;
  std::vector<of::ControlEvent> ref_out;
  const StreamSanitizer::Sink fast_sink =
      [&fast_out](const of::ControlEvent& e) { fast_out.push_back(e); };
  const reference::StreamSanitizer::Sink ref_sink =
      [&ref_out](const of::ControlEvent& e) { ref_out.push_back(e); };

  std::vector<of::ControlEvent> batch;
  std::size_t index = 0;
  for (std::size_t from = 0; from < arrivals.size(); from += chunk, ++index) {
    const std::size_t to = std::min(arrivals.size(), from + chunk);
    if (chunk == 1) {
      fast.push(arrivals[from], fast_sink);
      ref.push(arrivals[from], ref_sink);
    } else {
      batch.assign(arrivals.begin() + static_cast<std::ptrdiff_t>(from),
                   arrivals.begin() + static_cast<std::ptrdiff_t>(to));
      fast.push(batch, fast_sink);
      ref.push(batch, ref_sink);
    }
    ASSERT_EQ(fast_out.size(), ref_out.size()) << "released after chunk "
                                               << index;
    ASSERT_EQ(fast.buffered(), ref.buffered()) << "chunk " << index;
    ASSERT_EQ(fast.watermark_lag(), ref.watermark_lag()) << "chunk " << index;
    if (index % 3 == 1) {
      ASSERT_EQ(quality_fields(fast.take_window_quality()),
                quality_fields(ref.take_window_quality()))
          << "window quality cut after chunk " << index;
    }
  }
  fast.flush(fast_sink);
  ref.flush(ref_sink);
  EXPECT_EQ(fast.buffered(), 0u);
  EXPECT_EQ(fast.watermark_lag(), ref.watermark_lag());
  EXPECT_EQ(quality_fields(fast.take_window_quality()),
            quality_fields(ref.take_window_quality()));
  EXPECT_EQ(quality_fields(fast.total()), quality_fields(ref.total()));
  ASSERT_EQ(fast_out.size(), ref_out.size());
  for (std::size_t i = 0; i < fast_out.size(); ++i) {
    ASSERT_EQ(of::serialize_event(fast_out[i]), of::serialize_event(ref_out[i]))
        << "released event " << i;
  }
}

/// Every horizon x chunk-size setting over one arrival sequence.
void sweep_settings(const std::vector<of::ControlEvent>& arrivals) {
  for (const SimDuration horizon : {SimDuration{0}, kMillisecond, kSecond}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{35},
                                    std::size_t{4096}}) {
      SCOPED_TRACE("horizon=" + std::to_string(horizon) +
                   " chunk=" + std::to_string(chunk));
      SanitizerConfig config;
      config.lateness_horizon = horizon;
      expect_identical(arrivals, config, chunk);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

struct Profile {
  std::string name;
  faults::CorruptorConfig config;
};

std::vector<Profile> corruption_profiles(std::uint64_t seed) {
  std::vector<Profile> profiles;
  profiles.push_back({"clean", faults::CorruptorConfig{}});
  for (const double rate : {0.01, 0.05, 0.2}) {
    profiles.push_back({"uniform " + std::to_string(rate),
                        faults::CorruptorConfig::uniform(rate, seed)});
  }
  faults::CorruptorConfig dup;
  dup.duplicate = 0.3;
  dup.seed = seed;
  profiles.push_back({"duplicate-heavy", dup});
  faults::CorruptorConfig reorder;
  reorder.reorder = 0.3;
  reorder.reorder_span = 64;
  reorder.seed = seed;
  profiles.push_back({"reorder-heavy", reorder});
  faults::CorruptorConfig lossy;
  lossy.drop = 0.1;
  lossy.truncate = 0.1;
  lossy.seed = seed;
  profiles.push_back({"drop-truncate", lossy});
  return profiles;
}

TEST(SanitizerOracle, MatchesReferenceOnEveryCorruptionProfile) {
  for (const std::uint64_t seed : {3u, 11u}) {
    const of::ControlLog capture = synthetic_capture(seed, 1500);
    for (const Profile& profile : corruption_profiles(seed)) {
      SCOPED_TRACE(profile.name + " seed=" + std::to_string(seed));
      faults::StreamCorruptor corruptor(profile.config);
      const auto arrivals = corruptor.corrupt(capture);
      sweep_settings(arrivals);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SanitizerOracle, MatchesReferenceOnHostileTimestamps) {
  const of::ControlLog capture = synthetic_capture(5, 1500);
  faults::StreamCorruptor corruptor(faults::CorruptorConfig::uniform(0.02, 5));
  const auto base = corruptor.corrupt(capture);

  // One far-future stamp mid-stream drags the watermark forward: everything
  // after it is late.
  auto spike = base;
  spike[spike.size() / 2].ts += 1000 * kSecond;
  {
    SCOPED_TRACE("far-future spike");
    sweep_settings(spike);
  }
  if (HasFatalFailure()) return;

  // Runs reversed in blocks of 50 arrivals: every block is a burst of
  // displaced arrivals into the side buffer, with ties across blocks.
  auto reversed = base;
  for (std::size_t from = 0; from < reversed.size(); from += 50) {
    const std::size_t to = std::min(reversed.size(), from + 50);
    std::reverse(reversed.begin() + static_cast<std::ptrdiff_t>(from),
                 reversed.begin() + static_cast<std::ptrdiff_t>(to));
  }
  {
    SCOPED_TRACE("block-reversed");
    sweep_settings(reversed);
  }
  if (HasFatalFailure()) return;

  // Every event twice in a row, then the whole stream again: duplicates
  // both next to their original and a full stream behind it.
  std::vector<of::ControlEvent> doubled;
  for (const auto& event : base) {
    doubled.push_back(event);
    doubled.push_back(event);
  }
  doubled.insert(doubled.end(), base.begin(), base.end());
  SCOPED_TRACE("doubled-and-replayed");
  sweep_settings(doubled);
}

}  // namespace
}  // namespace flowdiff::ingest
