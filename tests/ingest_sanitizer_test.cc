// Ingest sanitizer unit coverage: reorder restoration within the lateness
// horizon, late/duplicate/truncation suppression, PacketIn-FlowMod gap
// reconciliation, per-window quality attribution, and the degraded-mode
// confidence grading the diff layer builds on it.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "faults/corruptor.h"
#include "flowdiff/diff.h"
#include "ingest/sanitizer.h"
#include "obs/metrics.h"
#include "openflow/log_io.h"
#include "reference_sanitizer.h"

namespace flowdiff::ingest {
namespace {

of::FlowKey key_for(std::uint16_t sport) {
  return of::FlowKey{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2), sport, 80,
                     of::Proto::kTcp};
}

of::ControlEvent packet_in(SimTime ts, std::uint64_t uid,
                           std::uint16_t sport = 40000) {
  of::PacketIn pin;
  pin.sw = SwitchId{1};
  pin.in_port = PortId{1};
  pin.key = key_for(sport);
  pin.flow_uid = uid;
  return of::ControlEvent{ts, ControllerId{0}, pin};
}

of::ControlEvent flow_mod(SimTime ts, std::uint64_t uid,
                          std::uint16_t sport = 40000) {
  of::FlowMod fm;
  fm.sw = SwitchId{1};
  fm.out_port = PortId{2};
  fm.key = key_for(sport);
  fm.match = of::FlowMatch::exact(fm.key);
  fm.flow_uid = uid;
  return of::ControlEvent{ts, ControllerId{0}, fm};
}

of::ControlEvent flow_removed(SimTime ts, std::uint64_t bytes,
                              std::uint64_t packets) {
  of::FlowRemoved fr;
  fr.sw = SwitchId{2};
  fr.key = key_for(50000);
  fr.match = of::FlowMatch::exact(fr.key);
  fr.byte_count = bytes;
  fr.packet_count = packets;
  return of::ControlEvent{ts, ControllerId{0}, fr};
}

std::vector<of::ControlEvent> run_through(
    StreamSanitizer& sanitizer, const std::vector<of::ControlEvent>& in) {
  std::vector<of::ControlEvent> out;
  const auto sink = [&out](const of::ControlEvent& e) { out.push_back(e); };
  for (const auto& event : in) sanitizer.push(event, sink);
  sanitizer.flush(sink);
  return out;
}

TEST(StreamSanitizer, CleanOrderedStreamPassesThroughUnchanged) {
  StreamSanitizer sanitizer{SanitizerConfig{}};
  std::vector<of::ControlEvent> in;
  for (int i = 0; i < 10; ++i) {
    in.push_back(packet_in(i * kMillisecond, 100 + i));
  }
  const auto out = run_through(sanitizer, in);
  ASSERT_EQ(out.size(), in.size());
  for (std::size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(of::serialize_event(out[i]), of::serialize_event(in[i]));
  }
  const StreamQuality q = sanitizer.total();
  EXPECT_EQ(q.fed, 10u);
  EXPECT_EQ(q.kept, 10u);
  EXPECT_EQ(q.duplicates, 0u);
  EXPECT_EQ(q.reordered, 0u);
  EXPECT_EQ(q.late_dropped, 0u);
  EXPECT_EQ(q.truncated, 0u);
  EXPECT_FALSE(q.degraded());
}

TEST(StreamSanitizer, RestoresReorderingWithinHorizon) {
  StreamSanitizer sanitizer{SanitizerConfig{}};
  // Arrival order 0ms, 200ms, 100ms — the straggler is well inside the 1 s
  // horizon and must come back out in timestamp order.
  const std::vector<of::ControlEvent> in{packet_in(0, 1),
                                         packet_in(200 * kMillisecond, 2),
                                         packet_in(100 * kMillisecond, 3)};
  const auto out = run_through(sanitizer, in);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_LE(out[0].ts, out[1].ts);
  EXPECT_LE(out[1].ts, out[2].ts);
  EXPECT_EQ(sanitizer.total().reordered, 1u);
  EXPECT_EQ(sanitizer.total().late_dropped, 0u);
  // Bounded reordering is repairable: not hard corruption evidence.
  EXPECT_FALSE(sanitizer.total().degraded());
}

TEST(StreamSanitizer, DropsEventsBeyondLatenessHorizon) {
  SanitizerConfig config;
  config.lateness_horizon = 100 * kMillisecond;
  StreamSanitizer sanitizer(config);
  // The second arrival advances the watermark to 900ms; an event stamped
  // 200ms is unrecoverable.
  const std::vector<of::ControlEvent> in{packet_in(0, 1),
                                         packet_in(kSecond, 2),
                                         packet_in(200 * kMillisecond, 3)};
  const auto out = run_through(sanitizer, in);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(sanitizer.total().late_dropped, 1u);
  EXPECT_TRUE(sanitizer.total().degraded());
}

TEST(StreamSanitizer, SuppressesExactDuplicates) {
  StreamSanitizer sanitizer{SanitizerConfig{}};
  const auto original = packet_in(10 * kMillisecond, 7);
  const auto out =
      run_through(sanitizer, {packet_in(0, 1), original, original});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(sanitizer.total().duplicates, 1u);
  EXPECT_TRUE(sanitizer.total().degraded());
}

TEST(StreamSanitizer, DistinctEventsAtSameTimestampAllKept) {
  StreamSanitizer sanitizer{SanitizerConfig{}};
  // Same timestamp, different flows: legitimate simultaneous arrivals.
  const auto out = run_through(
      sanitizer, {packet_in(kMillisecond, 1, 40001),
                  packet_in(kMillisecond, 2, 40002)});
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(sanitizer.total().duplicates, 0u);
}

TEST(StreamSanitizer, DropsTruncatedCounterRecords) {
  StreamSanitizer sanitizer{SanitizerConfig{}};
  const auto out = run_through(
      sanitizer, {flow_removed(0, 1000, 10),   // Healthy record.
                  flow_removed(kMillisecond, 0, 10),  // Bytes clipped.
                  flow_removed(2 * kMillisecond, 0, 0)});  // Never-hit: ok.
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(sanitizer.total().truncated, 1u);
  EXPECT_TRUE(sanitizer.total().degraded());
}

TEST(StreamSanitizer, PairReconciliationEstimatesCaptureLoss) {
  StreamSanitizer sanitizer{SanitizerConfig{}};
  // Two complete PacketIn/FlowMod pairs; one PacketIn whose FlowMod never
  // reached the capture point at all.
  std::vector<of::ControlEvent> in{
      packet_in(0, 1),          flow_mod(kMillisecond, 1),
      packet_in(2 * kMillisecond, 2), flow_mod(3 * kMillisecond, 2),
      packet_in(4 * kMillisecond, 3)};
  run_through(sanitizer, in);
  const StreamQuality q = sanitizer.take_window_quality();
  EXPECT_EQ(q.pairs_matched, 2u);
  EXPECT_EQ(q.orphan_packet_ins, 1u);
  EXPECT_EQ(q.orphan_flow_mods, 0u);
  EXPECT_GT(q.estimated_loss_rate(), 0.0);
  // Loss estimation alone never flips the hard-evidence degraded bit:
  // window boundaries legitimately split pairs.
  EXPECT_FALSE(q.degraded());
}

TEST(StreamSanitizer, WindowQualityResetsAfterTake) {
  StreamSanitizer sanitizer{SanitizerConfig{}};
  const auto dup = packet_in(0, 1);
  run_through(sanitizer, {dup, dup});
  const StreamQuality first = sanitizer.take_window_quality();
  EXPECT_EQ(first.duplicates, 1u);
  const StreamQuality second = sanitizer.take_window_quality();
  EXPECT_EQ(second.fed, 0u);
  EXPECT_EQ(second.duplicates, 0u);
  // Totals keep accumulating across takes.
  EXPECT_EQ(sanitizer.total().duplicates, 1u);
}

TEST(StreamSanitizer, TotalsReconcileAfterFlushUnderCorruption) {
  // Every fed event must be accounted for: kept, suppressed as duplicate,
  // dropped late, or dropped truncated.
  of::ControlLog log;
  for (int i = 0; i < 400; ++i) {
    log.append(packet_in(i * 10 * kMillisecond, 1000 + i));
    if (i % 3 == 0) {
      log.append(flow_removed(i * 10 * kMillisecond + kMillisecond,
                              (i % 2 == 0) ? 5000 : 0, 7));
    }
  }
  faults::StreamCorruptor corruptor(
      faults::CorruptorConfig::uniform(0.08, 42));
  const auto arrivals = corruptor.corrupt(log);
  StreamSanitizer sanitizer{SanitizerConfig{}};
  const auto out = run_through(sanitizer, arrivals);
  const StreamQuality q = sanitizer.total();
  EXPECT_EQ(q.fed, arrivals.size());
  EXPECT_EQ(q.fed,
            q.kept + q.duplicates + q.late_dropped + q.truncated);
  EXPECT_EQ(q.kept, out.size());
  // Output is restored to timestamp order regardless of arrival order.
  for (std::size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out[i - 1].ts, out[i].ts);
  }
}

TEST(StreamSanitizer, SanitizeLogIsDeterministicAndIdempotent) {
  of::ControlLog log;
  for (int i = 0; i < 200; ++i) {
    log.append(packet_in(i * 5 * kMillisecond, 1 + i));
  }
  faults::StreamCorruptor a(faults::CorruptorConfig::uniform(0.05, 9));
  faults::StreamCorruptor b(faults::CorruptorConfig::uniform(0.05, 9));
  const auto arrivals_a = a.corrupt(log);
  const auto arrivals_b = b.corrupt(log);
  const SanitizedLog first = sanitize_log(arrivals_a);
  const SanitizedLog second = sanitize_log(arrivals_b);
  // Same seed, same corruption, same restored log.
  EXPECT_EQ(of::serialize(first.log), of::serialize(second.log));
  EXPECT_EQ(first.quality.fed, second.quality.fed);
  EXPECT_EQ(first.quality.duplicates, second.quality.duplicates);
  // Sanitizing an already-sanitized stream is the identity.
  const SanitizedLog again = sanitize_log(first.log.events());
  EXPECT_EQ(of::serialize(again.log), of::serialize(first.log));
  EXPECT_FALSE(again.quality.degraded());
  EXPECT_EQ(again.quality.kept, again.quality.fed);
}

TEST(StreamSanitizer, ObsMetricsFlushPerCallWithTheBatchPeakDepth) {
  // The ingest.* counters advance once per push(vector)/flush call, and
  // the depth gauge must still record the deepest buffer reached inside
  // the batch, not only the depth the batch ended at.
  obs::set_enabled(true);
  obs::Registry& registry = obs::Registry::global();
  registry.reset();
  of::ControlLog log;
  SimTime t = 0;
  for (int i = 0; i < 3000; ++i) {
    // A 20 ms gap every 200 events releases the whole 10 ms horizon at
    // once, so the depth inside a batch swings well above its end value.
    t += (i % 200 == 199) ? 20 * kMillisecond : 250;
    log.append(packet_in(t, 1 + i, static_cast<std::uint16_t>(40000 + i)));
    if (i % 5 == 0) log.append(flow_removed(t, 3000, 2));
  }
  faults::StreamCorruptor corruptor(
      faults::CorruptorConfig::uniform(0.05, 21));
  const auto arrivals = corruptor.corrupt(log);

  SanitizerConfig config;
  config.lateness_horizon = 10 * kMillisecond;
  StreamSanitizer sanitizer(config);
  // The reference fed one event at a time gives the depth each arrival
  // reached: what is buffered after it plus what it released.
  reference::StreamSanitizer twin(config);
  std::size_t twin_released = 0;
  const auto twin_sink = [&twin_released](const of::ControlEvent&) {
    ++twin_released;
  };
  const auto sink = [](const of::ControlEvent&) {};
  obs::Gauge& depth = registry.gauge("ingest.buffer.depth");
  const auto expect_counters_match = [&registry, &sanitizer] {
    const StreamQuality& q = sanitizer.total();
    EXPECT_EQ(registry.counter("ingest.fed").value(), q.fed);
    EXPECT_EQ(registry.counter("ingest.kept").value(), q.kept);
    EXPECT_EQ(registry.counter("ingest.duplicates").value(), q.duplicates);
    EXPECT_EQ(registry.counter("ingest.reordered").value(), q.reordered);
    EXPECT_EQ(registry.counter("ingest.late_dropped").value(),
              q.late_dropped);
    EXPECT_EQ(registry.counter("ingest.truncated").value(), q.truncated);
  };

  bool peak_above_end = false;
  std::vector<of::ControlEvent> batch;
  for (std::size_t from = 0; from < arrivals.size(); from += 97) {
    const std::size_t to = std::min(arrivals.size(), from + 97);
    batch.assign(arrivals.begin() + static_cast<std::ptrdiff_t>(from),
                 arrivals.begin() + static_cast<std::ptrdiff_t>(to));
    std::size_t peak = twin.buffered();
    for (const auto& event : batch) {
      twin_released = 0;
      twin.push(event, twin_sink);
      peak = std::max(peak, twin.buffered() + twin_released);
    }
    depth.reset();
    sanitizer.push(batch, sink);
    expect_counters_match();
    EXPECT_EQ(depth.peak(), static_cast<std::int64_t>(peak)) << "at " << from;
    EXPECT_EQ(depth.value(), static_cast<std::int64_t>(sanitizer.buffered()));
    peak_above_end = peak_above_end || peak > sanitizer.buffered() + 1;
  }
  EXPECT_TRUE(peak_above_end) << "no batch exercised the peak";
  const std::size_t before_flush = sanitizer.buffered();
  depth.reset();
  sanitizer.flush(sink);
  expect_counters_match();
  EXPECT_EQ(depth.peak(), static_cast<std::int64_t>(before_flush));
  EXPECT_EQ(depth.value(), 0);
  EXPECT_GT(sanitizer.total().duplicates, 0u);
  EXPECT_GT(sanitizer.total().truncated, 0u);
  EXPECT_GT(sanitizer.total().late_dropped, 0u);
  obs::set_enabled(false);
  registry.reset();
}

TEST(StreamCorruptor, DeterministicWithTalliedStats) {
  of::ControlLog log;
  for (int i = 0; i < 300; ++i) log.append(packet_in(i * kMillisecond, i + 1));
  faults::CorruptorConfig config = faults::CorruptorConfig::uniform(0.1, 77);
  faults::StreamCorruptor one(config);
  faults::StreamCorruptor two(config);
  const auto out_one = one.corrupt(log);
  const auto out_two = two.corrupt(log);
  ASSERT_EQ(out_one.size(), out_two.size());
  for (std::size_t i = 0; i < out_one.size(); ++i) {
    EXPECT_EQ(of::serialize_event(out_one[i]),
              of::serialize_event(out_two[i]));
  }
  const auto& stats = one.stats();
  EXPECT_EQ(stats.total, log.size());
  EXPECT_EQ(out_one.size(),
            log.size() - stats.dropped + stats.duplicated);
  EXPECT_GT(stats.dropped, 0u);
  EXPECT_GT(stats.duplicated, 0u);
  EXPECT_GT(stats.reordered, 0u);
}

TEST(StreamCorruptor, ZeroRatesAreTheIdentity) {
  of::ControlLog log;
  for (int i = 0; i < 50; ++i) log.append(packet_in(i * kMillisecond, i + 1));
  faults::StreamCorruptor corruptor{faults::CorruptorConfig{}};
  const auto out = corruptor.corrupt(log);
  ASSERT_EQ(out.size(), log.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(of::serialize_event(out[i]),
              of::serialize_event(log.events()[i]));
  }
}

TEST(ConfidenceGrading, CleanQualityIsAlwaysHigh) {
  const StreamQuality clean;
  for (const auto kind :
       {core::SignatureKind::kCg, core::SignatureKind::kFs,
        core::SignatureKind::kDd, core::SignatureKind::kIsl}) {
    EXPECT_EQ(core::change_confidence(kind, clean),
              core::Confidence::kHigh);
  }
}

TEST(ConfidenceGrading, TolerancesOrderFragileBelowRobustFamilies) {
  EXPECT_LT(core::corruption_tolerance(core::SignatureKind::kFs),
            core::corruption_tolerance(core::SignatureKind::kDd));
  EXPECT_LT(core::corruption_tolerance(core::SignatureKind::kDd),
            core::corruption_tolerance(core::SignatureKind::kCg));
}

TEST(ConfidenceGrading, DegradedStreamGradesByFamilyTolerance) {
  // 3% measured corruption: beyond the FS tolerance (2%), within the CG
  // tolerance (10%).
  StreamQuality q;
  q.fed = 100;
  q.kept = 97;
  q.duplicates = 1;
  q.late_dropped = 1;
  q.truncated = 1;
  ASSERT_TRUE(q.degraded());
  EXPECT_EQ(core::change_confidence(core::SignatureKind::kFs, q),
            core::Confidence::kLow);
  EXPECT_EQ(core::change_confidence(core::SignatureKind::kCg, q),
            core::Confidence::kMedium);
}

}  // namespace
}  // namespace flowdiff::ingest
