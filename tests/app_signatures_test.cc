#include "flowdiff/app_signatures.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace flowdiff::core {
namespace {

const Ipv4 kA(10, 0, 0, 1);
const Ipv4 kB(10, 0, 0, 2);
const Ipv4 kC(10, 0, 0, 3);

FlowOccurrence occ(Ipv4 src, Ipv4 dst, SimTime ts,
                   std::uint16_t sport = 40000) {
  FlowOccurrence o;
  o.key = of::FlowKey{src, dst, sport, 80, of::Proto::kTcp};
  o.first_ts = ts;
  return o;
}

/// A three-node chain A -> B -> C: n requests, B forwards after proc_delay.
ParsedLog chain_log(int n, SimDuration proc_delay, SimDuration gap,
                    std::uint16_t base_port = 40000) {
  ParsedLog log;
  log.begin = 0;
  for (int i = 0; i < n; ++i) {
    const SimTime t = i * gap;
    const auto sport = static_cast<std::uint16_t>(base_port + i);
    log.occurrences.push_back(occ(kA, kB, t, sport));
    log.occurrences.push_back(occ(kB, kC, t + proc_delay, sport));
  }
  log.end = n * gap + proc_delay;
  std::sort(log.occurrences.begin(), log.occurrences.end(),
            [](const FlowOccurrence& a, const FlowOccurrence& b) {
              return a.first_ts < b.first_ts;
            });
  return log;
}

TEST(ConnectivityGraphSig, BuildsEdgesAboveMinFlows) {
  const ParsedLog log = chain_log(10, 50 * kMillisecond, kSecond);
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  EXPECT_TRUE(sig.cg.graph.has_edge(kA, kB));
  EXPECT_TRUE(sig.cg.graph.has_edge(kB, kC));
  EXPECT_FALSE(sig.cg.graph.has_edge(kA, kC));
}

TEST(ConnectivityGraphSig, SparseEdgesFiltered) {
  ParsedLog log = chain_log(10, 50 * kMillisecond, kSecond);
  log.occurrences.push_back(occ(kA, kC, 100));  // One-off flow.
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  EXPECT_FALSE(sig.cg.graph.has_edge(kA, kC));
}

TEST(ConnectivityGraphSig, DiffFindsAddedAndRemoved) {
  const auto base = extract_group_signatures(
      chain_log(10, 50 * kMillisecond, kSecond), {kA, kB, kC});
  ParsedLog other_log = chain_log(10, 50 * kMillisecond, kSecond);
  // Remove B->C flows, add C->A.
  std::erase_if(other_log.occurrences, [](const FlowOccurrence& o) {
    return o.key.src_ip == kB;
  });
  for (int i = 0; i < 5; ++i) {
    other_log.occurrences.push_back(
        occ(kC, kA, i * kSecond, static_cast<std::uint16_t>(41000 + i)));
  }
  const auto cur =
      extract_group_signatures(other_log, {kA, kB, kC});
  const auto diff = base.cg.diff(cur.cg);
  ASSERT_EQ(diff.added.size(), 1u);
  EXPECT_EQ(diff.added[0], (HostEdge{kC, kA}));
  ASSERT_EQ(diff.removed.size(), 1u);
  EXPECT_EQ(diff.removed[0], (HostEdge{kB, kC}));
}

TEST(FlowStatsSig, CountsAndRate) {
  const ParsedLog log = chain_log(20, 50 * kMillisecond, kSecond / 2);
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  const auto& ab = sig.fs.per_edge.at(HostEdge{kA, kB});
  EXPECT_EQ(ab.flow_count, 20u);
  EXPECT_EQ(ab.first_ts, 0);
  // 40 flows over ~10s -> about 4 flows/sec group-wide.
  EXPECT_NEAR(sig.fs.flows_per_sec.mean(), 4.0, 1.0);
}

TEST(FlowStatsSig, BytesFromFlowRemoved) {
  ParsedLog log = chain_log(10, 50 * kMillisecond, kSecond);
  for (int i = 0; i < 6; ++i) {
    RemovedRecord rec;
    rec.sw = SwitchId{1};
    rec.key = of::FlowKey{kA, kB, 40000, 80, of::Proto::kTcp};
    rec.ts = i * kSecond;
    rec.bytes = 10000 + i * 100;
    rec.duration = 200 * kMillisecond;
    log.removed.push_back(rec);
  }
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  const auto& ab = sig.fs.per_edge.at(HostEdge{kA, kB});
  EXPECT_EQ(ab.bytes.count(), 6u);
  EXPECT_NEAR(ab.bytes.mean(), 10250.0, 1.0);
  EXPECT_DOUBLE_EQ(ab.duration_ms.mean(), 200.0);
}

TEST(ComponentInteractionSig, NormalizedCounts) {
  const ParsedLog log = chain_log(10, 50 * kMillisecond, kSecond);
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  const auto& b = sig.ci.per_node.at(kB);
  // B sees 10 in (A->B) and 10 out (B->C).
  EXPECT_EQ(b.total, 20u);
  EXPECT_DOUBLE_EQ(b.normalized(HostEdge{kA, kB}), 0.5);
  EXPECT_DOUBLE_EQ(b.normalized(HostEdge{kB, kC}), 0.5);
  EXPECT_DOUBLE_EQ(b.normalized(HostEdge{kA, kC}), 0.0);
}

TEST(ComponentInteractionSig, Chi2ZeroForIdenticalShape) {
  const auto a = extract_group_signatures(
      chain_log(10, 50 * kMillisecond, kSecond), {kA, kB, kC});
  const auto b = extract_group_signatures(
      chain_log(40, 50 * kMillisecond, kSecond / 4), {kA, kB, kC});
  // Four times the traffic, same shape: normalized chi2 ~ 0.
  EXPECT_NEAR(ComponentInteractionSig::chi2_at_node(
                  a.ci.per_node.at(kB), b.ci.per_node.at(kB)),
              0.0, 1e-9);
}

TEST(ComponentInteractionSig, Chi2DetectsShapeShift) {
  const auto base = extract_group_signatures(
      chain_log(10, 50 * kMillisecond, kSecond), {kA, kB, kC});
  // Now B stops forwarding: only incoming flows remain.
  ParsedLog broken = chain_log(10, 50 * kMillisecond, kSecond);
  std::erase_if(broken.occurrences, [](const FlowOccurrence& o) {
    return o.key.src_ip == kB;
  });
  const auto cur =
      extract_group_signatures(broken, {kA, kB, kC});
  EXPECT_GT(ComponentInteractionSig::chi2_at_node(base.ci.per_node.at(kB),
                                                  cur.ci.per_node.at(kB)),
            0.4);
}

TEST(DelayDistributionSig, RecoversProcessingDelayPeak) {
  // 55 ms processing at B with 20 ms bins: peak bin center 50 ms.
  const ParsedLog log = chain_log(50, 55 * kMillisecond, kSecond / 2);
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  const auto& dd = sig.dd.per_pair.at(EdgePair{kA, kB, kC});
  EXPECT_GT(dd.samples, 40u);
  EXPECT_DOUBLE_EQ(dd.peak_ms, 50.0);
}

TEST(DelayDistributionSig, SkipsReplyPairs) {
  // A->B followed by B->A is a reply, not a dependency chain.
  ParsedLog log;
  log.begin = 0;
  for (int i = 0; i < 10; ++i) {
    const auto sport = static_cast<std::uint16_t>(40000 + i);
    log.occurrences.push_back(occ(kA, kB, i * kSecond, sport));
    log.occurrences.push_back(
        occ(kB, kA, i * kSecond + 30 * kMillisecond, sport));
  }
  log.end = 10 * kSecond;
  const auto sig = extract_group_signatures(log, {kA, kB});
  EXPECT_FALSE(sig.dd.per_pair.contains(EdgePair{kA, kB, kA}));
}

TEST(DelayDistributionSig, PeakShiftTracksExtraDelay) {
  const auto base = extract_group_signatures(
      chain_log(50, 55 * kMillisecond, kSecond / 2), {kA, kB, kC});
  const auto slowed = extract_group_signatures(
      chain_log(50, 115 * kMillisecond, kSecond / 2), {kA, kB, kC});
  const double shift =
      slowed.dd.per_pair.at(EdgePair{kA, kB, kC}).peak_ms -
      base.dd.per_pair.at(EdgePair{kA, kB, kC}).peak_ms;
  EXPECT_NEAR(shift, 60.0, 20.0);  // Within a bin of the injected 60 ms.
}

TEST(PartialCorrelationSig, DependentEdgesCorrelate) {
  // Bursty arrivals: epochs with many A->B flows also have many B->C flows.
  ParsedLog log;
  log.begin = 0;
  Rng rng(5);
  std::uint16_t sport = 40000;
  for (int epoch = 0; epoch < 30; ++epoch) {
    const auto burst = 1 + rng.uniform_int(0, 8);
    for (int i = 0; i < burst; ++i) {
      const SimTime t = epoch * kSecond +
                        static_cast<SimDuration>(
                            rng.uniform(0.0, 0.4 * kSecond));
      log.occurrences.push_back(occ(kA, kB, t, sport));
      log.occurrences.push_back(
          occ(kB, kC, t + 20 * kMillisecond, sport));
      ++sport;
    }
  }
  std::sort(log.occurrences.begin(), log.occurrences.end(),
            [](const FlowOccurrence& a, const FlowOccurrence& b) {
              return a.first_ts < b.first_ts;
            });
  log.end = 30 * kSecond;
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  ASSERT_TRUE(sig.pc.rho.contains(EdgePair{kA, kB, kC}));
  EXPECT_GT(sig.pc.rho.at(EdgePair{kA, kB, kC}), 0.9);
}

TEST(PartialCorrelationSig, IndependentEdgesDoNot) {
  ParsedLog log;
  log.begin = 0;
  Rng rng(7);
  std::uint16_t sport = 40000;
  for (int epoch = 0; epoch < 40; ++epoch) {
    const auto in_burst = rng.uniform_int(0, 6);
    const auto out_burst = rng.uniform_int(0, 6);
    for (int i = 0; i < in_burst; ++i) {
      log.occurrences.push_back(occ(kA, kB, epoch * kSecond + i, sport++));
    }
    for (int i = 0; i < out_burst; ++i) {
      log.occurrences.push_back(occ(kB, kC, epoch * kSecond + i, sport++));
    }
  }
  std::sort(log.occurrences.begin(), log.occurrences.end(),
            [](const FlowOccurrence& a, const FlowOccurrence& b) {
              return a.first_ts < b.first_ts;
            });
  log.end = 40 * kSecond;
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  ASSERT_TRUE(sig.pc.rho.contains(EdgePair{kA, kB, kC}));
  EXPECT_LT(std::abs(sig.pc.rho.at(EdgePair{kA, kB, kC})), 0.5);
}

TEST(GroupSignatures, OnlyMemberFlowsContribute) {
  ParsedLog log = chain_log(10, 50 * kMillisecond, kSecond);
  const Ipv4 outsider(10, 0, 0, 9);
  for (int i = 0; i < 10; ++i) {
    log.occurrences.push_back(occ(outsider, kA, i * kSecond));
  }
  const auto sig = extract_group_signatures(log, {kA, kB, kC});
  EXPECT_FALSE(sig.cg.graph.has_node(outsider));
  EXPECT_FALSE(sig.fs.per_edge.contains(HostEdge{outsider, kA}));
}

}  // namespace
}  // namespace flowdiff::core
