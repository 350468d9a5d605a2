#include "flowdiff/diff.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

namespace flowdiff::core {
namespace {

const Ipv4 kA(10, 0, 0, 1);
const Ipv4 kB(10, 0, 0, 2);
const Ipv4 kC(10, 0, 0, 3);
const Ipv4 kX(10, 0, 0, 9);

FlowOccurrence occ(Ipv4 src, Ipv4 dst, SimTime ts,
                   std::uint16_t sport = 40000) {
  FlowOccurrence o;
  o.key = of::FlowKey{src, dst, sport, 80, of::Proto::kTcp};
  o.first_ts = ts;
  return o;
}

ParsedLog chain_log(int n, SimDuration proc, SimDuration gap) {
  ParsedLog log;
  log.begin = 0;
  for (int i = 0; i < n; ++i) {
    const auto sport = static_cast<std::uint16_t>(40000 + i);
    log.occurrences.push_back(occ(kA, kB, i * gap, sport));
    log.occurrences.push_back(occ(kB, kC, i * gap + proc, sport));
  }
  std::sort(log.occurrences.begin(), log.occurrences.end(),
            [](const FlowOccurrence& a, const FlowOccurrence& b) {
              return a.first_ts < b.first_ts;
            });
  log.end = n * gap + proc;
  return log;
}

GroupModel group_from(const ParsedLog& log) {
  GroupModel g;
  g.sig = extract_group_signatures(log, {kA, kB, kC, kX});
  return g;
}

BehaviorModel model_from(const ParsedLog& log) {
  BehaviorModel m;
  m.begin = log.begin;
  m.end = log.end;
  m.groups.push_back(group_from(log));
  m.infra = extract_infra_signatures(log);
  return m;
}

std::set<SignatureKind> kinds_of(const std::vector<Change>& changes) {
  std::set<SignatureKind> out;
  for (const auto& c : changes) out.insert(c.kind);
  return out;
}

TEST(DiffModels, IdenticalModelsProduceNoChanges) {
  const auto base = model_from(chain_log(30, 50 * kMillisecond, kSecond));
  const auto cur = model_from(chain_log(30, 50 * kMillisecond, kSecond));
  EXPECT_TRUE(diff_models(base, cur).empty());
}

TEST(DiffModels, NewCgEdgeDetectedWithTimestamp) {
  const auto base = model_from(chain_log(30, 50 * kMillisecond, kSecond));
  ParsedLog cur_log = chain_log(30, 50 * kMillisecond, kSecond);
  for (int i = 0; i < 6; ++i) {
    cur_log.occurrences.push_back(
        occ(kX, kB, 12 * kSecond + i * kSecond,
            static_cast<std::uint16_t>(42000 + i)));
  }
  const auto changes =
      diff_models(base, model_from(cur_log));
  const auto* cg = [&]() -> const Change* {
    for (const auto& c : changes) {
      if (c.kind == SignatureKind::kCg &&
          c.description.find("new edge") != std::string::npos) {
        return &c;
      }
    }
    return nullptr;
  }();
  ASSERT_NE(cg, nullptr);
  EXPECT_EQ(cg->approx_time, 12 * kSecond);
  ASSERT_EQ(cg->components.size(), 1u);
  EXPECT_EQ(cg->components[0].ips.size(), 2u);
}

TEST(DiffModels, MissingCgEdgeDetected) {
  const auto base = model_from(chain_log(30, 50 * kMillisecond, kSecond));
  ParsedLog cur_log = chain_log(30, 50 * kMillisecond, kSecond);
  std::erase_if(cur_log.occurrences, [](const FlowOccurrence& o) {
    return o.key.src_ip == kB;
  });
  const auto changes =
      diff_models(base, model_from(cur_log));
  bool missing_edge = false;
  for (const auto& c : changes) {
    if (c.kind == SignatureKind::kCg &&
        c.description.find("missing edge") != std::string::npos) {
      missing_edge = true;
    }
  }
  EXPECT_TRUE(missing_edge);
  // Dropping B's outgoing flows also breaks CI at B.
  EXPECT_TRUE(kinds_of(changes).contains(SignatureKind::kCi));
}

TEST(DiffModels, DdPeakShiftDetected) {
  const auto base = model_from(chain_log(40, 50 * kMillisecond, kSecond));
  const auto cur = model_from(chain_log(40, 130 * kMillisecond, kSecond));
  const auto changes = diff_models(base, cur);
  ASSERT_TRUE(kinds_of(changes).contains(SignatureKind::kDd));
  for (const auto& c : changes) {
    if (c.kind == SignatureKind::kDd) {
      EXPECT_NEAR(c.magnitude, 80.0, 25.0);
    }
  }
}

TEST(DiffModels, SmallDdShiftIgnored) {
  const auto base = model_from(chain_log(40, 50 * kMillisecond, kSecond));
  const auto cur = model_from(chain_log(40, 58 * kMillisecond, kSecond));
  const auto changes = diff_models(base, cur);
  EXPECT_FALSE(kinds_of(changes).contains(SignatureKind::kDd));
}

TEST(DiffModels, UnstableDdPairSkipped) {
  auto base = model_from(chain_log(40, 50 * kMillisecond, kSecond));
  base.groups[0].unstable_dd_pairs.insert(EdgePair{kA, kB, kC});
  const auto cur = model_from(chain_log(40, 130 * kMillisecond, kSecond));
  const auto changes = diff_models(base, cur);
  EXPECT_FALSE(kinds_of(changes).contains(SignatureKind::kDd));
}

TEST(DiffModels, FsByteChangeDetected) {
  auto make = [](std::uint64_t bytes) {
    ParsedLog log = chain_log(30, 50 * kMillisecond, kSecond);
    for (int i = 0; i < 8; ++i) {
      RemovedRecord rec;
      rec.sw = SwitchId{1};
      rec.key = of::FlowKey{kA, kB, 40000, 80, of::Proto::kTcp};
      rec.ts = i * kSecond;
      rec.bytes = bytes;
      rec.duration = 100 * kMillisecond;
      log.removed.push_back(rec);
    }
    return model_from(log);
  };
  const auto changes =
      diff_models(make(10000), make(18000));
  ASSERT_TRUE(kinds_of(changes).contains(SignatureKind::kFs));
  const auto no_changes =
      diff_models(make(10000), make(11000));
  EXPECT_FALSE(kinds_of(no_changes).contains(SignatureKind::kFs));
}

TEST(DiffModels, GroupRateChangeDetected) {
  const auto base = model_from(chain_log(20, 50 * kMillisecond, kSecond));
  // Same duration, 5x the arrival rate.
  const auto cur =
      model_from(chain_log(100, 50 * kMillisecond, kSecond / 5));
  const auto changes = diff_models(base, cur);
  bool rate_change = false;
  for (const auto& c : changes) {
    if (c.kind == SignatureKind::kFs &&
        c.description.find("flow rate") != std::string::npos) {
      rate_change = true;
    }
  }
  EXPECT_TRUE(rate_change);
}

TEST(DiffModels, DisappearedGroupReported) {
  const auto base = model_from(chain_log(30, 50 * kMillisecond, kSecond));
  BehaviorModel empty;
  empty.begin = 0;
  empty.end = 30 * kSecond;
  const auto changes = diff_models(base, empty);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_EQ(changes[0].kind, SignatureKind::kCg);
  EXPECT_NE(changes[0].description.find("disappeared"), std::string::npos);
}

TEST(DiffModels, NewGroupReported) {
  BehaviorModel empty;
  const auto cur = model_from(chain_log(30, 50 * kMillisecond, kSecond));
  const auto changes = diff_models(empty, cur);
  ASSERT_EQ(changes.size(), 1u);
  EXPECT_NE(changes[0].description.find("new application group"),
            std::string::npos);
  EXPECT_GE(changes[0].approx_time, 0);
}

TEST(DiffModels, IslShiftDetected) {
  auto with_isl = [](double mean_ms) {
    ParsedLog log = chain_log(10, 50 * kMillisecond, kSecond);
    for (auto& o : log.occurrences) {
      o.hops.push_back(SwitchHop{SwitchId{1}, PortId{1}, PortId{2},
                                 o.first_ts, o.first_ts + 200});
      o.hops.push_back(SwitchHop{
          SwitchId{2}, PortId{1}, PortId{2},
          o.first_ts + 200 + static_cast<SimDuration>(mean_ms * 1000),
          o.first_ts + 300 + static_cast<SimDuration>(mean_ms * 1000)});
    }
    return model_from(log);
  };
  const auto changes =
      diff_models(with_isl(0.5), with_isl(5.0));
  EXPECT_TRUE(kinds_of(changes).contains(SignatureKind::kIsl));
  const auto no_changes =
      diff_models(with_isl(0.5), with_isl(0.6));
  EXPECT_FALSE(kinds_of(no_changes).contains(SignatureKind::kIsl));
}

TEST(DiffModels, CrtShiftDetected) {
  auto with_crt = [](double base_ms) {
    ParsedLog log = chain_log(10, 50 * kMillisecond, kSecond);
    for (int i = 0; i < 20; ++i) {
      log.crt_samples_ms.push_back(base_ms + 0.01 * (i % 5));
    }
    return model_from(log);
  };
  const auto changes =
      diff_models(with_crt(0.2), with_crt(4.0));
  EXPECT_TRUE(kinds_of(changes).contains(SignatureKind::kCrt));
}

Ipv4 ip(std::uint8_t last) { return Ipv4(10, 0, 0, last); }

HostEdge edge(std::uint8_t a, std::uint8_t b) { return {ip(a), ip(b)}; }

EdgePair triple(std::uint8_t a, std::uint8_t b, std::uint8_t c) {
  return {ip(a), ip(b), ip(c)};
}

/// Eight identical observations: zero spread, so only the relative and
/// absolute cut-offs decide.
RunningStats constant_stats(double value) {
  RunningStats s;
  for (int i = 0; i < 8; ++i) s.add(value);
  return s;
}

FlowStatsSig::EdgeStats edge_stats(double bytes, double duration_ms) {
  FlowStatsSig::EdgeStats stats;
  stats.bytes = constant_stats(bytes);
  stats.duration_ms = constant_stats(duration_ms);
  return stats;
}

ComponentInteractionSig::NodeCi node_ci(std::uint64_t in, std::uint64_t out) {
  ComponentInteractionSig::NodeCi ci;
  ci.edge_counts = {{edge(1, 9), in}, {edge(9, 1), out}};
  ci.total = in + out;
  return ci;
}

DelayDistributionSig::PairDd dd_peak(double peak_ms) {
  DelayDistributionSig::PairDd dd;
  dd.peak_ms = peak_ms;
  return dd;
}

TEST(DiffModels, KeyedFamiliesEmitCommonKeysInKeyOrder) {
  // Every keyed family interleaves keys present only in the baseline, only
  // in the current model, in both, and (CI/DD/PC) in both but unstable.
  // Only common, stable keys reach a gate, in key order.
  BehaviorModel base;
  BehaviorModel cur;
  base.groups.emplace_back();
  cur.groups.emplace_back();
  GroupModel& bg = base.groups[0];
  GroupModel& cg = cur.groups[0];
  bg.sig.members = cg.sig.members = {ip(1), ip(2), ip(3), ip(4), ip(5)};

  bg.sig.fs.per_edge = {{edge(1, 2), edge_stats(1000, 10)},
                        {edge(1, 3), edge_stats(1000, 10)},
                        {edge(2, 4), edge_stats(1000, 10)},
                        {edge(3, 5), edge_stats(1000, 10)}};
  cg.sig.fs.per_edge = {{edge(1, 2), edge_stats(2000, 10)},
                        {edge(2, 3), edge_stats(5000, 90)},
                        {edge(2, 4), edge_stats(1000, 100)},
                        {edge(3, 5), edge_stats(3000, 50)},
                        {edge(4, 1), edge_stats(5000, 90)}};

  bg.sig.ci.per_node = {{ip(1), node_ci(10, 10)},
                        {ip(2), node_ci(10, 10)},
                        {ip(3), node_ci(10, 10)},
                        {ip(5), node_ci(10, 10)}};
  cg.sig.ci.per_node = {{ip(1), node_ci(20, 0)},
                        {ip(3), node_ci(20, 0)},
                        {ip(4), node_ci(20, 0)},
                        {ip(5), node_ci(0, 20)}};
  bg.unstable_ci_nodes = {ip(3)};

  bg.sig.dd.per_pair = {{triple(1, 2, 3), dd_peak(50)},
                        {triple(1, 2, 4), dd_peak(50)},
                        {triple(2, 3, 4), dd_peak(50)},
                        {triple(4, 5, 1), dd_peak(50)}};
  cg.sig.dd.per_pair = {{triple(1, 2, 3), dd_peak(150)},
                        {triple(2, 3, 4), dd_peak(150)},
                        {triple(3, 4, 5), dd_peak(150)},
                        {triple(4, 5, 1), dd_peak(90)}};
  bg.unstable_dd_pairs = {triple(2, 3, 4)};

  bg.sig.pc.rho = {{triple(1, 2, 3), 0.9},
                   {triple(2, 3, 4), 0.9},
                   {triple(3, 4, 5), 0.9},
                   {triple(4, 5, 1), 0.1}};
  cg.sig.pc.rho = {{triple(1, 2, 3), 0.1},
                   {triple(1, 2, 5), 0.9},
                   {triple(3, 4, 5), 0.0},
                   {triple(4, 5, 1), 0.9}};
  bg.unstable_pc_pairs = {triple(3, 4, 5)};

  base.infra.isl.latency_ms = {{{1, 2}, constant_stats(1.0)},
                               {{1, 3}, constant_stats(1.0)},
                               {{2, 3}, constant_stats(1.0)},
                               {{3, 1}, constant_stats(2.0)}};
  cur.infra.isl.latency_ms = {{{1, 2}, constant_stats(5.0)},
                              {{2, 1}, constant_stats(9.0)},
                              {{2, 3}, constant_stats(1.2)},
                              {{3, 1}, constant_stats(10.0)}};

  base.infra.load.mbps = {{1, constant_stats(10.0)},
                          {2, constant_stats(10.0)},
                          {4, constant_stats(10.0)},
                          {5, constant_stats(20.0)}};
  cur.infra.load.mbps = {{1, constant_stats(30.0)},
                         {3, constant_stats(90.0)},
                         {4, constant_stats(10.5)},
                         {5, constant_stats(4.0)}};

  std::vector<std::string> emitted;
  for (const Change& c : diff_models(base, cur)) {
    emitted.push_back(std::string(to_string(c.kind)) + " " + c.description);
  }
  const std::vector<std::string> expected = {
      "FS byte count on 10.0.0.1->10.0.0.2 changed 100%",
      "FS flow duration on 10.0.0.2->10.0.0.4 changed",
      "FS byte count on 10.0.0.3->10.0.0.5 changed 200%",
      "FS flow duration on 10.0.0.3->10.0.0.5 changed",
      "CI component interaction at 10.0.0.1 changed",
      "CI component interaction at 10.0.0.5 changed",
      "DD delay peak at 10.0.0.1->10.0.0.2->10.0.0.3 shifted 100ms",
      "DD delay peak at 10.0.0.4->10.0.0.5->10.0.0.1 shifted 40ms",
      "PC correlation at 10.0.0.1->10.0.0.2->10.0.0.3 changed",
      "PC correlation at 10.0.0.4->10.0.0.5->10.0.0.1 changed",
      "ISL inter-switch latency sw1->sw2 shifted 4.000000ms",
      "ISL inter-switch latency sw3->sw1 shifted 8.000000ms",
      "UTIL polled throughput at sw1 changed 10.000000 -> 30.000000 Mbps",
      "UTIL polled throughput at sw5 changed 20.000000 -> 4.000000 Mbps",
  };
  EXPECT_EQ(emitted, expected);
}

TEST(SignatureKindNames, AllNamed) {
  // Name, Fig. 8 slot (row or column, with its header) and whether a task
  // can explain the family, for every kind.
  struct Expected {
    SignatureKind kind;
    const char* name;
    int row;
    int col;
    const char* label;
    bool task_explainable;
  };
  const Expected expected[] = {
      {SignatureKind::kCg, "CG", 0, -1, "CG", true},
      {SignatureKind::kFs, "FS", 4, -1, "FS", true},
      {SignatureKind::kCi, "CI", 2, -1, "CI", true},
      {SignatureKind::kDd, "DD", 1, -1, "DD", false},
      {SignatureKind::kPc, "PC", 3, -1, "PC", false},
      {SignatureKind::kPt, "PT", -1, 0, "PT", true},
      {SignatureKind::kIsl, "ISL", -1, 1, "ISL", false},
      {SignatureKind::kCrt, "CRT", -1, 2, "CC", false},
      {SignatureKind::kUtil, "UTIL", -1, 1, "ISL", false},
  };
  ASSERT_EQ(std::size(expected), kSignatureKindCount);
  for (std::size_t i = 0; i < kSignatureKindCount; ++i) {
    const Expected& e = expected[i];
    ASSERT_EQ(static_cast<std::size_t>(e.kind), i);
    const SignatureFamily& family = signature_family(e.kind);
    EXPECT_STREQ(to_string(e.kind), e.name);
    EXPECT_STREQ(family.name, e.name);
    EXPECT_EQ(family.matrix_row, e.row) << e.name;
    EXPECT_EQ(family.matrix_col, e.col) << e.name;
    EXPECT_STREQ(family.matrix_label, e.label) << e.name;
    EXPECT_EQ(family.task_explainable, e.task_explainable) << e.name;
    EXPECT_GT(family.corruption_tolerance, 0.0) << e.name;
  }
}

}  // namespace
}  // namespace flowdiff::core
