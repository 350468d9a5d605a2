#include "flowdiff/diff.h"

#include <gtest/gtest.h>

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
  AppSignatureConfig config;
  config.min_edge_flows = 3;
  g.sig = extract_group_signatures(log, {kA, kB, kC, kX}, config);
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

TEST(SignatureKindNames, AllNamed) {
  EXPECT_STREQ(to_string(SignatureKind::kCg), "CG");
  EXPECT_STREQ(to_string(SignatureKind::kCrt), "CRT");
  EXPECT_TRUE(is_infra(SignatureKind::kPt));
  EXPECT_TRUE(is_infra(SignatureKind::kIsl));
  EXPECT_FALSE(is_infra(SignatureKind::kDd));
}

}  // namespace
}  // namespace flowdiff::core
