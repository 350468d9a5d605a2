#include "flowdiff/diagnosis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "flowdiff/diff.h"

namespace flowdiff::core {
namespace {

Change change_of(SignatureKind kind, std::string component = "c") {
  Change c;
  c.kind = kind;
  c.description = "x";
  ComponentRef ref;
  ref.label = std::move(component);
  c.components = {ref};
  return c;
}

TEST(DependencyMatrix, CongestionPattern) {
  // Fig. 8(a): DD/PC/FS rows x ISL column are 1.
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kDd), change_of(SignatureKind::kPc),
       change_of(SignatureKind::kFs), change_of(SignatureKind::kIsl)});
  // Rows: CG(0) DD(1) CI(2) PC(3) FS(4); cols: PT(0) ISL(1) CC(2).
  EXPECT_FALSE(matrix.cells[0][1]);
  EXPECT_TRUE(matrix.cells[1][1]);
  EXPECT_TRUE(matrix.cells[3][1]);
  EXPECT_TRUE(matrix.cells[4][1]);
  EXPECT_FALSE(matrix.cells[1][0]);
  EXPECT_FALSE(matrix.cells[1][2]);
}

TEST(DependencyMatrix, SwitchFailurePattern) {
  // Fig. 8(b): CG x PT only.
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kCg), change_of(SignatureKind::kPt)});
  EXPECT_TRUE(matrix.cells[0][0]);
  for (int r = 1; r < 5; ++r) {
    for (int c = 0; c < 3; ++c) {
      EXPECT_FALSE(matrix.cells[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(c)]);
    }
  }
}

TEST(DependencyMatrix, RenderShowsGrid) {
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kCg), change_of(SignatureKind::kPt)});
  const std::string s = matrix.render();
  EXPECT_NE(s.find("PT"), std::string::npos);
  EXPECT_NE(s.find("CG"), std::string::npos);
  EXPECT_NE(s.find("1"), std::string::npos);
}

TEST(Classify, CongestionRanksNetworkBottleneckFirst) {
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kDd), change_of(SignatureKind::kPc),
       change_of(SignatureKind::kFs), change_of(SignatureKind::kIsl)});
  const auto ranked = classify(matrix);
  ASSERT_FALSE(ranked.empty());
  // Network bottleneck and switch overhead share the profile; both must
  // top the ranking with a perfect score.
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
  EXPECT_TRUE(ranked[0].cls == ProblemClass::kNetworkBottleneck ||
              ranked[0].cls == ProblemClass::kSwitchOverhead);
}

TEST(Classify, HostPerformanceFromDdPcFs) {
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kDd), change_of(SignatureKind::kPc),
       change_of(SignatureKind::kFs)});
  const auto ranked = classify(matrix);
  ASSERT_FALSE(ranked.empty());
  EXPECT_TRUE(ranked[0].cls == ProblemClass::kHostPerformance ||
              ranked[0].cls == ProblemClass::kAppPerformance);
  EXPECT_DOUBLE_EQ(ranked[0].score, 1.0);
}

TEST(Classify, UnauthorizedAccessPattern) {
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kCg), change_of(SignatureKind::kCi),
       change_of(SignatureKind::kFs)});
  const auto ranked = classify(matrix);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].cls, ProblemClass::kUnauthorizedAccess);
}

TEST(Classify, ControllerOverheadIncludesCrt) {
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kDd), change_of(SignatureKind::kPc),
       change_of(SignatureKind::kFs), change_of(SignatureKind::kCrt)});
  const auto ranked = classify(matrix);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].cls, ProblemClass::kControllerOverhead);
}

TEST(Classify, EmptyMatrixGivesNothing) {
  EXPECT_TRUE(classify(build_dependency_matrix({})).empty());
}

TEST(Classify, ScoresAreSortedDescending) {
  const auto matrix = build_dependency_matrix(
      {change_of(SignatureKind::kCg), change_of(SignatureKind::kPt),
       change_of(SignatureKind::kFs)});
  const auto ranked = classify(matrix);
  for (std::size_t i = 1; i < ranked.size(); ++i) {
    EXPECT_GE(ranked[i - 1].score, ranked[i].score);
  }
}

TEST(RankComponents, CountsAcrossChanges) {
  Change c1 = change_of(SignatureKind::kCg, "edgeAB");
  c1.components[0].ips = {Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2)};
  Change c2 = change_of(SignatureKind::kDd, "pairABC");
  c2.components[0].ips = {Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                          Ipv4(10, 0, 0, 3)};
  Change c3 = change_of(SignatureKind::kFs, "edgeAB2");
  c3.components[0].ips = {Ipv4(10, 0, 0, 2), Ipv4(10, 0, 0, 3)};
  const auto ranked = rank_components({c1, c2, c3});
  ASSERT_FALSE(ranked.empty());
  // 10.0.0.2 appears in all three changes: it tops the ranking.
  EXPECT_EQ(ranked[0].first, "10.0.0.2");
  EXPECT_EQ(ranked[0].second, 3);
}

TEST(ProblemProfiles, EveryClassHasAProfileAndName) {
  for (const ProblemClass cls : all_problem_classes()) {
    EXPECT_TRUE(problem_profiles().contains(cls));
    EXPECT_FALSE(problem_profiles().at(cls).empty());
    EXPECT_STRNE(to_string(cls), "?");
  }
  // Fig. 2(b)'s twelve plus the three adversarial families.
  EXPECT_EQ(all_problem_classes().size(), 15u);
}

TEST(ProblemProfiles, NamesAreUnique) {
  std::set<std::string> names;
  for (const ProblemClass cls : all_problem_classes()) {
    EXPECT_TRUE(names.insert(to_string(cls)).second)
        << "duplicate class name: " << to_string(cls);
  }
}

/// An added CG edge between two concrete endpoints, as the differ emits
/// for new connectivity (the refinement rules key fan-in off these).
Change added_edge(std::uint8_t src_last, std::uint8_t dst_last) {
  Change c = change_of(SignatureKind::kCg);
  c.direction = ChangeDirection::kAdded;
  c.components[0].ips = {Ipv4(10, 0, 0, src_last), Ipv4(10, 0, 9, dst_last)};
  return c;
}

TEST(Classify, FingerprintingFromPureCrtShift) {
  // A timing-probe attack leaves the application rows untouched: CRT moves
  // alone, and fingerprinting must outrank the controller classes.
  const std::vector<Change> unknown = {change_of(SignatureKind::kCrt)};
  const auto ranked = classify(build_dependency_matrix(unknown), unknown);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].cls, ProblemClass::kFingerprinting);
}

TEST(Classify, FloodNeedsFanInAndCrt) {
  // Many sources converging on one victim plus a controller queueing shift
  // is the flood fingerprint; the same signature kinds from a single added
  // edge stay unauthorized access.
  std::vector<Change> flood = {added_edge(1, 7), added_edge(2, 7),
                               added_edge(3, 7), added_edge(4, 7),
                               added_edge(5, 7), change_of(SignatureKind::kCi),
                               change_of(SignatureKind::kFs),
                               change_of(SignatureKind::kCrt)};
  auto ranked = classify(build_dependency_matrix(flood), flood);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].cls, ProblemClass::kVolumetricFlood);

  std::vector<Change> lone = {added_edge(1, 7), change_of(SignatureKind::kCi),
                              change_of(SignatureKind::kFs)};
  ranked = classify(build_dependency_matrix(lone), lone);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].cls, ProblemClass::kUnauthorizedAccess);
}

TEST(Classify, IncastNeedsFanInAndDelayShift) {
  std::vector<Change> incast = {
      added_edge(1, 7),  added_edge(2, 7),
      added_edge(3, 7),  added_edge(4, 7),
      added_edge(5, 7),  change_of(SignatureKind::kCi),
      change_of(SignatureKind::kFs), change_of(SignatureKind::kDd),
      change_of(SignatureKind::kIsl)};
  const auto ranked = classify(build_dependency_matrix(incast), incast);
  ASSERT_FALSE(ranked.empty());
  EXPECT_EQ(ranked[0].cls, ProblemClass::kIncast);
}

TEST(Classify, SlowdownWithoutFanInStaysNonAdversarial) {
  // A plain server slowdown (DD/PC/FS, nothing added) must not surface any
  // adversarial class near the top of the ranking.
  const std::vector<Change> unknown = {change_of(SignatureKind::kDd),
                                       change_of(SignatureKind::kPc),
                                       change_of(SignatureKind::kFs)};
  const auto ranked = classify(build_dependency_matrix(unknown), unknown);
  ASSERT_FALSE(ranked.empty());
  EXPECT_TRUE(ranked[0].cls == ProblemClass::kHostPerformance ||
              ranked[0].cls == ProblemClass::kAppPerformance);
  for (const auto& score : ranked) {
    if (score.cls == ProblemClass::kFingerprinting ||
        score.cls == ProblemClass::kVolumetricFlood ||
        score.cls == ProblemClass::kIncast) {
      EXPECT_LT(score.score, ranked[0].score / 2.0)
          << "adversarial class scored too close to the benign diagnosis";
    }
  }
}

TEST(DdMean, NothingDownstreamDependsOnMeanMs) {
  // DelayDistributionSig::mean_ms is informational only: its doc long
  // claimed a (biased) bin-origin weighting while the code always used bin
  // midpoints. Pin here that the ambiguity never mattered — perturbing
  // mean_ms arbitrarily in both models changes not a single byte of the
  // diff, the dependency matrix, or the ranked diagnosis, so no consumer
  // ever depended on the value (biased or not).
  auto chain_model = [](SimDuration proc) {
    const Ipv4 a(10, 0, 0, 1), b(10, 0, 0, 2), c(10, 0, 0, 3);
    ParsedLog log;
    log.begin = 0;
    for (int i = 0; i < 40; ++i) {
      const auto sport = static_cast<std::uint16_t>(40000 + i);
      FlowOccurrence in;
      in.key = of::FlowKey{a, b, sport, 80, of::Proto::kTcp};
      in.first_ts = i * kSecond;
      FlowOccurrence out;
      out.key = of::FlowKey{b, c, sport, 80, of::Proto::kTcp};
      out.first_ts = i * kSecond + proc;
      log.occurrences.push_back(in);
      log.occurrences.push_back(out);
    }
    std::sort(log.occurrences.begin(), log.occurrences.end(),
              [](const FlowOccurrence& x, const FlowOccurrence& y) {
                return x.first_ts < y.first_ts;
              });
    log.end = 40 * kSecond + proc;
    BehaviorModel m;
    m.begin = log.begin;
    m.end = log.end;
    GroupModel g;
    AppSignatureConfig config;
    config.min_edge_flows = 3;
    g.sig = extract_group_signatures(log, {a, b, c}, config);
    m.groups.push_back(std::move(g));
    m.infra = extract_infra_signatures(log);
    return m;
  };
  auto outputs = [](const BehaviorModel& base, const BehaviorModel& cur) {
    const auto changes = diff_models(base, cur);
    std::string out = build_dependency_matrix(changes).render();
    for (const auto& c : changes) {
      out += to_string(c.kind) + std::string("|") + c.description + "|" +
             std::to_string(c.magnitude) + "\n";
    }
    for (const auto& score : classify(build_dependency_matrix(changes))) {
      out += to_string(score.cls) + std::string("=") +
             std::to_string(score.score) + "\n";
    }
    return out;
  };
  BehaviorModel base = chain_model(50 * kMillisecond);
  BehaviorModel cur = chain_model(130 * kMillisecond);  // DD peak shift.
  ASSERT_FALSE(base.groups[0].sig.dd.per_pair.empty());
  const std::string before = outputs(base, cur);
  EXPECT_NE(before.find("DD"), std::string::npos);
  for (auto* model : {&base, &cur}) {
    for (auto& group : model->groups) {
      for (auto& [pair, dd] : group.sig.dd.per_pair) {
        dd.mean_ms = dd.mean_ms * -417.0 + 1e9;  // Garbage the value.
      }
    }
  }
  EXPECT_EQ(outputs(base, cur), before)
      << "a diff/diagnosis consumer reads DelayDistributionSig::mean_ms";
}

}  // namespace
}  // namespace flowdiff::core
