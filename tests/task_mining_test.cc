#include "flowdiff/task_mining.h"

#include <gtest/gtest.h>

#include "workload/tasks.h"

namespace flowdiff::core {
namespace {

/// Distinct opaque tokens f1..fN for the pattern-mining stage tests.
FlowToken f(int i) {
  FlowToken t;
  t.src.kind = TokenEndpoint::Kind::kLiteral;
  t.src.ip = Ipv4(10, 0, 0, static_cast<std::uint8_t>(i));
  t.src.port = 1000;
  t.dst.kind = TokenEndpoint::Kind::kLiteral;
  t.dst.ip = Ipv4(10, 0, 1, static_cast<std::uint8_t>(i));
  t.dst.port = 80;
  return t;
}

std::vector<FlowToken> seq(std::initializer_list<int> ids) {
  std::vector<FlowToken> out;
  for (int i : ids) out.push_back(f(i));
  return out;
}

/// The paper's running example (SectionIII-D / Fig. 6):
/// T1' = f1 f2 f3 f4 f5, T2' = f3 f4 f5 f1, T3' = f3 f4 f5 f2 f1.
std::vector<std::vector<FlowToken>> paper_runs() {
  return {seq({1, 2, 3, 4, 5}), seq({3, 4, 5, 1}), seq({3, 4, 5, 2, 1})};
}

int support_of(const std::vector<PatternWithSupport>& patterns,
               const std::vector<FlowToken>& p) {
  for (const auto& ps : patterns) {
    if (ps.tokens == p) return ps.support;
  }
  return -1;
}

TEST(CommonTokens, IntersectionAcrossRuns) {
  const auto common = common_tokens(paper_runs());
  // f2 is absent from T2', so S(T) = {f1, f3, f4, f5}.
  EXPECT_EQ(common.size(), 4u);
  const std::set<FlowToken> set(common.begin(), common.end());
  EXPECT_TRUE(set.contains(f(1)));
  EXPECT_FALSE(set.contains(f(2)));
}

TEST(FrequentPatterns, MatchesPaperExample) {
  const auto patterns =
      frequent_contiguous_patterns(paper_runs(), 0.6);
  // Threshold = 0.6 * 3 = 1.8 -> support >= 2.
  EXPECT_EQ(support_of(patterns, seq({1})), 3);
  EXPECT_EQ(support_of(patterns, seq({2})), 2);
  EXPECT_EQ(support_of(patterns, seq({3, 4})), 3);
  EXPECT_EQ(support_of(patterns, seq({4, 5})), 3);
  EXPECT_EQ(support_of(patterns, seq({3, 4, 5})), 3);
  // Below threshold (marked 'X' in Fig. 6a): not frequent.
  EXPECT_EQ(support_of(patterns, seq({1, 2})), -1);
  EXPECT_EQ(support_of(patterns, seq({2, 1})), -1);
  EXPECT_EQ(support_of(patterns, seq({5, 1})), -1);
  // Nothing longer than 3 is frequent.
  for (const auto& p : patterns) EXPECT_LE(p.tokens.size(), 3u);
}

TEST(ClosedPrune, SubsumedEqualSupportPatternsRemoved) {
  auto patterns = frequent_contiguous_patterns(paper_runs(), 0.6);
  const auto closed = closed_prune(patterns);
  // f3, f4, f5, f3f4, f4f5 all have support 3 and are substrings of
  // f3f4f5 (support 3): pruned. f1 (3), f2 (2), f3f4f5 (3) remain.
  EXPECT_EQ(closed.size(), 3u);
  EXPECT_EQ(support_of(closed, seq({1})), 3);
  EXPECT_EQ(support_of(closed, seq({2})), 2);
  EXPECT_EQ(support_of(closed, seq({3, 4, 5})), 3);
  EXPECT_EQ(support_of(closed, seq({3, 4})), -1);
}

TEST(ClosedPrune, KeepsShorterPatternWithHigherSupport) {
  // f9 f9 in half the runs but f9 in all: f9 must survive pruning.
  const std::vector<std::vector<FlowToken>> runs = {
      seq({9, 9}), seq({9, 9}), seq({9, 8}), seq({9, 8})};
  const auto closed = closed_prune(frequent_contiguous_patterns(runs, 0.5));
  EXPECT_EQ(support_of(closed, seq({9})), 4);
  EXPECT_EQ(support_of(closed, seq({9, 9})), 2);
}

TEST(BuildAutomaton, PaperExampleStructure) {
  const auto runs = paper_runs();
  const auto patterns =
      closed_prune(frequent_contiguous_patterns(runs, 0.6));
  const TaskAutomaton automaton = build_automaton("paper", runs, patterns);

  // Fig. 6(b): three states — f1, f2, f3f4f5.
  EXPECT_EQ(automaton.state_count(), 3u);
  // All training logs are accepted exactly.
  for (const auto& run : runs) {
    EXPECT_TRUE(automaton.accepts(run));
  }
  // Sequences outside the training structure are rejected.
  EXPECT_FALSE(automaton.accepts(seq({2, 1})));          // f2 not a start.
  EXPECT_FALSE(automaton.accepts(seq({1, 2})));          // f2 not an accept.
  EXPECT_FALSE(automaton.accepts(seq({3, 4})));          // Partial state.
  EXPECT_FALSE(automaton.accepts(seq({3, 4, 5, 2})));    // f2 not an accept.
  EXPECT_FALSE(automaton.accepts({}));
}

TEST(BuildAutomaton, SegmentationPrefersLongerStates) {
  const auto runs = paper_runs();
  const auto patterns =
      closed_prune(frequent_contiguous_patterns(runs, 0.6));
  const TaskAutomaton automaton = build_automaton("paper", runs, patterns);
  bool has_long_state = false;
  for (const auto& s : automaton.states) {
    if (s.size() == 3) has_long_state = true;
    EXPECT_NE(s.size(), 2u);  // f3f4 / f4f5 were pruned and never needed.
  }
  EXPECT_TRUE(has_long_state);
}

TEST(MineTask, EndToEndOnVmMigrationRuns) {
  // Learn from simulated runs of the Fig. 4 migration task; the mined
  // automaton must accept a fresh run of the same task.
  wl::ServiceCatalog services;
  services.nfs = Ipv4(10, 0, 10, 1);
  services.dns = Ipv4(10, 0, 10, 2);
  services.dhcp = Ipv4(10, 0, 10, 3);
  services.ntp = Ipv4(10, 0, 10, 4);
  services.netbios = Ipv4(10, 0, 10, 5);
  services.metadata = Ipv4(10, 0, 10, 6);
  services.apt_mirror = Ipv4(10, 0, 10, 7);
  const Ipv4 vm_a(10, 0, 1, 1);
  const Ipv4 vm_b(10, 0, 2, 1);

  Rng rng(17);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < 12; ++i) {
    runs.push_back(wl::expand_task(wl::vm_migration_profile(), {vm_a, vm_b},
                                   services, rng, 0)
                       .flows);
  }

  MiningConfig config;
  config.mask_subjects = true;
  config.service_ips = {services.nfs};
  const MinedTask mined = mine_task("vm_migration", runs, config);

  EXPECT_FALSE(mined.common_flows.empty());
  EXPECT_FALSE(mined.automaton.empty());
  EXPECT_FALSE(mined.automaton.start_states.empty());
  EXPECT_FALSE(mined.automaton.accept_states.empty());
  // The automaton accepts every filtered training run (paper's property).
  for (const auto& filtered : mined.filtered_runs) {
    EXPECT_TRUE(mined.automaton.accepts(filtered));
  }
}

// min_sup sweep: lowering the threshold admits more (longer) patterns but
// never breaks the accept-all-training-runs property; min_sup = 1.0 keeps
// only patterns present in every run.
class MinSupSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(MinSupSweepTest, AutomatonAlwaysAcceptsTraining) {
  wl::ServiceCatalog services;
  services.nfs = Ipv4(10, 0, 10, 1);
  services.dns = Ipv4(10, 0, 10, 2);
  services.dhcp = Ipv4(10, 0, 10, 3);
  services.ntp = Ipv4(10, 0, 10, 4);
  services.netbios = Ipv4(10, 0, 10, 5);
  services.metadata = Ipv4(10, 0, 10, 6);
  services.apt_mirror = Ipv4(10, 0, 10, 7);
  Rng rng(19);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < 10; ++i) {
    runs.push_back(wl::expand_task(wl::vm_migration_profile(),
                                   {Ipv4(10, 0, 1, 1), Ipv4(10, 0, 2, 1)},
                                   services, rng, 0)
                       .flows);
  }
  MiningConfig config;
  config.min_sup = GetParam();
  config.mask_subjects = true;
  const auto specials = services.special_nodes();
  config.service_ips = {specials.begin(), specials.end()};
  const MinedTask mined = mine_task("migration", runs, config);
  ASSERT_FALSE(mined.automaton.empty());
  for (const auto& filtered : mined.filtered_runs) {
    EXPECT_TRUE(mined.automaton.accepts(filtered))
        << "min_sup=" << GetParam();
  }
  // Every pattern's support respects the threshold.
  for (const auto& p : mined.patterns) {
    EXPECT_GE(p.support, static_cast<int>(GetParam() * 10) - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Thresholds, MinSupSweepTest,
                         ::testing::Values(0.2, 0.4, 0.6, 0.8, 1.0));

TEST(MineTask, EmptyInput) {
  const MinedTask mined = mine_task("nothing", {}, MiningConfig{});
  EXPECT_TRUE(mined.common_flows.empty());
  EXPECT_TRUE(mined.automaton.empty());
}

}  // namespace
}  // namespace flowdiff::core
