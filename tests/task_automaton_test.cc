// Online task detection: interleaving tolerance, the 1 s threshold,
// variable binding (masked automata), and Table III-style cross-VM
// generalization.
#include "flowdiff/task_automaton.h"

#include <gtest/gtest.h>

#include "flowdiff/task_mining.h"
#include "workload/tasks.h"

namespace flowdiff::core {
namespace {

wl::ServiceCatalog services() {
  wl::ServiceCatalog s;
  s.nfs = Ipv4(10, 0, 10, 1);
  s.dns = Ipv4(10, 0, 10, 2);
  s.dhcp = Ipv4(10, 0, 10, 3);
  s.ntp = Ipv4(10, 0, 10, 4);
  s.netbios = Ipv4(10, 0, 10, 5);
  s.metadata = Ipv4(10, 0, 10, 6);
  s.apt_mirror = Ipv4(10, 0, 10, 7);
  return s;
}

std::set<Ipv4> service_set() {
  const auto s = services();
  const auto v = s.special_nodes();
  return {v.begin(), v.end()};
}

const Ipv4 kVmA(10, 0, 1, 1);
const Ipv4 kVmB(10, 0, 2, 1);
const Ipv4 kVmC(10, 0, 3, 1);
const Ipv4 kVmD(10, 0, 4, 1);

TaskAutomaton learn_migration(bool masked, int runs_count = 12,
                              std::uint64_t seed = 21) {
  Rng rng(seed);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < runs_count; ++i) {
    runs.push_back(wl::expand_task(wl::vm_migration_profile(), {kVmA, kVmB},
                                   services(), rng, 0)
                       .flows);
  }
  MiningConfig config;
  config.mask_subjects = masked;
  config.service_ips = service_set();
  return mine_task("vm_migration", runs, config).automaton;
}

DetectorConfig detector_config() {
  DetectorConfig c;
  c.service_ips = service_set();
  return c;
}

TEST(TaskDetector, DetectsFreshRunOfLearnedTask) {
  const auto automaton = learn_migration(false);
  Rng rng(99);
  const auto fresh = wl::expand_task(wl::vm_migration_profile(),
                                     {kVmA, kVmB}, services(), rng,
                                     5 * kSecond);
  const auto occurrences = 
      detect_tasks({automaton}, detector_config(), fresh.flows);
  ASSERT_FALSE(occurrences.empty());
  EXPECT_EQ(occurrences[0].task, "vm_migration");
  EXPECT_GE(occurrences[0].begin, 5 * kSecond);
  EXPECT_LE(occurrences[0].begin, occurrences[0].end);
}

TEST(TaskDetector, OccurrenceRecordsInvolvedHosts) {
  const auto automaton = learn_migration(false);
  Rng rng(99);
  const auto fresh = wl::expand_task(wl::vm_migration_profile(),
                                     {kVmA, kVmB}, services(), rng, 0);
  const auto occurrences = 
      detect_tasks({automaton}, detector_config(), fresh.flows);
  ASSERT_FALSE(occurrences.empty());
  const auto& involved = occurrences[0].involved;
  EXPECT_NE(std::find(involved.begin(), involved.end(), kVmA),
            involved.end());
  EXPECT_NE(std::find(involved.begin(), involved.end(), kVmB),
            involved.end());
}

TEST(TaskDetector, ToleratesInterleavedNoise) {
  const auto automaton = learn_migration(false);
  Rng rng(99);
  auto fresh = wl::expand_task(wl::vm_migration_profile(), {kVmA, kVmB},
                               services(), rng, kSecond);
  // Mix in unrelated flows between other hosts within the same window.
  const auto noise = wl::background_noise({kVmC, kVmD}, 60, kSecond,
                                          fresh.end + kSecond, rng);
  const auto mixed = wl::merge_sequences({fresh.flows, noise});
  EXPECT_FALSE(detect_tasks({automaton}, detector_config(), mixed).empty());
}

TEST(TaskDetector, KillsMatcherAfterInterleaveThreshold) {
  const auto automaton = learn_migration(false);
  Rng rng(99);
  auto fresh = wl::expand_task(wl::vm_migration_profile(), {kVmA, kVmB},
                               services(), rng, 0);
  // Stretch the gap between consecutive task flows far past 1 s.
  of::FlowSequence stretched = fresh.flows;
  for (std::size_t i = 0; i < stretched.size(); ++i) {
    stretched[i].ts = static_cast<SimTime>(i) * 3 * kSecond;
  }
  EXPECT_TRUE(detect_tasks({automaton}, detector_config(), stretched).empty());
}

TEST(TaskDetector, InterleaveThresholdIsConfigurable) {
  const auto automaton = learn_migration(false);
  Rng rng(99);
  auto fresh = wl::expand_task(wl::vm_migration_profile(), {kVmA, kVmB},
                               services(), rng, 0);
  of::FlowSequence stretched = fresh.flows;
  for (std::size_t i = 0; i < stretched.size(); ++i) {
    stretched[i].ts = static_cast<SimTime>(i) * 3 * kSecond;
  }
  DetectorConfig generous = detector_config();
  generous.interleave_threshold = 10 * kSecond;
  EXPECT_FALSE(detect_tasks({automaton}, generous, stretched).empty());
}

TEST(TaskDetector, UnmaskedAutomatonDoesNotMatchOtherVms) {
  // Paper Table III: without masking there are no cross-VM matches.
  const auto automaton = learn_migration(false);
  Rng rng(7);
  const auto other = wl::expand_task(wl::vm_migration_profile(),
                                     {kVmC, kVmD}, services(), rng, 0);
  EXPECT_TRUE(
      detect_tasks({automaton}, detector_config(), other.flows).empty());
}

TEST(TaskDetector, MaskedAutomatonGeneralizesAcrossVms) {
  const auto automaton = learn_migration(true);
  Rng rng(7);
  const auto other = wl::expand_task(wl::vm_migration_profile(),
                                     {kVmC, kVmD}, services(), rng, 0);
  const auto occurrences = 
      detect_tasks({automaton}, detector_config(), other.flows);
  ASSERT_FALSE(occurrences.empty());
  const auto& involved = occurrences[0].involved;
  EXPECT_NE(std::find(involved.begin(), involved.end(), kVmC),
            involved.end());
}

TEST(TaskDetector, VariableBindingIsConsistent) {
  // A masked automaton must not accept a "run" whose subject changes
  // mid-task: #1 bound to VM C cannot later be VM D.
  const auto automaton = learn_migration(true);
  Rng rng(7);
  auto run = wl::expand_task(wl::vm_migration_profile(), {kVmC, kVmD},
                             services(), rng, 0);
  // Corrupt: replace the source of every NFS-bound flow after the first
  // with a different host.
  bool first = true;
  for (auto& tf : run.flows) {
    if (tf.key.dst_ip == services().nfs && tf.key.src_ip == kVmC) {
      if (!first) tf.key.src_ip = Ipv4(10, 0, 9, 9);
      first = false;
    }
  }
  EXPECT_TRUE(detect_tasks({automaton}, detector_config(), run.flows).empty());
}

TEST(TaskDetector, MultipleAutomataIndependent) {
  const auto migration = learn_migration(true);
  Rng rng(31);
  // Learn mount_nfs with masking too.
  std::vector<of::FlowSequence> mount_runs;
  for (int i = 0; i < 10; ++i) {
    mount_runs.push_back(wl::expand_task(wl::mount_nfs_profile(), {kVmA},
                                         services(), rng, 0)
                             .flows);
  }
  MiningConfig config;
  config.mask_subjects = true;
  config.service_ips = service_set();
  const auto mount = mine_task("mount_nfs", mount_runs, config).automaton;

  Rng rng2(55);
  const auto mig_run = wl::expand_task(wl::vm_migration_profile(),
                                       {kVmC, kVmD}, services(), rng2, 0);
  const auto mount_run = wl::expand_task(
      wl::mount_nfs_profile(), {kVmC}, services(), rng2,
      mig_run.end + 5 * kSecond);
  const auto merged = wl::merge_sequences({mig_run.flows, mount_run.flows});
  const auto occurrences = 
      detect_tasks({migration, mount}, detector_config(), merged);
  std::set<std::string> names;
  for (const auto& o : occurrences) names.insert(o.task);
  EXPECT_TRUE(names.contains("vm_migration"));
  EXPECT_TRUE(names.contains("mount_nfs"));
}

TEST(TaskDetector, DuplicateDetectionsAreCollapsed) {
  const auto automaton = learn_migration(false);
  Rng rng(99);
  const auto fresh = wl::expand_task(wl::vm_migration_profile(),
                                     {kVmA, kVmB}, services(), rng, 0);
  const auto occurrences = 
      detect_tasks({automaton}, detector_config(), fresh.flows);
  // One physical run: at most a couple of (non-identical) detections, not
  // one per spawned matcher.
  EXPECT_LE(occurrences.size(), 2u);
}

TEST(TaskDetector, TokenlessStateNeverMatches) {
  // Built directly (parse rejects it): state 1 is reachable but empty. The
  // detector must neither read past its tokens nor accept through it.
  TaskAutomaton automaton;
  automaton.name = "hollow";
  FlowToken mount;
  mount.src.kind = TokenEndpoint::Kind::kVariable;
  mount.src.port_any = true;
  mount.dst.ip = services().nfs;
  mount.dst.port = 2049;
  automaton.states = {{mount}, {}};
  automaton.transitions = {{1}, {}};
  automaton.start_states = {0, 1};
  automaton.accept_states = {1};
  of::FlowSequence flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back({i * 10 * kMillisecond,
                     of::FlowKey{kVmA, services().nfs, 40000, 2049,
                                 of::Proto::kTcp}});
  }
  EXPECT_TRUE(detect_tasks({automaton}, detector_config(), flows).empty());
}

TEST(TaskAutomaton, SerializeParseRoundTrip) {
  for (const bool masked : {false, true}) {
    const auto original = learn_migration(masked);
    const auto parsed = TaskAutomaton::parse(original.serialize());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, original);
    // A reparsed automaton detects exactly like the original.
    Rng rng(123);
    const auto run = wl::expand_task(
        wl::vm_migration_profile(),
        masked ? std::vector<Ipv4>{kVmC, kVmD}
               : std::vector<Ipv4>{kVmA, kVmB},
        services(), rng, 0);
    EXPECT_EQ(detect_tasks({original}, detector_config(), run.flows).size(),
              detect_tasks({*parsed}, detector_config(), run.flows).size());
  }
}

TEST(TaskAutomaton, ParseRejectsMalformed) {
  EXPECT_FALSE(TaskAutomaton::parse("").has_value());
  EXPECT_FALSE(TaskAutomaton::parse("STATE 0\n").has_value());  // No TASK.
  EXPECT_FALSE(
      TaskAutomaton::parse("TASK x\nSTATE 5\n").has_value());  // Bad index.
  EXPECT_FALSE(TaskAutomaton::parse("TASK x\nTOKEN #0 * 1.2.3.4 80 6\n")
                   .has_value());  // Token before any state.
  EXPECT_FALSE(TaskAutomaton::parse("TASK x\nSTATE 0\nTRANS 7\n")
                   .has_value());  // Dangling transition.
  EXPECT_FALSE(TaskAutomaton::parse("TASK x\nGARBAGE\n").has_value());
  // Variable indices and ports are whole decimals in range: no exception,
  // no silent wrap of a port past 65535.
  const auto token = [](const std::string& src, const std::string& port) {
    return "TASK x\nSTATE 0 start accept\nTOKEN " + src + " * 10.0.10.1 " +
           port + " 6\nTRANS\n";
  };
  ASSERT_TRUE(TaskAutomaton::parse(token("#0", "80")).has_value());
  ASSERT_TRUE(TaskAutomaton::parse(token("#3", "65535")).has_value());
  for (const char* var : {"#x", "#", "#-1", "#1a", "#99999999999"}) {
    EXPECT_FALSE(TaskAutomaton::parse(token(var, "80")).has_value()) << var;
  }
  for (const char* port : {"http", "70000", "65536", "-1", "80x", "+80"}) {
    EXPECT_FALSE(TaskAutomaton::parse(token("#0", port)).has_value())
        << port;
  }
  // Every field is checked: successors are whole decimals, state flags are
  // `start` or `accept`, the protocol is ICMP, TCP or UDP, and a line ends
  // after its last field.
  const auto two_states = [](const std::string& state0,
                             const std::string& token1,
                             const std::string& trans0) {
    return "TASK x\nSTATE 0 " + state0 + "\nTOKEN #0 * 10.0.10.1 2049 6\n" +
           "TRANS " + trans0 + "\nSTATE 1 accept\nTOKEN " + token1 +
           "\nTRANS\n";
  };
  const std::string ok_token = "#0 * 10.0.10.1 111 6";
  ASSERT_TRUE(
      TaskAutomaton::parse(two_states("start", ok_token, "1")).has_value());
  ASSERT_TRUE(
      TaskAutomaton::parse(two_states("start", ok_token, "0 1")).has_value());
  for (const char* trans : {"1 x 0", "1x", "x", "-1", "+1", "1 0 ?"}) {
    EXPECT_FALSE(
        TaskAutomaton::parse(two_states("start", ok_token, trans)).has_value())
        << "TRANS " << trans;
  }
  for (const char* flags : {"start strat", "strat", "start accept extra",
                            "begin", "0"}) {
    EXPECT_FALSE(
        TaskAutomaton::parse(two_states(flags, ok_token, "1")).has_value())
        << "STATE 0 " << flags;
  }
  for (const char* proto : {"1", "17"}) {
    EXPECT_TRUE(TaskAutomaton::parse(two_states(
                    "start", std::string("#0 * 10.0.10.1 111 ") + proto, "1"))
                    .has_value())
        << proto;
  }
  for (const char* proto : {"99", "0", "256", "-6", "tcp", "6 extra", "6 7"}) {
    EXPECT_FALSE(TaskAutomaton::parse(two_states(
                     "start", std::string("#0 * 10.0.10.1 111 ") + proto, "1"))
                     .has_value())
        << "TOKEN proto " << proto;
  }
  EXPECT_FALSE(
      TaskAutomaton::parse("TASK x\nSTATE 0x start accept\n"
                           "TOKEN #0 * 10.0.10.1 111 6\nTRANS\n")
          .has_value());
}

TEST(TaskAutomaton, ParseRejectsTokenlessStates) {
  // A state without tokens could be entered but never matched; the miner
  // never emits one.
  const std::string head =
      "TASK x\nSTATE 0 start\nTOKEN #0 * 10.0.10.1 2049 6\nTRANS 1\n"
      "STATE 1 accept\n";
  EXPECT_FALSE(TaskAutomaton::parse(head + "TRANS\n").has_value());
  EXPECT_TRUE(
      TaskAutomaton::parse(head + "TOKEN #0 * 10.0.10.1 111 6\nTRANS\n")
          .has_value());
  EXPECT_FALSE(TaskAutomaton::parse("TASK x\nSTATE 0 start accept\nTRANS\n")
                   .has_value());
}

TEST(TaskAutomaton, ParseToleratesCommentsAndBlankLines) {
  const auto original = learn_migration(true);
  const std::string text =
      "# learned automaton\n\n" + original.serialize() + "\n# end\n";
  const auto parsed = TaskAutomaton::parse(text);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, original);
}

TEST(TaskAutomaton, ToStringListsStates) {
  const auto automaton = learn_migration(true);
  const std::string s = automaton.to_string();
  EXPECT_NE(s.find("[start]"), std::string::npos);
  EXPECT_NE(s.find("[accept]"), std::string::npos);
  EXPECT_NE(s.find("#1"), std::string::npos);
}

}  // namespace
}  // namespace flowdiff::core
