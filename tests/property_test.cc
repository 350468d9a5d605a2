// Parameterized property sweeps across the core invariants:
//  * inferred topology == ground truth on random topologies;
//  * mined automata accept every training run, across task/seed sweeps;
//  * closed pattern sets are minimal and support-consistent;
//  * a clean diff of a log against itself is empty for every Table II case.
#include <gtest/gtest.h>

#include <cstdint>
#include <type_traits>

#include "controller/controller.h"
#include "flowdiff/flowdiff.h"
#include "ingest/sanitizer.h"
#include "openflow/log_io.h"
#include "workload/app.h"
#include "workload/scenario.h"
#include "workload/tasks.h"

namespace flowdiff::core {
namespace {

// ---------------------------------------------------------------------------
// Topology inference property.

class TopologyInferenceTest : public ::testing::TestWithParam<int> {};

TEST_P(TopologyInferenceTest, InferredEdgesAreRealAdjacencies) {
  // Random tree of switches with hosts at the leaves: every inferred
  // switch-switch edge must be a physical adjacency, and every host must
  // attach to its real switch.
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  sim::Topology topo;
  const int n_switches = 3 + GetParam() % 5;
  std::vector<SwitchId> switches;
  for (int i = 0; i < n_switches; ++i) {
    switches.push_back(topo.add_of_switch("sw" + std::to_string(i)));
    if (i > 0) {
      const auto parent = static_cast<std::size_t>(
          rng.uniform_int(0, i - 1));
      topo.connect(switches.back().value, switches[parent].value);
    }
  }
  std::vector<HostId> hosts;
  std::vector<SwitchId> attach;
  for (int i = 0; i < 6; ++i) {
    hosts.push_back(topo.add_host(
        "h" + std::to_string(i),
        Ipv4(10, 0, 0, static_cast<std::uint8_t>(i + 1))));
    const auto sw = switches[static_cast<std::size_t>(
        rng.uniform_int(0, n_switches - 1))];
    attach.push_back(sw);
    topo.connect(hosts.back().value, sw.value);
  }

  sim::Network net(topo, sim::NetworkConfig{});
  ctrl::Controller controller(net, ControllerId{0}, ctrl::ControllerConfig{});
  net.set_controller(&controller);
  // All-pairs probe flows.
  std::uint16_t sport = 40000;
  for (const HostId a : hosts) {
    for (const HostId b : hosts) {
      if (a == b) continue;
      net.start_flow(sim::FlowSpec{
          of::FlowKey{topo.host(a).ip, topo.host(b).ip, sport++, 80,
                      of::Proto::kTcp},
          1000, 5 * kMillisecond, {}, {}});
    }
  }
  net.events().run_until(30 * kSecond);

  const auto infra = extract_infra_signatures(parse_log(controller.log()));
  // Host attachments must match ground truth.
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const auto host_node = pt_host_node(topo.host(hosts[i]).ip);
    const auto sw_node = pt_switch_node(attach[i]);
    EXPECT_TRUE(infra.pt.graph.has_edge(host_node, sw_node) ||
                infra.pt.graph.has_edge(sw_node, host_node))
        << host_node << " should attach to " << sw_node;
  }
  // Every inferred switch-switch edge is a real adjacency.
  for (const auto& [from, to] : infra.pt.graph.edges()) {
    if (!from.starts_with("sw:") || !to.starts_with("sw:")) continue;
    const auto a = static_cast<sim::NodeIndex>(std::stoul(from.substr(3)));
    const auto b = static_cast<sim::NodeIndex>(std::stoul(to.substr(3)));
    EXPECT_NE(net.topology().link_between(a, b), nullptr)
        << from << "->" << to << " inferred but not physical";
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTopologies, TopologyInferenceTest,
                         ::testing::Range(1, 13));

// ---------------------------------------------------------------------------
// Mining properties across tasks and seeds.

// gtest_discover_tests names each case after the raw bytes of its
// MiningCase, so the struct must have no padding. The three bytes after
// `masked` were once padding, holding whatever the stack held: a byte of a
// randomised address (0x55 or 0x56), which renamed cases from one build to
// the next. `name_tag` and `reserved` now fill them; the tags keep the case
// names ctest listed before.
struct MiningCase {
  int profile;  // 0 = migration, 1 = startup(0), 2 = stop, 3 = mount.
  bool masked;
  std::uint8_t name_tag;
  std::uint16_t reserved;
  std::uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<MiningCase>,
              "MiningCase bytes name the ctest cases; padding is not allowed");

class MiningPropertyTest : public ::testing::TestWithParam<MiningCase> {};

wl::TaskProfile profile_of(int id) {
  switch (id) {
    case 0:
      return wl::vm_migration_profile();
    case 1:
      return wl::vm_startup_profile(0);
    case 2:
      return wl::vm_stop_profile();
    default:
      return wl::mount_nfs_profile();
  }
}

TEST_P(MiningPropertyTest, AutomatonAcceptsAllTrainingRuns) {
  const auto param = GetParam();
  wl::ServiceCatalog services;
  services.nfs = Ipv4(10, 0, 10, 1);
  services.dns = Ipv4(10, 0, 10, 2);
  services.dhcp = Ipv4(10, 0, 10, 3);
  services.ntp = Ipv4(10, 0, 10, 4);
  services.netbios = Ipv4(10, 0, 10, 5);
  services.metadata = Ipv4(10, 0, 10, 6);
  services.apt_mirror = Ipv4(10, 0, 10, 7);

  Rng rng(param.seed);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < 10; ++i) {
    runs.push_back(wl::expand_task(profile_of(param.profile),
                                   {Ipv4(10, 0, 1, 1), Ipv4(10, 0, 2, 1)},
                                   services, rng, 0)
                       .flows);
  }
  MiningConfig config;
  config.mask_subjects = param.masked;
  const auto specials = services.special_nodes();
  config.service_ips = {specials.begin(), specials.end()};
  const MinedTask mined = mine_task("task", runs, config);

  ASSERT_FALSE(mined.automaton.empty());
  for (const auto& filtered : mined.filtered_runs) {
    EXPECT_TRUE(mined.automaton.accepts(filtered));
  }
  // Closed-set property: no pattern is a contiguous subsequence of a longer
  // pattern with identical support.
  for (const auto& p : mined.patterns) {
    for (const auto& q : mined.patterns) {
      if (q.tokens.size() <= p.tokens.size() || q.support != p.support) {
        continue;
      }
      const bool contained =
          std::search(q.tokens.begin(), q.tokens.end(), p.tokens.begin(),
                      p.tokens.end()) != q.tokens.end();
      EXPECT_FALSE(contained)
          << "pattern subsumed by longer equal-support pattern";
    }
  }
  // Support is a valid count.
  for (const auto& p : mined.patterns) {
    EXPECT_GE(p.support, static_cast<int>(0.6 * 10));
    EXPECT_LE(p.support, 10);
  }
}

INSTANTIATE_TEST_SUITE_P(
    TasksAndSeeds, MiningPropertyTest,
    ::testing::Values(
        MiningCase{0, false, 0, 0, 1}, MiningCase{0, true, 0x56, 0, 2},
        MiningCase{1, false, 0, 0, 3}, MiningCase{1, true, 0x56, 0, 4},
        MiningCase{2, false, 0, 0, 5}, MiningCase{2, true, 0x56, 0, 6},
        MiningCase{3, false, 0, 0, 7}, MiningCase{3, true, 0x56, 0, 8},
        MiningCase{0, true, 0, 0, 9}, MiningCase{1, true, 0x56, 0, 10}));

// ---------------------------------------------------------------------------
// Self-diff property across Table II cases.

class SelfDiffTest : public ::testing::TestWithParam<int> {};

TEST_P(SelfDiffTest, ModelDiffedAgainstItselfIsEmpty) {
  // Whatever the deployment, diffing a model against itself must be clean
  // — the zero-false-positive floor of the whole pipeline.
  wl::LabScenario lab = wl::build_lab_scenario();
  sim::Network net(lab.topology, sim::NetworkConfig{});
  ctrl::Controller controller(net, ControllerId{0}, ctrl::ControllerConfig{});
  net.set_controller(&controller);
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
  std::vector<std::unique_ptr<wl::MultiTierApp>> apps;
  for (const auto& spec : wl::table2_apps(GetParam(), lab)) {
    apps.push_back(std::make_unique<wl::MultiTierApp>(net, spec,
                                                      &lab.services,
                                                      rng.fork()));
  }
  for (auto& app : apps) app->start(0, 25 * kSecond);
  net.events().run_until(40 * kSecond);

  FlowDiffConfig config;
  const auto specials = lab.services.special_nodes();
  config.model.special_nodes = {specials.begin(), specials.end()};
  const FlowDiff flowdiff(config);
  const auto model = flowdiff.model(controller.log());
  const auto report = flowdiff.diff(model, model);
  EXPECT_EQ(report.change_count(), 0u);
  EXPECT_TRUE(report.clean());
}

INSTANTIATE_TEST_SUITE_P(Table2Cases, SelfDiffTest, ::testing::Range(1, 6));

// ---------------------------------------------------------------------------
// Sanitizer restoration property: ANY permutation that displaces each event
// by at most the lateness horizon is fully restored — the sanitized stream
// equals the original, with zero hard-evidence counters.

class SanitizerRestorationTest : public ::testing::TestWithParam<int> {};

TEST_P(SanitizerRestorationTest, BoundedDisplacementIsFullyRestored) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 733 + 1);
  // Events strictly 10 ms apart, so a displacement budget in *slots* maps
  // directly to a displacement bound in event time.
  std::vector<of::ControlEvent> ordered;
  for (int i = 0; i < 300; ++i) {
    of::PacketIn pin;
    pin.sw = SwitchId{1};
    pin.in_port = PortId{1};
    pin.key = of::FlowKey{Ipv4(10, 0, 0, 1), Ipv4(10, 0, 0, 2),
                          static_cast<std::uint16_t>(40000 + i), 80,
                          of::Proto::kTcp};
    pin.flow_uid = static_cast<std::uint64_t>(i + 1);
    ordered.push_back(
        of::ControlEvent{i * 10 * kMillisecond, ControllerId{0}, pin});
  }
  // Random local shuffle: each event trades places within a ±5-slot
  // neighborhood (50 ms displacement, far inside the 1 s horizon).
  std::vector<of::ControlEvent> shuffled = ordered;
  for (std::size_t i = 0; i + 1 < shuffled.size(); ++i) {
    const auto span = static_cast<std::size_t>(rng.uniform_int(0, 5));
    const std::size_t j = std::min(i + span, shuffled.size() - 1);
    std::swap(shuffled[i], shuffled[j]);
  }

  const auto sanitized = ingest::sanitize_log(shuffled);
  ASSERT_EQ(sanitized.log.size(), ordered.size());
  for (std::size_t i = 0; i < ordered.size(); ++i) {
    EXPECT_EQ(of::serialize_event(sanitized.log.events()[i]),
              of::serialize_event(ordered[i]));
  }
  EXPECT_EQ(sanitized.quality.late_dropped, 0u);
  EXPECT_EQ(sanitized.quality.duplicates, 0u);
  EXPECT_EQ(sanitized.quality.truncated, 0u);
  EXPECT_FALSE(sanitized.quality.degraded());

  // Idempotence: sanitizing the restored stream changes nothing.
  const auto again = ingest::sanitize_log(sanitized.log.events());
  EXPECT_EQ(of::serialize(again.log), of::serialize(sanitized.log));
  EXPECT_EQ(again.quality.reordered, 0u);
}

INSTANTIATE_TEST_SUITE_P(Shuffles, SanitizerRestorationTest,
                         ::testing::Range(1, 7));

}  // namespace
}  // namespace flowdiff::core
