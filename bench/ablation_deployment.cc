// Deployment-considerations ablation (paper SectionVI): how the OpenFlow
// deployment mode trades control-traffic volume against FlowDiff's
// visibility and detection power.
//
// Modes: reactive microflow rules (the paper's main setting), reactive
// host-pair wildcard rules, fully proactive rules, and a distributed
// two-instance controller. For each: control messages captured, model
// richness (CG edges, DD pairs, ISL pairs), and whether a server-slowdown
// fault is still detected.
#include <cstdio>
#include <memory>

#include "controller/distributed.h"
#include "experiment/lab_experiment.h"
#include "faults/faults.h"
#include "util/table.h"
#include "workload/app.h"
#include "workload/scenario.h"

namespace flowdiff {
namespace {

struct ModeResult {
  std::size_t packet_ins = 0;
  std::size_t flow_mods = 0;
  std::size_t cg_edges = 0;
  std::size_t dd_pairs = 0;
  std::size_t isl_pairs = 0;
  bool dd_fault_detected = false;
};

ModeResult run_mode(const std::string& mode) {
  wl::LabScenario lab = wl::build_lab_scenario();
  sim::NetworkConfig net_config;
  sim::Network net(lab.topology, net_config);

  std::unique_ptr<sim::ControllerIface> owner;
  ctrl::Controller* single = nullptr;
  ctrl::DistributedControllerSet* distributed = nullptr;
  ctrl::ControllerConfig cc;
  if (mode == "wildcard") cc.granularity = ctrl::RuleGranularity::kHostPair;
  if (mode == "distributed") {
    auto set = std::make_unique<ctrl::DistributedControllerSet>(net, 2, cc);
    distributed = set.get();
    owner = std::move(set);
  } else {
    auto c = std::make_unique<ctrl::Controller>(net, ControllerId{0}, cc);
    single = c.get();
    owner = std::move(c);
  }
  net.set_controller(owner.get());
  if (mode == "proactive" && single != nullptr) {
    single->install_proactive_rules();
  }

  Rng rng(5);
  std::vector<std::unique_ptr<wl::MultiTierApp>> apps;
  for (const auto& spec : wl::table2_apps(2, lab)) {
    apps.push_back(std::make_unique<wl::MultiTierApp>(net, spec,
                                                      &lab.services,
                                                      rng.fork()));
  }

  auto capture = [&](faults::FaultInjector* fault) {
    if (single != nullptr) single->clear_log();
    if (distributed != nullptr) distributed->clear_logs();
    const SimTime begin = net.now();
    if (fault != nullptr) fault->apply();
    for (auto& app : apps) app->start(begin, begin + 30 * kSecond);
    net.events().run_until(begin + 38 * kSecond);
    if (fault != nullptr) fault->revert();
    net.events().run_until(net.now() + 2 * kSecond);
    return distributed != nullptr ? distributed->merged_log()
                                  : single->log();
  };

  const auto baseline_log = capture(nullptr);
  faults::ServerSlowdownFault slowdown(net, lab.host("S4"),
                                       60 * kMillisecond, "logging");
  const auto faulty_log = capture(&slowdown);

  core::FlowDiffConfig fd_config;
  const auto specials = lab.services.special_nodes();
  fd_config.model.special_nodes = {specials.begin(), specials.end()};
  const core::FlowDiff flowdiff(fd_config);
  const auto baseline = flowdiff.model(baseline_log);
  const auto current = flowdiff.model(faulty_log);
  const auto report = flowdiff.diff(baseline, current);

  ModeResult result;
  result.packet_ins = baseline_log.count<of::PacketIn>();
  result.flow_mods = baseline_log.count<of::FlowMod>();
  for (const auto& group : baseline.groups) {
    result.cg_edges += group.sig.cg.graph.edge_count();
    result.dd_pairs += group.sig.dd.per_pair.size();
  }
  result.isl_pairs = baseline.infra.isl.latency_ms.size();
  for (const auto& change : report.unknown) {
    if (change.kind == core::SignatureKind::kDd) {
      result.dd_fault_detected = true;
    }
  }
  return result;
}

int run() {
  std::printf("=== SectionVI ablation: OpenFlow deployment modes ===\n");
  std::printf("30 s baseline window, Table II case 2 workload; fault = "
              "60 ms server slowdown at S4.\n\n");

  TextTable table({"mode", "PacketIn", "FlowMod", "CG edges", "DD pairs",
                   "ISL pairs", "slowdown detected?"});
  for (const char* mode :
       {"reactive", "wildcard", "distributed", "proactive"}) {
    const ModeResult r = run_mode(mode);
    table.add_row({mode, std::to_string(r.packet_ins),
                   std::to_string(r.flow_mods), std::to_string(r.cg_edges),
                   std::to_string(r.dd_pairs), std::to_string(r.isl_pairs),
                   r.dd_fault_detected ? "yes" : "NO"});
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Shape check (paper SectionVI): wildcard rules cut control traffic "
      "but\ncoarsen the application model; proactive rules remove control "
      "traffic\nand with it FlowDiff's visibility (detection lost); "
      "distributing the\ncontroller preserves the merged-log model.\n");
  return 0;
}

}  // namespace
}  // namespace flowdiff

int main() { return flowdiff::run(); }
