#include "experiment/scalability.h"

#include <chrono>

#include "controller/controller.h"
#include "flowdiff/flowdiff.h"
#include "workload/onoff.h"
#include "workload/scenario.h"

#include <set>

namespace flowdiff::exp {

of::ControlLog capture_scalability_log(const ScalabilityConfig& config) {
  wl::TreeScenario tree = wl::build_tree_320();
  sim::NetworkConfig net_config;
  net_config.seed = config.seed;
  // Short idle timeout keeps flow tables small at scale; entries still
  // outlive a typical OFF period so reused connections stay invisible.
  net_config.idle_timeout = kSecond;
  sim::Network net(tree.topology, net_config);
  ctrl::Controller controller(net, ControllerId{0}, ctrl::ControllerConfig{});
  net.set_controller(&controller);

  Rng rng(config.seed);
  wl::OnOffSpec onoff;
  onoff.reuse_prob = config.reuse_prob;
  wl::OnOffTraffic traffic(net, onoff, rng.fork());
  std::set<std::size_t> used_hosts;
  for (int a = 0; a < config.app_count; ++a) {
    const wl::AppSpec app = wl::random_three_tier(tree, rng, a, &used_hosts);
    // All-pairs communication between consecutive tiers (client included).
    for (std::size_t tier = 0; tier + 1 < app.tiers.size(); ++tier) {
      for (const HostId src : app.tiers[tier].nodes) {
        for (const HostId dst : app.tiers[tier + 1].nodes) {
          traffic.add_pair(src, dst);
        }
      }
    }
  }
  traffic.start(0, config.duration);
  net.events().run_until(config.duration);
  return controller.log();
}

ScalabilityResult run_scalability(const ScalabilityConfig& config) {
  const of::ControlLog log = capture_scalability_log(config);

  ScalabilityResult result;
  result.packet_ins = log.count<of::PacketIn>();
  result.packet_ins_per_sec =
      static_cast<double>(result.packet_ins) / to_seconds(config.duration);

  const auto seconds = static_cast<std::size_t>(
      config.duration / kSecond);
  result.packet_ins_per_sec_series.assign(seconds, 0.0);
  for (const auto& e : log.events()) {
    if (!std::holds_alternative<of::PacketIn>(e.msg)) continue;
    const auto bucket = static_cast<std::size_t>(e.ts / kSecond);
    if (bucket < seconds) result.packet_ins_per_sec_series[bucket] += 1.0;
  }

  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const auto t0 = std::chrono::steady_clock::now();
  const auto model = flowdiff.model(log);
  const auto t1 = std::chrono::steady_clock::now();
  result.processing_sec =
      std::chrono::duration<double>(t1 - t0).count();
  result.groups_found = model.groups.size();
  return result;
}

}  // namespace flowdiff::exp
