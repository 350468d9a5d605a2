#include "experiment/lab_experiment.h"

namespace flowdiff::exp {

namespace {

sim::NetworkConfig tune(sim::NetworkConfig net, std::uint64_t seed) {
  net.seed = seed;
  return net;
}

}  // namespace

LabExperiment::LabExperiment(LabExperimentConfig config)
    : config_(config),
      lab_(wl::build_lab_scenario()),
      net_(lab_.topology, tune(config.net, config.seed)),
      controller_(net_, ControllerId{0}, config.controller),
      rng_(config.seed ^ 0x5bd1e995u) {
  net_.set_controller(&controller_);
  // Hardware aggregation switches process misses faster than the software
  // edge switches, as in the paper's testbed.
  for (const SwitchId sw : lab_.agg_switches) {
    net_.set_switch_profile(sw, sim::SwitchProfile{200, 60});
  }
  for (const SwitchId sw : lab_.edge_switches) {
    net_.set_switch_profile(sw, sim::SwitchProfile{700, 200});
  }
  for (const auto& spec :
       wl::table2_apps(config_.table2_case, lab_, config_.case5)) {
    apps_.push_back(std::make_unique<wl::MultiTierApp>(
        net_, spec, &lab_.services, rng_.fork()));
  }
}

void LabExperiment::schedule_heartbeats(SimTime begin, SimTime end) {
  // Every server syncs NTP periodically on a fresh connection — the kind of
  // background chatter a real data center always has. It keeps every
  // switch's attachment visible to topology inference in every window, so
  // an application-level fault does not darken part of the topology.
  for (const auto& [name, host] : lab_.hosts) {
    if (name.size() > 0 && name[0] != 'S' && name[0] != 'V') continue;
    const Ipv4 src = lab_.topology.host(host).ip;
    SimTime at = begin + static_cast<SimDuration>(
                             rng_.uniform(0.0, 4.0 * kSecond));
    while (at < end) {
      net_.events().schedule(at, [this, src] {
        sim::FlowSpec ping;
        ping.key = of::FlowKey{src, lab_.services.ntp, next_heartbeat_port_++,
                               wl::kPortNtp, of::Proto::kUdp};
        if (next_heartbeat_port_ < 20000) next_heartbeat_port_ = 20000;
        ping.bytes = 90;
        ping.duration = kMillisecond;
        net_.start_flow(std::move(ping));
      });
      at += 6 * kSecond +
            static_cast<SimDuration>(rng_.uniform(0.0, 3.0 * kSecond));
    }
  }
}

of::ControlLog LabExperiment::run_window(faults::FaultInjector* fault) {
  controller_.clear_log();
  const SimTime begin = net_.now();
  const SimTime end = begin + config_.window;
  if (fault != nullptr) fault->apply();
  for (auto& app : apps_) app->start(begin, end);
  schedule_heartbeats(begin, end);
  net_.events().run_until(end + config_.drain);
  if (fault != nullptr) fault->revert();
  // Let post-fault state (expiries, in-flight requests) settle before the
  // next window.
  net_.events().run_until(net_.now() + 2 * kSecond);
  return controller_.log();
}

core::FlowDiffConfig LabExperiment::flowdiff_config() const {
  core::FlowDiffConfig config;
  const auto specials = lab_.services.special_nodes();
  config.model.special_nodes = {specials.begin(), specials.end()};
  return config;
}

std::uint64_t LabExperiment::completed_requests() const {
  std::uint64_t total = 0;
  for (const auto& app : apps_) total += app->completed_requests();
  return total;
}

}  // namespace flowdiff::exp
