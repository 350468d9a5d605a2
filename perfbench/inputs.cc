#include "inputs.h"

#include <cstdio>
#include <filesystem>
#include <functional>

#include "experiment/lab_experiment.h"
#include "faults/corruptor.h"
#include "faults/faults.h"
#include "flowdiff/flowdiff.h"
#include "openflow/log_io.h"
#include "workload/fingerprint.h"
#include "workload/flood.h"
#include "workload/incast.h"
#include "workload/tasks.h"

namespace perfbench {
namespace {

using namespace flowdiff;

std::uint64_t mix(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ull + salt + 0x632be59bd9b4e019ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

class Writer {
 public:
  explicit Writer(std::string dir) : dir_(std::move(dir)) {}

  bool put(const std::string& name, const std::string& bytes) {
    if (!of::write_file(dir_ + "/" + name, bytes)) {
      error_ = "cannot write " + dir_ + "/" + name;
      return false;
    }
    const std::uint64_t h = fnv1a(bytes);
    char line[256];
    std::snprintf(line, sizeof(line), "file %s %zu %016llx\n", name.c_str(),
                  bytes.size(), static_cast<unsigned long long>(h));
    manifest_ += line;
    total_ = fnv1a(std::string_view(reinterpret_cast<const char*>(&h),
                                    sizeof(h)),
                   total_);
    return true;
  }

  bool finish(const std::string& workload, std::uint64_t seed) {
    char tail[128];
    std::snprintf(tail, sizeof(tail), "input_hash %016llx\n",
                  static_cast<unsigned long long>(total_));
    const std::string text = "workload " + workload + "\nseed " +
                             std::to_string(seed) + "\n" + manifest_ + tail;
    // Written last: a manifest marks a complete input set.
    if (!of::write_file(dir_ + "/manifest.txt", text)) {
      error_ = "cannot write manifest";
      return false;
    }
    return true;
  }

  [[nodiscard]] const std::string& error() const { return error_; }

 private:
  std::string dir_;
  std::string manifest_;
  std::string error_;
  std::uint64_t total_ = kFnvBasis;
};

std::string services_text(const exp::LabExperiment& lab) {
  std::string out;
  for (const Ipv4 ip : lab.flowdiff_config().model.special_nodes) {
    out += ip.to_string() + "\n";
  }
  return out;
}

/// Learns the operator-task automata the serve tenants' captures exercise,
/// from masked training runs on VM1 (the captures run them on other VMs).
bool write_task_automata(Writer& out, std::uint64_t seed) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  const core::FlowDiff learner(lab.flowdiff_config());
  Rng rng(mix(seed, 17));
  const std::vector<wl::TaskProfile> profiles = {
      wl::vm_startup_profile(0), wl::vm_stop_profile(),
      wl::mount_nfs_profile()};
  for (const auto& profile : profiles) {
    std::vector<of::FlowSequence> runs;
    for (int i = 0; i < 10; ++i) {
      runs.push_back(wl::expand_task(profile, {lab.lab().ip("VM1")},
                                     lab.lab().services, rng, 0)
                         .flows);
    }
    const auto mined = learner.learn_task(profile.name, runs, true);
    if (!out.put("task_" + profile.name + ".automaton",
                 mined.automaton.serialize())) {
      return false;
    }
  }
  return true;
}

/// Runs one window of `lab` with an operator task replayed 5 s in.
of::ControlLog task_window(exp::LabExperiment& lab,
                           const wl::TaskProfile& profile, const char* vm,
                           Rng& rng) {
  const auto run = wl::expand_task(profile, {lab.lab().ip(vm)},
                                   lab.lab().services, rng,
                                   lab.now() + 5 * kSecond);
  wl::run_task_on_network(lab.net(), run);
  return lab.run_window();
}

enum class Fault {
  kSlowdown,
  kUnauthorized,
  kLinkLoss,
  kControllerOverload,
  kFlood,
  kIncast,
  kFingerprint,
};

/// One capture window of the Table II case-2 lab with `fault` active.
of::ControlLog fault_window(exp::LabExperiment& lab, Fault fault,
                            std::uint64_t seed) {
  const auto& scenario = lab.lab();
  const SimTime begin = lab.now();
  switch (fault) {
    case Fault::kSlowdown: {
      faults::ServerSlowdownFault f(lab.net(), scenario.host("S4"),
                                    60 * kMillisecond, "logging");
      return lab.run_window(&f);
    }
    case Fault::kUnauthorized: {
      faults::UnauthorizedAccessFault f(
          lab.net(), scenario.host("S21"), scenario.host("S14"), 3306,
          begin + 5 * kSecond, begin + 20 * kSecond, 20);
      return lab.run_window(&f);
    }
    case Fault::kLinkLoss: {
      std::vector<LinkId> links{
          lab.net().topology().host(scenario.host("S4")).links.front()};
      faults::LinkLossFault f(lab.net(), links, 0.2);
      return lab.run_window(&f);
    }
    case Fault::kControllerOverload: {
      faults::ControllerOverloadFault f(lab.controller(), 40.0);
      return lab.run_window(&f);
    }
    case Fault::kFlood: {
      std::vector<HostId> botnet;
      for (const char* name : {"S1", "S5", "S9", "S13", "S18", "S22"}) {
        botnet.push_back(scenario.host(name));
      }
      wl::VolumetricFlood flood(lab.net(), std::move(botnet),
                                scenario.ip("S7"), wl::FloodSpec{},
                                Rng(mix(seed, 902)));
      flood.start(begin + 3 * kSecond, begin + 27 * kSecond);
      return lab.run_window();
    }
    case Fault::kIncast: {
      std::vector<HostId> workers;
      for (const char* name : {"S1", "S2", "S5", "S6", "S8", "S9", "S11",
                               "S13", "S16", "S17", "S21", "S22"}) {
        workers.push_back(scenario.host(name));
      }
      wl::IncastTraffic incast(lab.net(), std::move(workers),
                               scenario.host("S10"), wl::IncastSpec{},
                               Rng(mix(seed, 903)));
      incast.start(begin + 3 * kSecond, begin + 27 * kSecond);
      return lab.run_window();
    }
    case Fault::kFingerprint: {
      wl::FingerprintProber prober(lab.net(), scenario.host("S16"),
                                   scenario.services.ntp,
                                   wl::FingerprintSpec{}, Rng(mix(seed, 901)));
      prober.start(begin + 3 * kSecond, begin + 27 * kSecond);
      return lab.run_window();
    }
  }
  return lab.run_window();
}

void append(std::vector<of::ControlEvent>& stream, const of::ControlLog& log) {
  stream.insert(stream.end(), log.events().begin(), log.events().end());
}

/// Cycles of windows per capture in serve_fleet and incident_storm. A
/// verdict-latency percentile is set by the few slowest windows of the
/// capture, which differ from seed to seed; two cycles give it twice as
/// many distinct windows to be taken from.
constexpr int kCycles = 2;

/// serve_fleet: eight tenants, each its own lab (Table II cases 1-4, own
/// seed) running kCycles x four windows: healthy, VM startup, NFS mount,
/// VM stop.
bool gen_serve_fleet(Writer& out, std::uint64_t seed) {
  constexpr int kTenants = 8;
  for (int t = 0; t < kTenants; ++t) {
    exp::LabExperimentConfig config;
    config.table2_case = 1 + t % 4;
    config.seed = mix(seed, 100 + static_cast<std::uint64_t>(t));
    exp::LabExperiment lab(config);
    Rng rng(mix(seed, 200 + static_cast<std::uint64_t>(t)));
    const char* vm = t % 2 == 0 ? "VM3" : "VM4";
    std::vector<of::ControlEvent> stream;
    for (int c = 0; c < kCycles; ++c) {
      append(stream, lab.run_window());
      append(stream, task_window(lab, wl::vm_startup_profile(0), vm, rng));
      append(stream, task_window(lab, wl::mount_nfs_profile(), vm, rng));
      append(stream, task_window(lab, wl::vm_stop_profile(), vm, rng));
    }
    if (!out.put("tenant_" + std::to_string(t) + ".log",
                 of::serialize(stream))) {
      return false;
    }
  }
  return true;
}

/// incident_storm: one lab cycling kCycles times through a healthy window
/// with every fault family, captured behind a 1% drop/dup/reorder/truncate
/// capture point.
bool gen_incident_storm(Writer& out, std::uint64_t seed) {
  exp::LabExperimentConfig config;
  config.seed = mix(seed, 300);
  exp::LabExperiment lab(config);
  of::ControlLog merged;
  const auto add = [&merged](const of::ControlLog& log) {
    for (const auto& event : log.events()) merged.append(event);
  };
  add(lab.run_window());
  for (int c = 0; c < kCycles; ++c) {
    for (const Fault fault :
         {Fault::kSlowdown, Fault::kUnauthorized, Fault::kLinkLoss,
          Fault::kControllerOverload, Fault::kFlood, Fault::kIncast,
          Fault::kFingerprint}) {
      add(lab.run_window());
      add(fault_window(lab, fault, seed));
    }
  }
  add(lab.run_window());
  faults::StreamCorruptor corruptor(
      faults::CorruptorConfig::uniform(0.01, mix(seed, 301)));
  return out.put("tenant_0.log", of::serialize(corruptor.corrupt(merged)));
}

/// offline_diff: a healthy baseline capture and eight later captures of the
/// same lab, half healthy and half faulty.
bool gen_offline_diff(Writer& out, std::uint64_t seed) {
  exp::LabExperimentConfig config;
  config.seed = mix(seed, 400);
  exp::LabExperiment lab(config);
  if (!out.put("baseline.log", of::serialize(lab.run_window()))) return false;
  const std::vector<std::function<of::ControlLog()>> currents = {
      [&] { return lab.run_window(); },
      [&] { return fault_window(lab, Fault::kSlowdown, seed); },
      [&] { return lab.run_window(); },
      [&] { return fault_window(lab, Fault::kUnauthorized, seed); },
      [&] { return lab.run_window(); },
      [&] { return fault_window(lab, Fault::kLinkLoss, seed); },
      [&] { return lab.run_window(); },
      [&] { return fault_window(lab, Fault::kControllerOverload, seed); },
  };
  for (std::size_t i = 0; i < currents.size(); ++i) {
    if (!out.put("current_" + std::to_string(i) + ".log",
                 of::serialize(currents[i]()))) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string generate(const std::string& workload, std::uint64_t seed,
                     const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "cannot create " + dir + ": " + ec.message();
  Writer out(dir);
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  if (!out.put("services.txt", services_text(lab))) return out.error();
  if (!write_task_automata(out, seed)) return out.error();
  bool ok = false;
  if (workload == "serve_fleet") {
    ok = gen_serve_fleet(out, seed);
  } else if (workload == "incident_storm") {
    ok = gen_incident_storm(out, seed);
  } else if (workload == "offline_diff") {
    ok = gen_offline_diff(out, seed);
  } else {
    return "unknown workload " + workload;
  }
  if (!ok || !out.finish(workload, seed)) return out.error();
  return {};
}

}  // namespace perfbench
