// Attack sweep: detection recall / false-alarm rate vs attack intensity.
//
// For each adversarial family (controller fingerprinting probes, volumetric
// PacketIn flood, many-to-one incast) a fresh lab adopts a healthy baseline
// window, then alternates attack windows (fresh generator seed per trial)
// with untouched steady windows through one SlidingMonitor. A window counts
// toward recall only when it alarms AND the dependency-matrix diagnosis
// ranks the matching adversarial class first; any alarm on an interleaved
// steady window is a false alarm. Every figure is a verdict count, so a
// rerun reproduces the JSON byte for byte (perfbench's verdict_ms times
// the verdicts).
//
// The nominal row (intensity 1.0, the committed corpus setting) is a gate:
// recall must be >= 0.9 with zero false alarms, or the bench exits
// nonzero. Results land in BENCH_attack.json (override with --out=PATH);
// --quick runs the nominal intensity only, one trial per family, for the
// sanitizer CI legs (registered as the ctest case labeled `bench`).
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "experiment/lab_experiment.h"
#include "flowdiff/diagnosis.h"
#include "flowdiff/monitor.h"
#include "openflow/log_io.h"
#include "util/table.h"
#include "workload/fingerprint.h"
#include "workload/flood.h"
#include "workload/incast.h"

namespace flowdiff {
namespace {

enum class Family { kFingerprint, kFlood, kIncast };

constexpr Family kFamilies[] = {Family::kFingerprint, Family::kFlood,
                                Family::kIncast};

const char* family_name(Family family) {
  switch (family) {
    case Family::kFingerprint:
      return "fingerprint";
    case Family::kFlood:
      return "flood";
    case Family::kIncast:
      return "incast";
  }
  return "?";
}

core::ProblemClass expected_class(Family family) {
  switch (family) {
    case Family::kFingerprint:
      return core::ProblemClass::kFingerprinting;
    case Family::kFlood:
      return core::ProblemClass::kVolumetricFlood;
    case Family::kIncast:
      return core::ProblemClass::kIncast;
  }
  return core::ProblemClass::kFingerprinting;
}

/// Starts one attack on the lab's network for the window beginning now.
/// Generators capture the network by reference, so the returned holders
/// must outlive run_window(); the caller keeps them in scope.
struct Attackers {
  std::vector<std::unique_ptr<wl::FingerprintProber>> probers;
  std::vector<std::unique_ptr<wl::VolumetricFlood>> floods;
  std::vector<std::unique_ptr<wl::IncastTraffic>> incasts;
};

void start_attack(exp::LabExperiment& lab, Family family, double intensity,
                  std::uint64_t seed, Attackers& holders) {
  const auto& scenario = lab.lab();
  const SimTime begin = lab.now() + 3 * kSecond;
  const SimTime end = lab.now() + 27 * kSecond;
  switch (family) {
    case Family::kFingerprint: {
      wl::FingerprintSpec spec;
      spec.intensity = intensity;
      holders.probers.push_back(std::make_unique<wl::FingerprintProber>(
          lab.net(), scenario.host("S16"), scenario.services.ntp, spec,
          Rng(seed)));
      holders.probers.back()->start(begin, end);
      break;
    }
    case Family::kFlood: {
      wl::FloodSpec spec;
      spec.intensity = intensity;
      std::vector<HostId> botnet = {
          scenario.host("S1"),  scenario.host("S5"),
          scenario.host("S9"),  scenario.host("S13"),
          scenario.host("S18"), scenario.host("S22")};
      holders.floods.push_back(std::make_unique<wl::VolumetricFlood>(
          lab.net(), std::move(botnet), scenario.ip("S7"), spec, Rng(seed)));
      holders.floods.back()->start(begin, end);
      break;
    }
    case Family::kIncast: {
      wl::IncastSpec spec;
      spec.intensity = intensity;
      std::vector<HostId> workers;
      for (const char* name : {"S1", "S2", "S5", "S6", "S8", "S9", "S11",
                               "S13", "S16", "S17", "S21", "S22"}) {
        workers.push_back(scenario.host(name));
      }
      holders.incasts.push_back(std::make_unique<wl::IncastTraffic>(
          lab.net(), std::move(workers), scenario.host("S10"), spec,
          Rng(seed)));
      holders.incasts.back()->start(begin, end);
      break;
    }
  }
}

struct SweepResult {
  Family family = Family::kFingerprint;
  double intensity = 0.0;
  std::size_t attack_windows = 0;
  std::size_t recalled = 0;        ///< Alarmed with the right class on top.
  std::size_t steady_windows = 0;
  std::size_t false_alarms = 0;
};

SweepResult sweep_one(Family family, double intensity, std::size_t trials) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  core::MonitorOptions options;
  options.services = lab.flowdiff_config().model.special_nodes;
  options.window = 40 * kSecond;
  options.rolling_baseline = false;

  core::SlidingMonitor monitor(options);
  Attackers holders;
  monitor.feed(lab.run_window());  // Baseline.
  for (std::size_t trial = 0; trial < trials; ++trial) {
    start_attack(lab, family, intensity, 900 + trial, holders);
    monitor.feed(lab.run_window());
    // One recovery window absorbs the attack's residue — stretched flows
    // expire here, dumping their FlowRemoved counters into this window's
    // buckets — then an untouched window serves as the steady control.
    monitor.feed(lab.run_window());
    monitor.feed(lab.run_window());
  }
  monitor.flush();
  const auto snapshot = monitor.snapshot();

  SweepResult result;
  result.family = family;
  result.intensity = intensity;
  result.attack_windows = trials;
  result.steady_windows = trials;
  const core::ProblemClass expected = expected_class(family);
  for (const auto& entry : snapshot.explained) {
    if (!entry->report) continue;
    const core::DiffReport& report = *entry->report;
    // Each 40 s capture lands in exactly one monitor window, so the
    // window's index is its position in the feed order: index 0 is the
    // baseline (which never alarms), then trials of
    // [attack, recovery, steady control]. Recovery windows are judged
    // neither way.
    const std::size_t window_index = entry->provenance.window_index;
    const std::size_t phase = (window_index - 1) % 3;
    if (phase == 1) continue;  // Recovery window.
    const bool on_attack = phase == 0;
    if (!on_attack) {
      ++result.false_alarms;
      continue;
    }
    const auto ranked = core::classify(
        core::build_dependency_matrix(report.unknown), report.unknown);
    if (ranked.empty() || ranked[0].cls != expected) continue;
    ++result.recalled;
  }
  return result;
}

std::string render_json(const std::vector<SweepResult>& results,
                        double nominal_recall,
                        std::size_t nominal_false_alarms, bool gate_ok) {
  std::string json = "{\n  \"scenarios\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    const double recall =
        r.attack_windows == 0
            ? 0.0
            : static_cast<double>(r.recalled) /
                  static_cast<double>(r.attack_windows);
    json += "    {\"family\": \"" + std::string(family_name(r.family)) +
            "\", \"intensity\": " + fmt_double(r.intensity, 2) +
            ", \"attack_windows\": " + std::to_string(r.attack_windows) +
            ", \"recall\": " + fmt_double(recall, 3) +
            ", \"steady_windows\": " + std::to_string(r.steady_windows) +
            ", \"false_alarms\": " + std::to_string(r.false_alarms) + "}";
    json += i + 1 < results.size() ? ",\n" : "\n";
  }
  json += "  ],\n";
  json += "  \"nominal\": {\"intensity\": 1.00, \"recall\": " +
          fmt_double(nominal_recall, 3) +
          ", \"false_alarms\": " + std::to_string(nominal_false_alarms) +
          ", \"gate\": \"" + (gate_ok ? "pass" : "FAIL") + "\"}\n";
  json += "}\n";
  return json;
}

int run(bool quick, const std::string& out_path) {
  std::printf("=== attack sweep: detection recall vs intensity ===\n");
  std::printf(
      "Adversarial generators against the lab deployment; a hit requires "
      "the alarm to\nrank its own family first. Steady windows interleave "
      "every trial.%s\n\n",
      quick ? " (quick mode)" : "");

  const std::vector<double> intensities =
      quick ? std::vector<double>{1.0}
            : std::vector<double>{0.25, 0.5, 1.0};
  const std::size_t trials = quick ? 1 : 2;

  std::vector<SweepResult> results;
  TextTable table({"family", "intensity", "recall", "false alarms"});
  std::size_t nominal_attacks = 0;
  std::size_t nominal_recalled = 0;
  std::size_t nominal_false = 0;
  for (const Family family : kFamilies) {
    for (const double intensity : intensities) {
      const SweepResult r = sweep_one(family, intensity, trials);
      results.push_back(r);
      if (intensity == 1.0) {
        nominal_attacks += r.attack_windows;
        nominal_recalled += r.recalled;
        nominal_false += r.false_alarms;
      }
      table.add_row({family_name(family), fmt_double(intensity, 2),
                     std::to_string(r.recalled) + "/" +
                         std::to_string(r.attack_windows),
                     std::to_string(r.false_alarms) + "/" +
                         std::to_string(r.steady_windows)});
    }
  }
  std::printf("%s\n", table.render().c_str());

  const double nominal_recall =
      nominal_attacks == 0 ? 0.0
                           : static_cast<double>(nominal_recalled) /
                                 static_cast<double>(nominal_attacks);
  const bool gate_ok = nominal_recall >= 0.9 && nominal_false == 0;
  std::printf("Nominal intensity: recall %.3f (gate >= 0.9), false alarms "
              "%zu (gate 0) -> %s\n",
              nominal_recall, nominal_false, gate_ok ? "pass" : "FAIL");

  const std::string json =
      render_json(results, nominal_recall, nominal_false, gate_ok);
  if (!of::write_file(out_path, json)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("Wrote %s\n", out_path.c_str());
  return gate_ok ? 0 : 1;
}

}  // namespace
}  // namespace flowdiff

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path = "BENCH_attack.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else {
      std::fprintf(stderr,
                   "usage: attack_sweep [--quick] [--out=PATH]\n");
      return 2;
    }
  }
  return flowdiff::run(quick, out_path);
}
