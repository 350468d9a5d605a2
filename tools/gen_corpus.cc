// Regenerates the golden-trace regression corpus under tests/corpus/.
//
// Each case is a deterministic lab simulation (fixed seeds throughout)
// captured as a corpus .log file plus the monitor transcript its replay
// must reproduce byte for byte (.golden) and the alarm-provenance
// transcript (.provenance). Run after an *intentional*
// behavior change, commit the diff, and the corpus_regression_test pins
// the new behavior:
//
//   ./build/tools/gen_corpus [output_dir]   (default: tests/corpus)
//
// Cases:
//   steady              three healthy windows — no alarms, ever;
//   slowdown            a verbose-logging server slowdown window between
//                       healthy ones — exactly the paper's Table I lab
//                       procedure, expected to alarm with DD changes;
//   unauthorized        an intruder host reaching a victim service — a CG
//                       alarm no operator task explains;
//   corrupted_slowdown  the slowdown capture corrupted at 5% (drop/dup/
//                       reorder/truncate, seed 1005) and replayed with the
//                       ingest sanitizer on — pins degraded-mode output.
//   fingerprint         a controller-fingerprinting probe train against the
//                       NTP service — a pure CRT shift with no
//                       application-layer change;
//   flood               a botnet PacketIn flood on a web server — fan-in of
//                       new edges plus a controller queueing shift;
//   incast              synchronized many-to-one bursts saturating an app
//                       server's access path — fan-in plus DD/ISL shifts.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "experiment/lab_experiment.h"
#include "faults/corruptor.h"
#include "faults/faults.h"
#include "flowdiff/monitor.h"
#include "openflow/log_io.h"
#include "workload/fingerprint.h"
#include "workload/flood.h"
#include "workload/incast.h"

namespace flowdiff {
namespace {

/// All corpus cases replay with the lab's monitor setup: one 40 s monitor
/// window per run_window() production (30 s window + 8 s drain + 2 s
/// settle), no rolling baseline, no global obs sampling.
core::MonitorOptions corpus_options(const exp::LabExperiment& lab,
                                    bool sanitize) {
  core::MonitorOptions options;
  options.services = lab.flowdiff_config().model.special_nodes;
  options.window = 40 * kSecond;
  options.rolling_baseline = false;
  options.sanitize = sanitize;
  return options;
}

void append_capture(std::vector<of::ControlEvent>& stream,
                    const of::ControlLog& capture) {
  stream.insert(stream.end(), capture.events().begin(),
                capture.events().end());
}

/// Three healthy windows: baseline adoption plus two clean diffs.
std::vector<of::ControlEvent> steady_stream() {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  std::vector<of::ControlEvent> stream;
  for (int w = 0; w < 3; ++w) append_capture(stream, lab.run_window());
  return stream;
}

/// Baseline, healthy, server-slowdown fault, healthy again.
std::vector<of::ControlEvent> slowdown_stream() {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  std::vector<of::ControlEvent> stream;
  append_capture(stream, lab.run_window());
  append_capture(stream, lab.run_window());
  faults::ServerSlowdownFault fault(lab.net(), lab.lab().host("S4"),
                                    60 * kMillisecond, "logging");
  append_capture(stream, lab.run_window(&fault));
  append_capture(stream, lab.run_window());
  return stream;
}

/// Baseline, then an intruder host talking to a victim database port.
std::vector<of::ControlEvent> unauthorized_stream() {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  std::vector<of::ControlEvent> stream;
  append_capture(stream, lab.run_window());
  const SimTime begin = lab.now() + 5 * kSecond;
  faults::UnauthorizedAccessFault fault(
      lab.net(), lab.lab().host("S21"), lab.lab().host("S14"), 3306, begin,
      begin + 15 * kSecond, 20);
  append_capture(stream, lab.run_window(&fault));
  return stream;
}

/// The slowdown capture pushed through the seeded corruptor: what the
/// same fault looks like behind a lossy, duplicating, reordering capture
/// point. Replayed with sanitize=1.
std::vector<of::ControlEvent> corrupted_slowdown_stream() {
  of::ControlLog merged;
  for (const auto& event : slowdown_stream()) merged.append(event);
  faults::StreamCorruptor corruptor(
      faults::CorruptorConfig::uniform(0.05, 1005));
  return corruptor.corrupt(merged);
}

/// Baseline, then probe trains from an idle host against the NTP service.
/// The probes are data-plane noise (a few kb/s at a service node the group
/// extractor excludes) but every 5-tuple is fresh, so the controller's
/// serial queue rings: CRT shifts with no application change.
std::vector<of::ControlEvent> fingerprint_stream() {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  std::vector<of::ControlEvent> stream;
  append_capture(stream, lab.run_window());
  wl::FingerprintProber prober(lab.net(), lab.lab().host("S16"),
                               lab.lab().services.ntp, wl::FingerprintSpec{},
                               Rng(901));
  const SimTime begin = lab.now();
  prober.start(begin + 3 * kSecond, begin + 27 * kSecond);
  append_capture(stream, lab.run_window());
  return stream;
}

/// Baseline, then a six-host botnet salvos short spoofed flows at the
/// oscommerce web server: fan-in of new CG edges plus a CRT shift from the
/// PacketIn storm.
std::vector<of::ControlEvent> flood_stream() {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  std::vector<of::ControlEvent> stream;
  append_capture(stream, lab.run_window());
  const auto& lab_scenario = lab.lab();
  std::vector<HostId> botnet = {
      lab_scenario.host("S1"),  lab_scenario.host("S5"),
      lab_scenario.host("S9"),  lab_scenario.host("S13"),
      lab_scenario.host("S18"), lab_scenario.host("S22")};
  wl::VolumetricFlood flood(lab.net(), std::move(botnet),
                            lab_scenario.ip("S7"), wl::FloodSpec{}, Rng(902));
  const SimTime begin = lab.now();
  flood.start(begin + 3 * kSecond, begin + 27 * kSecond);
  append_capture(stream, lab.run_window());
  return stream;
}

/// Baseline, then twelve workers answer a barrier with synchronized bursts
/// to the oscommerce application server: correlated PacketIn/FlowMod fan-in
/// and a congested access path that stretches everyone's delays.
std::vector<of::ControlEvent> incast_stream() {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  std::vector<of::ControlEvent> stream;
  append_capture(stream, lab.run_window());
  const auto& lab_scenario = lab.lab();
  std::vector<HostId> workers;
  for (const char* name : {"S1", "S2", "S5", "S6", "S8", "S9", "S11", "S13",
                           "S16", "S17", "S21", "S22"}) {
    workers.push_back(lab_scenario.host(name));
  }
  wl::IncastTraffic incast(lab.net(), std::move(workers),
                           lab_scenario.host("S10"), wl::IncastSpec{},
                           Rng(903));
  const SimTime begin = lab.now();
  incast.start(begin + 3 * kSecond, begin + 27 * kSecond);
  append_capture(stream, lab.run_window());
  return stream;
}

struct CaseSpec {
  const char* name;
  bool sanitize;
  std::vector<of::ControlEvent> (*stream)();
};

constexpr CaseSpec kCases[] = {
    {"steady", false, steady_stream},
    {"slowdown", false, slowdown_stream},
    {"unauthorized", false, unauthorized_stream},
    {"corrupted_slowdown", true, corrupted_slowdown_stream},
    {"fingerprint", false, fingerprint_stream},
    {"flood", false, flood_stream},
    {"incast", false, incast_stream},
};

int run(const std::string& out_dir) {
  for (const CaseSpec& spec : kCases) {
    // The header only needs the monitor knobs, which are identical for
    // every lab; build a throwaway lab to get the service IPs.
    exp::LabExperiment lab{exp::LabExperimentConfig{}};
    const core::MonitorOptions options = corpus_options(lab, spec.sanitize);
    const std::string text =
        exp::serialize_corpus_case(options, spec.stream());

    // Golden text comes from the exact parse+replay path the regression
    // test uses, so generator and test cannot disagree.
    const auto parsed = exp::parse_corpus_case(text);
    if (!parsed) {
      std::fprintf(stderr, "%s: serialized case failed to re-parse\n",
                   spec.name);
      return 1;
    }
    const std::string golden = exp::replay_corpus_case(*parsed);
    const std::string provenance = exp::replay_corpus_provenance(*parsed);

    const std::string log_path = out_dir + "/" + spec.name + ".log";
    const std::string golden_path = out_dir + "/" + spec.name + ".golden";
    const std::string provenance_path =
        out_dir + "/" + spec.name + ".provenance";
    if (!of::write_file(log_path, text) ||
        !of::write_file(golden_path, golden) ||
        !of::write_file(provenance_path, provenance)) {
      std::fprintf(stderr, "%s: write failed (does %s exist?)\n", spec.name,
                   out_dir.c_str());
      return 1;
    }

    // Summarize so a regeneration run shows what changed behaviorally.
    std::size_t alarms = 0;
    for (const char* p = golden.c_str(); (p = std::strstr(p, "ALARM:"));
         ++p) {
      ++alarms;
    }
    std::printf(
        "%-20s events=%-6zu transcript=%zu bytes alarms=%zu "
        "provenance=%zu bytes\n",
        spec.name, parsed->events.size(), golden.size(), alarms,
        provenance.size());
  }
  return 0;
}

}  // namespace
}  // namespace flowdiff

int main(int argc, char** argv) {
  const std::string out_dir = argc > 1 ? argv[1] : "tests/corpus";
  return flowdiff::run(out_dir);
}
