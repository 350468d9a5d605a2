// Offline diagnosis tool: FlowDiff over saved control logs.
//
//   offline_diff <baseline.log> <current.log> [services.txt]
//
// diffs two captured control logs (format: openflow/log_io.h); the optional
// third file lists special-purpose service IPs, one per line. Run with no
// arguments for a self-contained demo that captures two windows from the
// simulated testbed, saves them to disk, reloads, and diffs — the exact
// offline workflow an operator would use.
#include <cstdio>
#include <string>

#include "experiment/lab_experiment.h"
#include "openflow/log_io.h"

namespace {

using namespace flowdiff;

int diff_files(const std::string& baseline_path,
               const std::string& current_path,
               const std::string& services_path) {
  const auto baseline_text = of::read_file(baseline_path);
  const auto current_text = of::read_file(current_path);
  if (!baseline_text || !current_text) {
    std::fprintf(stderr, "error: cannot read input logs\n");
    return 2;
  }
  const auto baseline_log = of::parse_control_log(*baseline_text);
  const auto current_log = of::parse_control_log(*current_text);
  if (!baseline_log || !current_log) {
    std::fprintf(stderr, "error: malformed control log\n");
    return 2;
  }

  core::FlowDiffConfig config;
  if (!services_path.empty()) {
    const auto services_text = of::read_file(services_path);
    if (!services_text) {
      std::fprintf(stderr, "error: cannot read %s\n", services_path.c_str());
      return 2;
    }
    std::set<Ipv4> services;
    std::string line;
    for (std::size_t pos = 0; pos < services_text->size();) {
      const auto end = services_text->find('\n', pos);
      line = services_text->substr(
          pos, end == std::string::npos ? std::string::npos : end - pos);
      if (const auto ip = Ipv4::parse(line)) services.insert(*ip);
      if (end == std::string::npos) break;
      pos = end + 1;
    }
    config.model.special_nodes = std::move(services);
  }

  const core::FlowDiff flowdiff(config);
  const auto report = flowdiff.diff(flowdiff.model(*baseline_log),
                                    flowdiff.model(*current_log));
  std::fputs(report.render().c_str(), stdout);
  return report.clean() ? 0 : 1;
}

int demo() {
  std::puts("no arguments: running the self-contained demo\n");
  exp::LabExperiment lab{exp::LabExperimentConfig{}};

  std::puts("capturing + saving baseline window...");
  const std::string baseline_path = "/tmp/flowdiff_baseline.log";
  const std::string current_path = "/tmp/flowdiff_current.log";
  const std::string services_path = "/tmp/flowdiff_services.txt";
  of::write_file(baseline_path, of::serialize(lab.run_window()));

  std::puts("capturing + saving a window with a crashed app server...");
  faults::AppCrashFault crash(lab.net(), lab.lab().ip("S10"), 8009);
  of::write_file(current_path, of::serialize(lab.run_window(&crash)));

  std::string services;
  for (const Ipv4 ip : lab.lab().services.special_nodes()) {
    services += ip.to_string() + "\n";
  }
  of::write_file(services_path, services);

  std::printf("\nreplaying offline: offline_diff %s %s %s\n\n",
              baseline_path.c_str(), current_path.c_str(),
              services_path.c_str());
  const int rc = diff_files(baseline_path, current_path, services_path);
  return rc == 1 ? 0 : 1;  // The demo *should* find the crash.
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return demo();
  return diff_files(argv[1], argv[2], argc > 3 ? argv[3] : "");
}
