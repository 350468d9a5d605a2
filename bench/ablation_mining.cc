// Mining-parameter ablation (design choices called out in DESIGN.md):
// how the support threshold (min_sup), IP masking, and closed-pattern
// pruning shape the learned automata and their accuracy.
//
// Task: VM migration, 30 training runs. TP over 20 fresh runs of the same
// VM pair; generalization over 20 runs of a different pair (should match
// only when masked); FP over interleaved noise-only streams.
#include <cstdio>

#include "flowdiff/task_mining.h"
#include "util/table.h"
#include "workload/tasks.h"

namespace flowdiff {
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

int run() {
  const auto svc = services();
  std::set<Ipv4> service_ips;
  for (const Ipv4 ip : svc.special_nodes()) service_ips.insert(ip);
  const Ipv4 vm_a(10, 0, 1, 1);
  const Ipv4 vm_b(10, 0, 2, 1);
  const Ipv4 vm_c(10, 0, 3, 1);
  const Ipv4 vm_d(10, 0, 4, 1);

  Rng rng(2024);
  auto migrate = [&](Ipv4 a, Ipv4 b) {
    return wl::expand_task(wl::vm_migration_profile(), {a, b}, svc, rng, 0)
        .flows;
  };
  std::vector<of::FlowSequence> training;
  for (int i = 0; i < 30; ++i) training.push_back(migrate(vm_a, vm_b));

  core::DetectorConfig det;
  det.service_ips = service_ips;
  auto matches = [&](const core::TaskAutomaton& automaton,
                     const of::FlowSequence& flows) {
    return !core::detect_tasks({automaton}, det, flows).empty();
  };

  std::printf("=== Ablation: task-mining parameters ===\n");
  std::printf("VM migration, 30 training runs; TP = same-pair rematch, "
              "GEN = different-pair match, FP = noise-only streams.\n\n");

  TextTable table({"min_sup", "masked", "raw pats", "closed pats", "states",
                   "TP /20", "GEN /20", "FP /20"});
  for (const double min_sup : {0.3, 0.6, 0.9}) {
    for (const bool masked : {false, true}) {
      core::MiningConfig config;
      config.min_sup = min_sup;
      config.mask_subjects = masked;
      config.service_ips = service_ips;
      const auto mined = core::mine_task("vm_migration", training, config);
      const auto raw = core::frequent_contiguous_patterns(
          mined.filtered_runs, min_sup);

      int tp = 0;
      int gen = 0;
      int fp = 0;
      for (int i = 0; i < 20; ++i) {
        if (matches(mined.automaton, migrate(vm_a, vm_b))) ++tp;
        if (matches(mined.automaton, migrate(vm_c, vm_d))) ++gen;
        const auto noise = wl::background_noise(
            {vm_a, vm_b, vm_c, vm_d, svc.nfs}, 120, 0, 10 * kSecond, rng);
        if (matches(mined.automaton, noise)) ++fp;
      }
      table.add_row({fmt_double(min_sup, 1), masked ? "yes" : "no",
                     std::to_string(raw.size()),
                     std::to_string(mined.patterns.size()),
                     std::to_string(mined.automaton.state_count()),
                     std::to_string(tp), std::to_string(gen),
                     std::to_string(fp)});
    }
  }
  std::printf("%s\n", table.render().c_str());
  std::printf(
      "Expected shape: closed pruning collapses the raw pattern set several-"
      "fold;\nunmasked automata never generalize to other VM pairs (GEN=0) "
      "while masked\nones always do; random noise alone never completes an "
      "automaton (FP=0);\nmin_sup mainly trades automaton compactness, not "
      "accuracy.\n");
  return 0;
}

}  // namespace
}  // namespace flowdiff

int main() { return flowdiff::run(); }
