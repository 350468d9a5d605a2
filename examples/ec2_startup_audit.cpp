// EC2-style startup audit (paper SectionV-A: "FlowDiff in the wild").
//
// Without access to the provider's network, each VM records its own boot
// flows (the paper inserted tcpdump into the boot order). From 50 recorded
// boots per image we learn startup automata, then audit a day's mixed
// flow capture: which VMs booted, when, and whether any boot matches a
// foreign image's profile.
//
// Build & run:  ./build/examples/ec2_startup_audit
#include <cstdio>

#include "flowdiff/task_mining.h"
#include "workload/tasks.h"

int main() {
  using namespace flowdiff;

  wl::ServiceCatalog services;
  services.dns = Ipv4(172, 16, 0, 23);
  services.nfs = Ipv4(172, 16, 0, 10);
  services.dhcp = Ipv4(172, 16, 0, 1);
  services.ntp = Ipv4(172, 16, 0, 2);
  services.netbios = Ipv4(172, 16, 0, 3);
  services.metadata = Ipv4(169, 254, 169, 254);
  services.apt_mirror = Ipv4(172, 16, 0, 80);
  std::set<Ipv4> service_ips;
  for (const Ipv4 ip : services.special_nodes()) service_ips.insert(ip);

  struct Image {
    const char* name;
    int variant;
  };
  const Image images[] = {{"ami-base-a", 0}, {"ami-base-b", 1},
                          {"ubuntu-lts", 3}};
  const Ipv4 fleet[] = {Ipv4(10, 50, 0, 1), Ipv4(10, 50, 0, 2),
                        Ipv4(10, 50, 0, 3)};

  // --- Learn one masked automaton per image from 50 recorded boots.
  Rng rng(7);
  std::vector<core::TaskAutomaton> automata;
  for (const auto& image : images) {
    std::vector<of::FlowSequence> boots;
    for (int i = 0; i < 50; ++i) {
      boots.push_back(wl::expand_task(wl::vm_startup_profile(image.variant),
                                      {Ipv4(10, 99, 0, 1)}, services, rng, 0)
                          .flows);
    }
    core::MiningConfig config;
    config.mask_subjects = true;
    config.service_ips = service_ips;
    auto mined = core::mine_task(image.name, boots, config);
    std::printf("learned '%s': %zu common flows, %zu automaton states\n",
                image.name, mined.common_flows.size(),
                mined.automaton.state_count());
    automata.push_back(std::move(mined.automaton));
  }

  // --- Build the day's capture: three boots at different times, plus
  //     unrelated chatter between fleet hosts.
  std::puts("\nauditing a mixed capture (3 boots + background chatter)...");
  std::vector<of::FlowSequence> pieces;
  const int boot_variant[] = {0, 3, 1};  // What actually booted.
  for (int i = 0; i < 3; ++i) {
    pieces.push_back(
        wl::expand_task(wl::vm_startup_profile(boot_variant[i]),
                        {fleet[i]}, services, rng,
                        (1 + 20 * i) * kSecond)
            .flows);
  }
  pieces.push_back(wl::background_noise(
      {fleet[0], fleet[1], fleet[2]}, 120, 0, 70 * kSecond, rng));
  const auto capture = wl::merge_sequences(std::move(pieces));

  core::DetectorConfig det;
  det.service_ips = service_ips;
  const auto found = core::detect_tasks(automata, det, capture);

  std::printf("detected %zu startup events:\n", found.size());
  for (const auto& occ : found) {
    std::string who = "?";
    for (int i = 0; i < 3; ++i) {
      for (const Ipv4 ip : occ.involved) {
        if (ip == fleet[i]) who = "vm" + std::to_string(i + 1);
      }
    }
    std::printf("  t=%5.1fs  image=%-12s  host=%s\n",
                to_seconds(occ.begin), occ.task.c_str(), who.c_str());
  }
  std::puts("\nexpected: vm1 booted ami-base-a, vm2 booted ubuntu-lts, "
            "vm3 booted ami-base-b (AMI images may rarely cross-match — "
            "the paper's Table III false positives).");
  return 0;
}
