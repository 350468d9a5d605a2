// Seed determinism for the adversarial workload generators: the same seed
// must reproduce the exact capture bytes run over run (the property the
// committed attack corpus rests on), and replaying a committed attack case
// must render its committed transcript.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "experiment/lab_experiment.h"
#include "openflow/log_io.h"
#include "workload/fingerprint.h"
#include "workload/flood.h"
#include "workload/incast.h"

namespace flowdiff::exp {
namespace {

enum class Family { kFingerprint, kFlood, kIncast };

/// One attack window captured from a fresh lab, serialized with the corpus
/// replay header — the byte string two runs must agree on.
std::string serialized_attack_window(Family family) {
  LabExperiment lab{LabExperimentConfig{}};
  const auto& scenario = lab.lab();
  const SimTime begin = lab.now();
  const SimTime attack_begin = begin + 2 * kSecond;
  const SimTime attack_end = begin + 20 * kSecond;

  wl::FingerprintProber prober(lab.net(), scenario.host("S16"),
                               scenario.services.ntp, wl::FingerprintSpec{},
                               Rng(901));
  wl::VolumetricFlood flood(lab.net(),
                            {scenario.host("S1"), scenario.host("S5"),
                             scenario.host("S9"), scenario.host("S13")},
                            scenario.ip("S7"), wl::FloodSpec{}, Rng(902));
  wl::IncastTraffic incast(lab.net(),
                           {scenario.host("S1"), scenario.host("S2"),
                            scenario.host("S5"), scenario.host("S6"),
                            scenario.host("S8"), scenario.host("S9")},
                           scenario.host("S10"), wl::IncastSpec{}, Rng(903));
  switch (family) {
    case Family::kFingerprint:
      prober.start(attack_begin, attack_end);
      break;
    case Family::kFlood:
      flood.start(attack_begin, attack_end);
      break;
    case Family::kIncast:
      incast.start(attack_begin, attack_end);
      break;
  }
  const auto capture = lab.run_window();

  core::MonitorConfig config;
  config.flowdiff = lab.flowdiff_config();
  config.window = 40 * kSecond;
  config.rolling_baseline = false;
  config.sample_metrics = false;
  return serialize_corpus_case(config, capture.events());
}

TEST(WorkloadDeterminism, SameSeedReproducesIdenticalCaptureBytes) {
  for (const Family family :
       {Family::kFingerprint, Family::kFlood, Family::kIncast}) {
    SCOPED_TRACE(static_cast<int>(family));
    const std::string first = serialized_attack_window(family);
    EXPECT_FALSE(first.empty());
    EXPECT_EQ(serialized_attack_window(family), first)
        << "two runs with the same seed diverged";
  }
}

TEST(WorkloadDeterminism, AttackGeneratorsActuallyEmit) {
  // The identity test above would pass vacuously for a generator that
  // schedules nothing; pin that each family injects flows at intensity 1.
  LabExperiment lab{LabExperimentConfig{}};
  const auto& scenario = lab.lab();
  const SimTime begin = lab.now();
  wl::FingerprintProber prober(lab.net(), scenario.host("S16"),
                               scenario.services.ntp, wl::FingerprintSpec{},
                               Rng(901));
  wl::VolumetricFlood flood(lab.net(),
                            {scenario.host("S1"), scenario.host("S5")},
                            scenario.ip("S7"), wl::FloodSpec{}, Rng(902));
  wl::IncastTraffic incast(lab.net(),
                           {scenario.host("S2"), scenario.host("S6"),
                            scenario.host("S8"), scenario.host("S9")},
                           scenario.host("S10"), wl::IncastSpec{}, Rng(903));
  prober.start(begin + kSecond, begin + 10 * kSecond);
  flood.start(begin + kSecond, begin + 10 * kSecond);
  incast.start(begin + kSecond, begin + 10 * kSecond);
  (void)lab.run_window();
  EXPECT_GT(prober.probes_sent(), 0u);
  EXPECT_GT(flood.flows_sent(), 0u);
  EXPECT_GT(incast.flows_sent(), 0u);
  EXPECT_GT(incast.bursts_sent(), 0u);
}

TEST(WorkloadDeterminism, ReplayMatchesGoldenAtAnyWorkerCount) {
  // Replaying each committed attack case renders its golden byte for byte.
  for (const char* name : {"fingerprint", "flood", "incast"}) {
    SCOPED_TRACE(name);
    const std::string dir = FLOWDIFF_CORPUS_DIR;
    const auto text = of::read_file(dir + "/" + name + ".log");
    ASSERT_TRUE(text.has_value()) << name << ".log missing";
    const auto parsed = parse_corpus_case(*text);
    ASSERT_TRUE(parsed.has_value());
    const auto golden = of::read_file(dir + "/" + name + ".golden");
    ASSERT_TRUE(golden.has_value()) << name << ".golden missing";
    EXPECT_EQ(replay_corpus_case(*parsed), *golden)
        << "replay diverged from the golden";
  }
}

}  // namespace
}  // namespace flowdiff::exp
