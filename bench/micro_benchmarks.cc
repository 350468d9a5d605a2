// Google-benchmark microbenchmarks for FlowDiff's analysis pipeline:
// log parsing, signature extraction, task mining (with and without closed
// pruning), online task detection, and model diffing — plus the
// observability layer's overhead on the model+diff path (disabled
// instrumentation must stay within noise; enabled shows the real cost).
#include <benchmark/benchmark.h>

#include "flowdiff/flowdiff.h"
#include "obs/obs.h"
#include "workload/tasks.h"

namespace flowdiff {
namespace {

const Ipv4 kHostA(10, 0, 0, 1);
const Ipv4 kHostB(10, 0, 0, 2);
const Ipv4 kHostC(10, 0, 0, 3);

/// Synthetic control log for a three-node chain with `flows` requests.
of::ControlLog synth_log(int flows) {
  of::ControlLog log;
  Rng rng(7);
  for (int i = 0; i < flows; ++i) {
    const SimTime t = i * 10 * kMillisecond;
    const auto sport = static_cast<std::uint16_t>(40000 + (i % 20000));
    for (int hop = 0; hop < 2; ++hop) {
      of::PacketIn pin;
      pin.sw = SwitchId{static_cast<std::uint32_t>(hop)};
      pin.in_port = PortId{1};
      pin.key = of::FlowKey{kHostA, kHostB, sport, 80, of::Proto::kTcp};
      log.append(of::ControlEvent{t + hop * 300, ControllerId{0}, pin});
      of::FlowMod fm;
      fm.sw = pin.sw;
      fm.out_port = PortId{2};
      fm.key = pin.key;
      log.append(of::ControlEvent{t + hop * 300 + 150, ControllerId{0}, fm});
    }
    of::PacketIn pin;
    pin.sw = SwitchId{2};
    pin.in_port = PortId{1};
    pin.key = of::FlowKey{kHostB, kHostC, sport, 3306, of::Proto::kTcp};
    log.append(
        of::ControlEvent{t + 25 * kMillisecond, ControllerId{0}, pin});
  }
  return log;
}

wl::ServiceCatalog bench_services() {
  wl::ServiceCatalog s;
  s.dns = Ipv4(10, 0, 10, 2);
  s.nfs = Ipv4(10, 0, 10, 1);
  s.dhcp = Ipv4(10, 0, 10, 3);
  s.ntp = Ipv4(10, 0, 10, 4);
  s.netbios = Ipv4(10, 0, 10, 5);
  s.metadata = Ipv4(10, 0, 10, 6);
  s.apt_mirror = Ipv4(10, 0, 10, 7);
  return s;
}

void BM_ParseLog(benchmark::State& state) {
  const auto log = synth_log(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::parse_log(log));
  }
  state.SetItemsProcessed(state.iterations() * log.size());
}
BENCHMARK(BM_ParseLog)->Arg(100)->Arg(1000)->Arg(10000)->Iterations(50);

void BM_ExtractGroupSignatures(benchmark::State& state) {
  const auto parsed = core::parse_log(synth_log(
      static_cast<int>(state.range(0))));
  const std::set<Ipv4> members{kHostA, kHostB, kHostC};
  const core::AppSignatureConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::extract_group_signatures(parsed, members, config));
  }
  state.SetItemsProcessed(state.iterations() * parsed.occurrences.size());
}
BENCHMARK(BM_ExtractGroupSignatures)->Arg(100)->Arg(1000)->Arg(5000)->Iterations(50);

void BM_BuildModel(benchmark::State& state) {
  const auto log = synth_log(static_cast<int>(state.range(0)));
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowdiff.model(log));
  }
}
BENCHMARK(BM_BuildModel)->Arg(100)->Arg(1000)->Arg(5000)->Iterations(20);

void BM_DiffModels(benchmark::State& state) {
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const auto base = flowdiff.model(synth_log(2000));
  const auto cur = flowdiff.model(synth_log(2000));
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowdiff.diff(base, cur));
  }
}
BENCHMARK(BM_DiffModels)->Iterations(5000);

// --- observability overhead --------------------------------------------
// The same model+diff path with the obs layer switched on: counters,
// histograms, and spans all fire. Compare against BM_BuildModel /
// BM_DiffModels (obs off, the default) to read the instrumentation cost.

void BM_BuildModelObsEnabled(benchmark::State& state) {
  const auto log = synth_log(static_cast<int>(state.range(0)));
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  obs::set_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowdiff.model(log));
    // Keep the bounded span buffer from saturating mid-run; aggregates
    // would stay exact either way but dropped records skew nothing here.
    obs::Trace::global().clear();
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();
  obs::Trace::global().clear();
}
BENCHMARK(BM_BuildModelObsEnabled)->Arg(100)->Arg(1000)->Arg(5000)->Iterations(20);

void BM_DiffModelsObsEnabled(benchmark::State& state) {
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const auto base = flowdiff.model(synth_log(2000));
  const auto cur = flowdiff.model(synth_log(2000));
  obs::set_enabled(true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowdiff.diff(base, cur));
    obs::Trace::global().clear();
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();
  obs::Trace::global().clear();
}
BENCHMARK(BM_DiffModelsObsEnabled)->Iterations(5000);

// The per-window telemetry cadence on top of the instrumented diff: one
// registry-wide Sampler snapshot plus a recorder append per iteration.
// Compare against BM_DiffModelsObsEnabled for the sampling surcharge.
void BM_DiffModelsObsSampled(benchmark::State& state) {
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const auto base = flowdiff.model(synth_log(2000));
  const auto cur = flowdiff.model(synth_log(2000));
  obs::set_enabled(true);
  obs::Sampler sampler;
  obs::FlightRecorder recorder;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowdiff.diff(base, cur));
    sampler.sample(t += 1.0);
    recorder.record(obs::Severity::kInfo, "bench", "window closed");
    obs::Trace::global().clear();
  }
  obs::set_enabled(false);
  obs::Registry::global().reset();
  obs::Trace::global().clear();
}
BENCHMARK(BM_DiffModelsObsSampled)->Iterations(5000);

// Disabled-path cost of the new telemetry entry points: with obs off,
// sample() and record() must be a relaxed load and a branch — this variant
// should read within noise of BM_DiffModels.
void BM_DiffModelsSamplerDisabled(benchmark::State& state) {
  const core::FlowDiff flowdiff{core::FlowDiffConfig{}};
  const auto base = flowdiff.model(synth_log(2000));
  const auto cur = flowdiff.model(synth_log(2000));
  obs::Sampler sampler;
  obs::FlightRecorder recorder;
  double t = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(flowdiff.diff(base, cur));
    sampler.sample(t += 1.0);
    recorder.record(obs::Severity::kInfo, "bench", "window closed");
  }
}
BENCHMARK(BM_DiffModelsSamplerDisabled)->Iterations(5000);

std::vector<of::FlowSequence> migration_runs(int n) {
  const auto services = bench_services();
  Rng rng(11);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < n; ++i) {
    runs.push_back(wl::expand_task(wl::vm_migration_profile(),
                                   {Ipv4(10, 0, 1, 1), Ipv4(10, 0, 2, 1)},
                                   services, rng, 0)
                       .flows);
  }
  return runs;
}

void BM_MineTask(benchmark::State& state) {
  const auto runs = migration_runs(static_cast<int>(state.range(0)));
  core::MiningConfig config;
  config.mask_subjects = true;
  const auto specials = bench_services().special_nodes();
  config.service_ips = {specials.begin(), specials.end()};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_task("migration", runs, config));
  }
}
BENCHMARK(BM_MineTask)->Arg(10)->Arg(50)->Arg(100)->Iterations(50);

void BM_ClosedPrune(benchmark::State& state) {
  // Ablation: cost (and benefit) of the closed-pattern pruning stage.
  const auto runs = migration_runs(50);
  core::MiningConfig config;
  config.mask_subjects = true;
  const auto specials = bench_services().special_nodes();
  config.service_ips = {specials.begin(), specials.end()};
  const auto mined = core::mine_task("migration", runs, config);
  const auto raw =
      core::frequent_contiguous_patterns(mined.filtered_runs, 0.6);
  for (auto _ : state) {
    auto copy = raw;
    benchmark::DoNotOptimize(core::closed_prune(std::move(copy)));
  }
  state.counters["raw_patterns"] = static_cast<double>(raw.size());
  state.counters["closed_patterns"] =
      static_cast<double>(core::closed_prune(raw).size());
}
BENCHMARK(BM_ClosedPrune)->Iterations(5000);

void BM_DetectTask(benchmark::State& state) {
  const auto runs = migration_runs(20);
  core::MiningConfig config;
  config.mask_subjects = true;
  const auto specials = bench_services().special_nodes();
  config.service_ips = {specials.begin(), specials.end()};
  const auto automaton = core::mine_task("migration", runs, config).automaton;

  // Stream: one fresh run buried in background noise.
  Rng rng(13);
  auto fresh = wl::expand_task(wl::vm_migration_profile(),
                               {Ipv4(10, 0, 3, 1), Ipv4(10, 0, 4, 1)},
                               bench_services(), rng, kSecond);
  std::vector<Ipv4> hosts;
  for (int i = 0; i < 12; ++i) {
    hosts.push_back(Ipv4(10, 0, 5, static_cast<std::uint8_t>(i + 1)));
  }
  const auto noise = wl::background_noise(
      hosts, static_cast<std::size_t>(state.range(0)), 0,
      fresh.end + kSecond, rng);
  const auto stream = wl::merge_sequences({fresh.flows, noise});

  core::DetectorConfig det;
  det.service_ips = config.service_ips;
  const core::TaskDetector detector({automaton}, det);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detector.detect(stream));
  }
  state.SetItemsProcessed(state.iterations() * stream.size());
}
BENCHMARK(BM_DetectTask)->Arg(100)->Arg(1000)->Arg(5000)->Iterations(50);

}  // namespace
}  // namespace flowdiff

// Custom main: benchmarks run a fixed iteration count (no calibration
// re-entry of the expensive fixtures), so the suite stays quick unattended;
// explicit --benchmark_* flags still win.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  std::string min_time = "--benchmark_min_time=0.05";
  bool user_set = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]).starts_with("--benchmark_min_time")) {
      user_set = true;
    }
  }
  if (!user_set) args.push_back(min_time.data());
  int count = static_cast<int>(args.size());
  benchmark::Initialize(&count, args.data());
  if (benchmark::ReportUnrecognizedArguments(count, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
