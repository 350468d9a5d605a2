// Scalability experiment (paper SectionV-C / Fig. 13).
//
// N randomly placed three-tier applications on the 320-server tree; every
// VM in a tier talks to every VM in the next tier with ON/OFF lognormal
// traffic (mean 100 ms, sd 30 ms) and connection-reuse probability 0.6.
// Reports the PacketIn rate the controller observed and the wall-clock time
// FlowDiff needs to model the captured log.
#pragma once

#include <cstdint>
#include <vector>

#include "openflow/control_log.h"
#include "util/time.h"

namespace flowdiff::exp {

struct ScalabilityConfig {
  int app_count = 1;
  SimDuration duration = 20 * kSecond;
  std::uint64_t seed = 42;
  double reuse_prob = 0.6;
};

struct ScalabilityResult {
  std::uint64_t packet_ins = 0;
  double packet_ins_per_sec = 0.0;
  /// Wall-clock seconds FlowDiff spent building the behavior model.
  double processing_sec = 0.0;
  std::size_t groups_found = 0;
  /// PacketIn counts per simulated second (the Fig. 13(a) time series).
  std::vector<double> packet_ins_per_sec_series;
};

ScalabilityResult run_scalability(const ScalabilityConfig& config);

/// Runs only the simulation half of the experiment and returns the control
/// log the controller captured — the multi-app workload tests use it to
/// feed FlowDiff themselves without re-simulating per configuration.
of::ControlLog capture_scalability_log(const ScalabilityConfig& config);

}  // namespace flowdiff::exp
