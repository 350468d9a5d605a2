// Fig. 13 reproduction: scalability of FlowDiff.
//  (a) PacketIn messages per second for different numbers of randomly
//      placed three-tier applications on the 320-server tree.
//  (b) FlowDiff processing (modeling) time versus the number of
//      applications — sub-linear in the paper.
#include <cstdio>

#include "experiment/scalability.h"
#include "util/stats.h"
#include "util/table.h"

namespace flowdiff {
namespace {

int run() {
  std::printf("=== Fig. 13: scalability ===\n");
  std::printf("320-server tree, ON/OFF lognormal(100ms, 30ms) all-pairs "
              "tier traffic, reuse 0.6, 20 s of simulated traffic, "
              "3 repetitions per point.\n\n");

  const std::vector<int> app_counts = {1, 3, 5, 7, 9, 11, 13, 15, 17, 19};
  constexpr int kReps = 3;

  TextTable table({"apps", "PacketIn/s (mean)", "proc time s (mean)",
                   "proc time s (sd)", "groups"});
  std::vector<double> apps_axis;
  std::vector<double> rate_axis;
  std::vector<double> time_axis;
  for (const int n : app_counts) {
    RunningStats rate;
    RunningStats proc;
    std::size_t groups = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      exp::ScalabilityConfig config;
      config.app_count = n;
      config.seed = 1000 + static_cast<std::uint64_t>(rep);
      const auto result = exp::run_scalability(config);
      rate.add(result.packet_ins_per_sec);
      proc.add(result.processing_sec);
      groups = result.groups_found;
    }
    apps_axis.push_back(n);
    rate_axis.push_back(rate.mean());
    time_axis.push_back(proc.mean());
    table.add_row({std::to_string(n), fmt_double(rate.mean(), 1),
                   fmt_double(proc.mean(), 4), fmt_double(proc.stddev(), 4),
                   std::to_string(groups)});
  }
  std::printf("%s\n", table.render().c_str());

  // Fig. 13(a) proper is a time series; print it for the paper's 1/9/19
  // app curves.
  std::printf("(a) PacketIn/s time series (20 s, 1 s buckets):\n");
  for (const int n : {1, 9, 19}) {
    exp::ScalabilityConfig config;
    config.app_count = n;
    config.seed = 1000;
    const auto result = exp::run_scalability(config);
    std::printf("  %2d app%s:", n, n == 1 ? " " : "s");
    for (const double v : result.packet_ins_per_sec_series) {
      std::printf(" %4.0f", v);
    }
    std::printf("\n");
  }
  std::printf("\n");

  // Sub-linearity check over the upper half of the sweep (tiny runs are
  // dominated by fixed costs): per-app processing time must not grow.
  const std::size_t mid = app_counts.size() / 2;
  const double mid_cost = time_axis[mid] / apps_axis[mid];
  const double late_cost = time_axis.back() / apps_axis.back();
  std::printf("PacketIn rate grows ~linearly with apps "
              "(x%.1f rate for x%.0f apps).\n",
              rate_axis.back() / rate_axis.front(),
              apps_axis.back() / apps_axis.front());
  std::printf("Processing time per app: %.5fs at %.0f apps vs %.5fs at %.0f "
              "apps -> %s (paper: sub-linear growth).\n",
              mid_cost, apps_axis[mid], late_cost, apps_axis.back(),
              late_cost <= mid_cost * 1.2 ? "sub-linear / linear-at-worst"
                                          : "super-linear (!)");
  return 0;
}

}  // namespace
}  // namespace flowdiff

int main() { return flowdiff::run(); }
