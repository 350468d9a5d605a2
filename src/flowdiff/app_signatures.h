// Application signatures (paper SectionIII-B): connectivity graph, flow
// statistics, component interaction, delay distribution, and partial
// correlation — all computed from flow starts (PacketIn) and flow counters
// (FlowRemoved) of one application group.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <span>
#include <tuple>
#include <utility>
#include <vector>

#include "flowdiff/log_model.h"
#include "util/graph.h"
#include "util/histogram.h"
#include "util/ipv4.h"
#include "util/stats.h"

namespace flowdiff::core {

/// A host-level directed edge (ports collapsed).
using HostEdge = std::pair<Ipv4, Ipv4>;

/// An adjacent edge pair at a node: (a -> b, b -> c).
using EdgePair = std::tuple<Ipv4, Ipv4, Ipv4>;

struct AppSignatureConfig {
  double dd_bin_ms = 20.0;            ///< Paper uses 20 ms bins.
  /// Pairing window for delays. Tight enough that coincidental in/out
  /// pairings do not drown the genuine dependency delays.
  SimDuration dd_window = 500 * kMillisecond;
  std::uint64_t min_edge_flows = 5;   ///< Ignore sparser edges.
};

/// Epoch of the per-edge flow-count series that PC correlates.
inline constexpr SimDuration kPcEpoch = kSecond;

// --- Connectivity graph -----------------------------------------------------

struct ConnectivityGraph {
  Digraph<Ipv4> graph;

  /// Edges present in `current` but not here / here but not in `current`.
  struct Diff {
    std::vector<HostEdge> added;
    std::vector<HostEdge> removed;
  };
  [[nodiscard]] Diff diff(const ConnectivityGraph& current) const;
};

// --- Flow statistics --------------------------------------------------------

struct FlowStatsSig {
  struct EdgeStats {
    std::uint64_t flow_count = 0;
    RunningStats bytes;        ///< Per expired entry (FlowRemoved).
    RunningStats duration_ms;  ///< Entry lifetime.
    SimTime first_ts = 0;      ///< First flow start on this edge.
  };
  std::map<HostEdge, EdgeStats> per_edge;
  RunningStats flows_per_sec;  ///< Over one-second buckets, group-wide.
};

/// End of the group-wide flow rate's one-second buckets over [begin, end):
/// at least one second past `begin`, saturating at the largest SimTime.
[[nodiscard]] SimTime flow_rate_end(SimTime begin, SimTime end);

// --- Component interaction ---------------------------------------------------

struct ComponentInteractionSig {
  /// Per node: flow count per incident edge (in and out), and the total.
  struct NodeCi {
    std::map<HostEdge, std::uint64_t> edge_counts;
    std::uint64_t total = 0;

    [[nodiscard]] double normalized(const HostEdge& e) const {
      if (total == 0) return 0.0;
      auto it = edge_counts.find(e);
      return it == edge_counts.end()
                 ? 0.0
                 : static_cast<double>(it->second) /
                       static_cast<double>(total);
    }
  };
  std::map<Ipv4, NodeCi> per_node;

  /// Chi-squared fitness of `observed` (current) against this signature
  /// (expected) at one node, over the union of incident edges. Counts are
  /// normalized so differing log lengths do not dominate.
  [[nodiscard]] static double chi2_at_node(const NodeCi& expected,
                                           const NodeCi& observed);
};

// --- Delay distribution -------------------------------------------------------

struct DelayDistributionSig {
  struct PairDd {
    Histogram hist{20.0};
    double peak_ms = 0.0;
    /// Histogram mean from bin *midpoints* (origin + (b + 0.5) * width —
    /// bin-origin weighting would bias it low by half a bin). Informational
    /// only: diffing compares peak_ms and the normalized shape, never this
    /// (diagnosis_test pins that independence).
    double mean_ms = 0.0;
    std::uint64_t samples = 0;
    /// Number of in-edge flow starts paired against. Normalizing bin
    /// counts by this (instead of by total pairs) makes the histogram
    /// comparison invariant to the volume of coincidental pairings: a
    /// genuine dependency contributes ~1 pair per in-flow.
    std::uint64_t in_flows = 0;
    std::uint64_t out_flows = 0;  ///< Visible out-edge flow starts.
  };
  std::map<EdgePair, PairDd> per_pair;
};

/// The DD gate every producer applies: both edges and the pair's sample
/// count reach `min_edge_flows`, and the pair has at least one sample (a
/// pair without delays has no peak or mean to compare).
[[nodiscard]] bool dd_gate(std::uint64_t in_flows, std::uint64_t out_flows,
                           std::uint64_t samples,
                           const AppSignatureConfig& config);

/// Sets `pair.peak_ms` and `pair.mean_ms` from `pair.hist` (non-empty).
void summarize_delays(DelayDistributionSig::PairDd& pair);

/// The DD of one adjacent edge pair from its two edges' flow starts, each
/// in time order: every (t_in, t_out) with 0 <= t_out - t_in <= dd_window
/// is one sample. False when the pair fails dd_gate (`pair` is then
/// unspecified). The from-scratch extractor pairs whole logs with it; the
/// incremental finalize pairs each stability segment's slices.
bool pair_delays(std::span<const SimTime> in_times,
                 std::span<const SimTime> out_times,
                 const AppSignatureConfig& config,
                 DelayDistributionSig::PairDd& pair);

/// Max per-bin difference of pairs-per-in-flow rates between two delay
/// histograms. A genuine dependency contributes ~1 pair per in-flow, so
/// mass moving into a retransmission tail produces an O(loss-rate) delta
/// while coincidental-pair noise stays small.
double dd_shape_distance(const DelayDistributionSig::PairDd& a,
                         const DelayDistributionSig::PairDd& b);

// --- Partial correlation --------------------------------------------------------

struct PartialCorrelationSig {
  /// Pearson correlation of per-epoch flow counts on the two edges of each
  /// adjacent pair (the paper computes the dependency strength this way).
  std::map<EdgePair, double> rho;
};

// --- Extraction -------------------------------------------------------------

struct GroupSignatures {
  std::set<Ipv4> members;
  ConnectivityGraph cg;
  FlowStatsSig fs;
  ComponentInteractionSig ci;
  DelayDistributionSig dd;
  PartialCorrelationSig pc;
};

/// Computes all five signatures for one group from the parsed log. Only
/// flows with both endpoints inside `members` contribute.
GroupSignatures extract_group_signatures(const ParsedLog& log,
                                         const std::set<Ipv4>& members,
                                         const AppSignatureConfig& config);

}  // namespace flowdiff::core
