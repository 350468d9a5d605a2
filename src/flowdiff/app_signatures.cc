#include "flowdiff/app_signatures.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

#include "obs/trace.h"

namespace flowdiff::core {

ConnectivityGraph::Diff ConnectivityGraph::diff(
    const ConnectivityGraph& current) const {
  Diff d;
  d.added = graph.edges_only_in(current.graph);
  d.removed = current.graph.edges_only_in(graph);
  return d;
}

SimTime flow_rate_end(SimTime begin, SimTime end) {
  constexpr SimTime kLast = std::numeric_limits<SimTime>::max();
  return std::max(end, begin > kLast - kSecond ? kLast : begin + kSecond);
}

double ComponentInteractionSig::chi2_at_node(const NodeCi& expected,
                                             const NodeCi& observed) {
  std::set<HostEdge> edges;
  for (const auto& [e, _] : expected.edge_counts) edges.insert(e);
  for (const auto& [e, _] : observed.edge_counts) edges.insert(e);
  std::vector<double> exp_v;
  std::vector<double> obs_v;
  exp_v.reserve(edges.size());
  obs_v.reserve(edges.size());
  for (const auto& e : edges) {
    exp_v.push_back(expected.normalized(e));
    obs_v.push_back(observed.normalized(e));
  }
  return chi_squared(obs_v, exp_v);
}

double dd_shape_distance(const DelayDistributionSig::PairDd& a,
                         const DelayDistributionSig::PairDd& b) {
  const std::size_t bins = std::max(a.hist.bin_count(), b.hist.bin_count());
  const double a_in =
      static_cast<double>(std::max<std::uint64_t>(a.in_flows, 1));
  const double b_in =
      static_cast<double>(std::max<std::uint64_t>(b.in_flows, 1));
  double delta = 0.0;
  for (std::size_t bin = 0; bin < bins; ++bin) {
    const double ra = static_cast<double>(a.hist.count_at(bin)) / a_in;
    const double rb = static_cast<double>(b.hist.count_at(bin)) / b_in;
    delta = std::max(delta, std::abs(ra - rb));
  }
  return delta;
}

bool dd_gate(std::uint64_t in_flows, std::uint64_t out_flows,
             std::uint64_t samples, const AppSignatureConfig& config) {
  return in_flows >= config.min_edge_flows &&
         out_flows >= config.min_edge_flows &&
         samples >= config.min_edge_flows && samples > 0;
}

void summarize_delays(DelayDistributionSig::PairDd& pair) {
  pair.peak_ms = pair.hist.top_peak().center;
  double weighted = 0.0;
  for (std::size_t b = 0; b < pair.hist.bin_count(); ++b) {
    weighted +=
        pair.hist.bin_center(b) * static_cast<double>(pair.hist.count_at(b));
  }
  pair.mean_ms = weighted / static_cast<double>(pair.hist.total());
}

bool pair_delays(std::span<const SimTime> in_times,
                 std::span<const SimTime> out_times,
                 const AppSignatureConfig& config,
                 DelayDistributionSig::PairDd& pair) {
  if (in_times.size() < config.min_edge_flows ||
      out_times.size() < config.min_edge_flows) {
    return false;  // Fails the gate whatever the pairing finds.
  }
  pair.hist = Histogram{config.dd_bin_ms};
  pair.in_flows = in_times.size();
  pair.out_flows = out_times.size();
  pair.samples = 0;
  // A sliding lower bound over the sorted out-flows keeps this
  // near-linear.
  std::size_t lo = 0;
  for (const SimTime t_in : in_times) {
    while (lo < out_times.size() && out_times[lo] < t_in) ++lo;
    for (std::size_t j = lo; j < out_times.size(); ++j) {
      const SimDuration delta = out_times[j] - t_in;
      if (delta > config.dd_window) break;
      pair.hist.add(to_millis(delta));
      ++pair.samples;
    }
  }
  if (!dd_gate(pair.in_flows, pair.out_flows, pair.samples, config)) {
    return false;
  }
  summarize_delays(pair);
  return true;
}

GroupSignatures extract_group_signatures(const ParsedLog& log,
                                         const std::set<Ipv4>& members,
                                         const AppSignatureConfig& config) {
  GroupSignatures out;
  out.members = members;

  // Group-internal flow starts, in time order.
  of::FlowSequence starts;
  for (const auto& occ : log.occurrences) {
    if (members.contains(occ.key.src_ip) &&
        members.contains(occ.key.dst_ip)) {
      starts.push_back(of::TimedFlow{occ.first_ts, occ.key});
    }
  }

  // --- CG + CI + FS flow counts -----------------------------------------
  // One span per signature family; emplace/reset brackets the sections
  // without disturbing the shared locals they build up.
  std::optional<obs::Span> family_span;
  family_span.emplace("model/sig/CG+CI");
  std::map<HostEdge, std::uint64_t> edge_flows;
  for (const auto& tf : starts) {
    const HostEdge e{tf.key.src_ip, tf.key.dst_ip};
    ++edge_flows[e];
    auto& fs = out.fs.per_edge[e];
    if (fs.flow_count == 0) fs.first_ts = tf.ts;
    ++fs.flow_count;
  }
  for (const auto& [e, n] : edge_flows) {
    if (n < config.min_edge_flows) continue;
    out.cg.graph.add_edge(e.first, e.second);
  }
  for (const auto& [e, n] : edge_flows) {
    auto& src_ci = out.ci.per_node[e.first];
    src_ci.edge_counts[e] += n;
    src_ci.total += n;
    auto& dst_ci = out.ci.per_node[e.second];
    dst_ci.edge_counts[e] += n;
    dst_ci.total += n;
  }

  // --- FS byte/duration stats from FlowRemoved ---------------------------
  family_span.emplace("model/sig/FS");
  for (const auto& rec : log.removed) {
    if (!members.contains(rec.key.src_ip) ||
        !members.contains(rec.key.dst_ip)) {
      continue;
    }
    auto& fs = out.fs.per_edge[HostEdge{rec.key.src_ip, rec.key.dst_ip}];
    fs.bytes.add(static_cast<double>(rec.bytes));
    fs.duration_ms.add(to_millis(rec.duration));
  }

  // --- FS group-wide flow rate -------------------------------------------
  if (!starts.empty()) {
    const SimTime begin = log.begin;
    const SimTime end = flow_rate_end(begin, log.end);
    const auto buckets =
        static_cast<std::size_t>((end - begin) / kSecond) + 1;
    std::vector<double> per_sec(buckets, 0.0);
    for (const auto& tf : starts) {
      const auto b = static_cast<std::size_t>((tf.ts - begin) / kSecond);
      if (b < buckets) per_sec[b] += 1.0;
    }
    for (double v : per_sec) out.fs.flows_per_sec.add(v);
  }

  // --- DD: delays between in-flows and subsequent out-flows ---------------
  family_span.emplace("model/sig/DD");
  // Index flow starts per edge for pairing.
  std::map<HostEdge, std::vector<SimTime>> starts_by_edge;
  for (const auto& tf : starts) {
    starts_by_edge[HostEdge{tf.key.src_ip, tf.key.dst_ip}].push_back(tf.ts);
  }
  for (const auto& [in_edge, in_times] : starts_by_edge) {
    const Ipv4 node = in_edge.second;
    for (const auto& [out_edge, out_times] : starts_by_edge) {
      if (out_edge.first != node) continue;
      if (out_edge.second == in_edge.first) continue;  // Skip pure replies.
      DelayDistributionSig::PairDd pair;
      if (!pair_delays(in_times, out_times, config, pair)) continue;
      out.dd.per_pair[EdgePair{in_edge.first, node, out_edge.second}] =
          std::move(pair);
    }
  }

  // --- PC: correlation of per-epoch counts on adjacent edges --------------
  family_span.emplace("model/sig/PC");
  if (!starts.empty() && log.end > log.begin) {
    const auto epochs = static_cast<std::size_t>(
                            (log.end - log.begin) / kPcEpoch) +
                        1;
    std::map<HostEdge, std::vector<double>> series;
    for (const auto& tf : starts) {
      auto& s = series[HostEdge{tf.key.src_ip, tf.key.dst_ip}];
      if (s.empty()) s.assign(epochs, 0.0);
      const auto e =
          static_cast<std::size_t>((tf.ts - log.begin) / kPcEpoch);
      if (e < epochs) s[e] += 1.0;
    }
    for (const auto& [in_edge, in_series] : series) {
      const Ipv4 node = in_edge.second;
      if (edge_flows[in_edge] < config.min_edge_flows) continue;
      for (const auto& [out_edge, out_series] : series) {
        if (out_edge.first != node) continue;
        if (out_edge.second == in_edge.first) continue;
        if (edge_flows[out_edge] < config.min_edge_flows) continue;
        out.pc.rho[EdgePair{in_edge.first, node, out_edge.second}] =
            pearson(in_series, out_series);
      }
    }
  }

  return out;
}

}  // namespace flowdiff::core
