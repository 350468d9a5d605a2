#include "flowdiff/model.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>

#include "flowdiff/flowdiff.h"
#include "obs/trace.h"

namespace flowdiff::core {

namespace {

/// Restricts a parsed log to [t0, t1) for per-segment signature extraction.
ParsedLog slice_parsed(const ParsedLog& log, SimTime t0, SimTime t1) {
  ParsedLog out;
  out.begin = t0;
  out.end = t1;
  for (const auto& occ : log.occurrences) {
    if (occ.first_ts >= t0 && occ.first_ts < t1) out.occurrences.push_back(occ);
  }
  for (const auto& rec : log.removed) {
    if (rec.ts >= t0 && rec.ts < t1) out.removed.push_back(rec);
  }
  return out;
}

/// Extracts the stability sub-model for segment `s` of `segments`.
GroupSignatures extract_segment_signatures(const ParsedLog& parsed,
                                           const std::set<Ipv4>& members,
                                           const ModelConfig& config, int s,
                                           int segments) {
  const SimTime begin = parsed.begin;
  const SimTime span = std::max<SimTime>(parsed.end - parsed.begin, 1);
  const SimTime t0 = begin + span * s / segments;
  const SimTime t1 = begin + span * (s + 1) / segments;
  return extract_group_signatures(slice_parsed(parsed, t0, t1), members,
                                  config.app);
}

// Stability tolerances: how far a component may wander across segments
// before the diff skips it (DESIGN.md section 7).
constexpr double kCiStabilityChi2 = 0.3;  ///< Between any two segments.
constexpr double kDdStabilityMs = 25.0;   ///< Peak spread.
constexpr double kDdShapeStability = 0.2; ///< Pairs-per-in-flow wobble.
/// Visible out-flows per in-flow below which reuse hides most of the
/// dependency, so only the DD peak is compared.
constexpr double kDdVisibilityRatio = 0.7;
constexpr double kPcStabilitySd = 0.25;   ///< Stddev of segment rhos.

}  // namespace

/// Pure reduction: reads the full-window signatures in `group.sig` and the
/// per-segment sub-models, writes only the unstable sets
/// (std::set — insertion order is irrelevant to the result).
void analyze_group_stability(const std::vector<GroupSignatures>& per_segment,
                             GroupModel& group) {
  const int segments = static_cast<int>(per_segment.size());

  // CI: any segment pair with a large chi-squared marks the node unstable.
  for (const auto& [node, _] : group.sig.ci.per_node) {
    bool unstable = false;
    for (int a = 0; a < segments && !unstable; ++a) {
      const auto ia = per_segment[a].ci.per_node.find(node);
      if (ia == per_segment[a].ci.per_node.end()) continue;
      for (int b = a + 1; b < segments; ++b) {
        const auto ib = per_segment[b].ci.per_node.find(node);
        if (ib == per_segment[b].ci.per_node.end()) continue;
        if (ComponentInteractionSig::chi2_at_node(ia->second, ib->second) >
            kCiStabilityChi2) {
          unstable = true;
          break;
        }
      }
    }
    if (unstable) group.unstable_ci_nodes.insert(node);
  }

  // DD: both the peak and the histogram shape must hold across segments.
  // Shape wobble is the signature of reuse-hidden dependencies (the paper's
  // "incomplete information about dependent flows").
  for (const auto& [pair, window_dd] : group.sig.dd.per_pair) {
    // Reuse-hidden dependencies: when far fewer out-flows are visible than
    // in-flows, the shape of the delay histogram is dominated by *which*
    // out-flows happened to be visible — only the peak is trustworthy.
    if (static_cast<double>(window_dd.out_flows) <
        kDdVisibilityRatio * static_cast<double>(window_dd.in_flows)) {
      group.shape_unstable_dd_pairs.insert(pair);
    }
    double lo = 0.0;
    double hi = 0.0;
    int present = 0;
    std::vector<const DelayDistributionSig::PairDd*> seen;
    for (const auto& seg : per_segment) {
      const auto it = seg.dd.per_pair.find(pair);
      if (it == seg.dd.per_pair.end()) continue;
      seen.push_back(&it->second);
      const double peak = it->second.peak_ms;
      if (present == 0) {
        lo = hi = peak;
      } else {
        lo = std::min(lo, peak);
        hi = std::max(hi, peak);
      }
      ++present;
    }
    if (present >= 2 && hi - lo > kDdStabilityMs) {
      group.unstable_dd_pairs.insert(pair);
      continue;
    }
    for (std::size_t a = 0; a < seen.size(); ++a) {
      for (std::size_t b = a + 1; b < seen.size(); ++b) {
        if (dd_shape_distance(*seen[a], *seen[b]) > kDdShapeStability) {
          group.shape_unstable_dd_pairs.insert(pair);
          a = seen.size();
          break;
        }
      }
    }
  }

  // PC: high variance across segments marks the pair unstable.
  for (const auto& [pair, _] : group.sig.pc.rho) {
    RunningStats stats;
    for (const auto& seg : per_segment) {
      const auto it = seg.pc.rho.find(pair);
      if (it != seg.pc.rho.end()) stats.add(it->second);
    }
    if (stats.count() >= 2 && stats.stddev() > kPcStabilitySd) {
      group.unstable_pc_pairs.insert(pair);
    }
  }
}

Modeler::Modeler(ModelConfig config) : config_(std::move(config)) {}

BehaviorModel Modeler::build(const of::ControlLog& log) const {
  obs::Span span("model");
  static obs::LatencyHistogram& build_ms =
      obs::Registry::global().histogram("model.build_ms", 5.0);
  const obs::ScopedTimer timer(build_ms);
  const ModelConfig& config = config_;

  BehaviorModel model;
  const ParsedLog parsed = [&log] {
    const obs::Span parse_span("model/parse");
    return parse_log(log);
  }();
  model.begin = parsed.begin;
  model.end = parsed.end;
  model.flow_starts = parsed.flow_starts();

  static obs::Counter& builds = obs::Registry::global().counter("model.builds");
  static obs::Counter& events =
      obs::Registry::global().counter("model.events_consumed");
  builds.inc();
  events.inc(log.size());

  const AppGroups groups = [&] {
    const obs::Span groups_span("model/groups");
    return discover_groups(model.flow_starts, config.special_nodes);
  }();

  // Partition the log per group up front so modeling stays linear in the
  // log size no matter how many applications run (the paper's sub-linear
  // processing-time claim depends on this).
  std::map<Ipv4, int> index_of;
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    for (const Ipv4 ip : groups.groups[g]) {
      index_of.emplace(ip, static_cast<int>(g));
    }
  }
  const std::size_t group_count = groups.groups.size();
  std::vector<ParsedLog> per_group(group_count);
  for (auto& pg : per_group) {
    pg.begin = parsed.begin;
    pg.end = parsed.end;
  }
  {
    const obs::Span partition_span("model/partition");
    const auto classify = [&index_of](const of::FlowKey& key) {
      const auto it = index_of.find(key.src_ip);
      if (it == index_of.end()) return -1;
      if (!index_of.contains(key.dst_ip)) return -1;
      return it->second;
    };
    for (const auto& occ : parsed.occurrences) {
      const int g = classify(occ.key);
      if (g >= 0) {
        per_group[static_cast<std::size_t>(g)].occurrences.push_back(occ);
      }
    }
    for (const auto& rec : parsed.removed) {
      const int g = classify(rec.key);
      if (g >= 0) {
        per_group[static_cast<std::size_t>(g)].removed.push_back(rec);
      }
    }
  }

  {
    const obs::Span infra_span("model/infra");
    model.infra = extract_infra_signatures(parsed);
  }

  // Per group: the full-window signatures, then the stability sub-models
  // of each segment, then the stability judgement over them.
  const int segments = std::max(2, config.stability_segments);
  model.groups.resize(group_count);
  const obs::Span sig_span("model/signatures");
  for (std::size_t g = 0; g < group_count; ++g) {
    GroupModel& group = model.groups[g];
    group.sig =
        extract_group_signatures(per_group[g], groups.groups[g], config.app);
    std::vector<GroupSignatures> per_segment;
    per_segment.reserve(static_cast<std::size_t>(segments));
    for (int s = 0; s < segments; ++s) {
      per_segment.push_back(extract_segment_signatures(
          per_group[g], groups.groups[g], config, s, segments));
    }
    analyze_group_stability(per_segment, group);
  }
  return model;
}

int match_group(const BehaviorModel& model, const std::set<Ipv4>& members) {
  int best = -1;
  std::size_t best_overlap = 0;
  for (std::size_t i = 0; i < model.groups.size(); ++i) {
    std::size_t overlap = 0;
    for (const Ipv4 ip : model.groups[i].sig.members) {
      if (members.contains(ip)) ++overlap;
    }
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best = static_cast<int>(i);
    }
  }
  return best;
}

std::string describe_model(const BehaviorModel& model) {
  std::string out;
  out.reserve(1 << 14);
  const auto num = [&out](double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    out += buf;
  };
  const auto u64 = [&out](std::uint64_t v) { out += std::to_string(v); };
  const auto ts = [&out](SimTime t) { out += std::to_string(t); };
  const auto ip = [&out](Ipv4 a) { out += a.to_string(); };
  const auto key = [&](const of::FlowKey& k) {
    ip(k.src_ip);
    out += '>';
    ip(k.dst_ip);
    out += ':';
    out += std::to_string(k.src_port);
    out += '-';
    out += std::to_string(k.dst_port);
    out += '/';
    out += std::to_string(static_cast<int>(k.proto));
  };
  const auto edge = [&](const HostEdge& e) {
    ip(e.first);
    out += '>';
    ip(e.second);
  };
  const auto triple = [&](const EdgePair& t) {
    ip(std::get<0>(t));
    out += '>';
    ip(std::get<1>(t));
    out += '>';
    ip(std::get<2>(t));
  };
  const auto stats = [&](const RunningStats& s) {
    out += "n=";
    u64(s.count());
    out += " mean=";
    num(s.mean());
    out += " var=";
    num(s.variance());
    out += " sum=";
    num(s.sum());
    out += " min=";
    num(s.min());
    out += " max=";
    num(s.max());
  };
  const auto hist = [&](const Histogram& h) {
    out += "bw=";
    num(h.bin_width());
    out += " o=";
    num(h.origin());
    out += " total=";
    u64(h.total());
    out += " [";
    for (const std::uint64_t c : h.counts()) {
      u64(c);
      out += ',';
    }
    out += ']';
  };

  out += "begin=";
  ts(model.begin);
  out += " end=";
  ts(model.end);
  out += "\nflow_starts ";
  u64(model.flow_starts.size());
  out += '\n';
  for (const auto& tf : model.flow_starts) {
    ts(tf.ts);
    out += ' ';
    key(tf.key);
    out += '\n';
  }
  for (std::size_t g = 0; g < model.groups.size(); ++g) {
    const GroupModel& gm = model.groups[g];
    out += "group ";
    u64(g);
    out += " members";
    for (const Ipv4 m : gm.sig.members) {
      out += ' ';
      ip(m);
    }
    out += "\ncg";
    for (const auto& [from, to] : gm.sig.cg.graph.edges()) {
      out += ' ';
      edge(HostEdge{from, to});
    }
    out += "\nfs fps ";
    stats(gm.sig.fs.flows_per_sec);
    out += '\n';
    for (const auto& [e, fs] : gm.sig.fs.per_edge) {
      out += "fs ";
      edge(e);
      out += " flows=";
      u64(fs.flow_count);
      out += " first=";
      ts(fs.first_ts);
      out += " bytes{";
      stats(fs.bytes);
      out += "} dur{";
      stats(fs.duration_ms);
      out += "}\n";
    }
    for (const auto& [node, ci] : gm.sig.ci.per_node) {
      out += "ci ";
      ip(node);
      out += " total=";
      u64(ci.total);
      for (const auto& [e, n] : ci.edge_counts) {
        out += ' ';
        edge(e);
        out += '=';
        u64(n);
      }
      out += '\n';
    }
    for (const auto& [t, dd] : gm.sig.dd.per_pair) {
      out += "dd ";
      triple(t);
      out += " peak=";
      num(dd.peak_ms);
      out += " mean=";
      num(dd.mean_ms);
      out += " samples=";
      u64(dd.samples);
      out += " in=";
      u64(dd.in_flows);
      out += " out=";
      u64(dd.out_flows);
      out += " hist{";
      hist(dd.hist);
      out += "}\n";
    }
    for (const auto& [t, rho] : gm.sig.pc.rho) {
      out += "pc ";
      triple(t);
      out += " rho=";
      num(rho);
      out += '\n';
    }
    out += "unstable_ci";
    for (const Ipv4 n : gm.unstable_ci_nodes) {
      out += ' ';
      ip(n);
    }
    out += "\nunstable_dd";
    for (const auto& t : gm.unstable_dd_pairs) {
      out += ' ';
      triple(t);
    }
    out += "\nshape_unstable_dd";
    for (const auto& t : gm.shape_unstable_dd_pairs) {
      out += ' ';
      triple(t);
    }
    out += "\nunstable_pc";
    for (const auto& t : gm.unstable_pc_pairs) {
      out += ' ';
      triple(t);
    }
    out += '\n';
  }
  out += "infra pt";
  for (const auto& [from, to] : model.infra.pt.graph.edges()) {
    out += ' ';
    out += from;
    out += '>';
    out += to;
  }
  out += "\npt nodes";
  for (const auto& n : model.infra.pt.graph.nodes()) {
    out += ' ';
    out += n;
  }
  out += '\n';
  for (const auto& [pair, s] : model.infra.isl.latency_ms) {
    out += "isl ";
    out += std::to_string(pair.first);
    out += '>';
    out += std::to_string(pair.second);
    out += ' ';
    stats(s);
    out += '\n';
  }
  out += "crt ";
  stats(model.infra.crt.response_ms);
  out += '\n';
  for (const auto& [sw, s] : model.infra.load.mbps) {
    out += "load ";
    out += std::to_string(sw);
    out += ' ';
    stats(s);
    out += '\n';
  }
  return out;
}

}  // namespace flowdiff::core
