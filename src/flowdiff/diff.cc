#include "flowdiff/diff.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "obs/trace.h"

namespace flowdiff::core {

const char* to_string(SignatureKind kind) {
  switch (kind) {
    case SignatureKind::kCg:
      return "CG";
    case SignatureKind::kFs:
      return "FS";
    case SignatureKind::kCi:
      return "CI";
    case SignatureKind::kDd:
      return "DD";
    case SignatureKind::kPc:
      return "PC";
    case SignatureKind::kPt:
      return "PT";
    case SignatureKind::kIsl:
      return "ISL";
    case SignatureKind::kCrt:
      return "CRT";
    case SignatureKind::kUtil:
      return "UTIL";
  }
  return "?";
}

bool is_infra(SignatureKind kind) {
  return kind == SignatureKind::kPt || kind == SignatureKind::kIsl ||
         kind == SignatureKind::kCrt || kind == SignatureKind::kUtil;
}

const char* to_string(Confidence confidence) {
  switch (confidence) {
    case Confidence::kHigh:
      return "high";
    case Confidence::kMedium:
      return "medium";
    case Confidence::kLow:
      return "low";
  }
  return "?";
}

double corruption_tolerance(SignatureKind kind) {
  switch (kind) {
    // Counter-derived statistics: every lost or truncated record moves the
    // per-entry means directly.
    case SignatureKind::kFs:
    case SignatureKind::kUtil:
      return 0.02;
    // Host attachments ride on sparse per-host evidence (heartbeat-scale):
    // one window's drop pattern hides hosts another window shows, so even
    // sub-percent loss flaps the topology diff in both directions — and
    // measured corruption understates true loss (a dropped event never
    // reaches the sanitizer). Any measurable corruption distrusts PT.
    case SignatureKind::kPt:
      return 0.005;
    // Distribution shapes and latency baselines: individual samples matter
    // less, but a few percent loss still distorts tails.
    case SignatureKind::kDd:
    case SignatureKind::kCi:
    case SignatureKind::kPc:
    case SignatureKind::kIsl:
    case SignatureKind::kCrt:
      return 0.05;
    // Connectivity edges re-announce with every flow between the pair, so
    // they survive substantial loss before an edge genuinely vanishes.
    case SignatureKind::kCg:
      return 0.10;
  }
  return 0.05;
}

Confidence change_confidence(SignatureKind kind,
                             const ingest::StreamQuality& quality) {
  if (!quality.degraded()) return Confidence::kHigh;
  const double effective = quality.effective_corruption_rate();
  const double tolerance = corruption_tolerance(kind);
  if (effective > tolerance) return Confidence::kLow;
  // Degraded but within what the family absorbs: trust the change, flag
  // the grade.
  return Confidence::kMedium;
}

namespace {

// The diff policy, one gate per family (DESIGN.md section 7 tabulates it).
// Every mean compared needs kMinSamples observations on both sides.
constexpr std::uint64_t kMinSamples = 5;
constexpr double kCiChi2 = 0.5;           ///< Node interaction chi-squared.
constexpr double kDdPeakShiftMs = 25.0;   ///< More than one 20 ms bin.
/// Largest per-bin mass difference of the delay histograms: tail growth
/// (e.g. retransmissions) moves mass without moving the mode.
constexpr double kDdShapeDelta = 0.15;
constexpr double kPcDelta = 0.35;         ///< Correlation change.
/// FS: relative shifts of the per-entry means, which must also clear
/// kFsSigma baseline stddevs, and of the group flow rate.
constexpr double kFsBytesRel = 0.15;
constexpr double kFsDurationRel = 0.75;
constexpr double kFsSigma = 1.5;
constexpr double kFsRateRel = 0.75;
/// ISL and CRT: the mean must move past max(floor, sigma x stddev).
constexpr double kIslShiftMs = 1.0;
constexpr double kIslSigma = 4.0;
constexpr double kCrtShiftMs = 0.5;
constexpr double kCrtSigma = 4.0;
constexpr double kUtilRel = 0.75;
constexpr double kUtilFloorMbps = 1.0;    ///< Idle-switch noise below this.

std::string edge_label(const HostEdge& e) {
  return e.first.to_string() + "->" + e.second.to_string();
}

ComponentRef edge_component(const HostEdge& e) {
  return ComponentRef{edge_label(e), {e.first, e.second}};
}

ComponentRef node_component(Ipv4 ip) { return ComponentRef{ip.to_string(), {ip}}; }

std::vector<ComponentRef> node_components(const std::set<Ipv4>& members) {
  std::vector<ComponentRef> components;
  for (const Ipv4 ip : members) components.push_back(node_component(ip));
  return components;
}

std::string pair_label(const EdgePair& p) {
  return std::get<0>(p).to_string() + "->" + std::get<1>(p).to_string() +
         "->" + std::get<2>(p).to_string();
}

ComponentRef pair_component(const EdgePair& p) {
  // The node joining the two edges is the prime suspect for DD/PC shifts.
  return ComponentRef{pair_label(p),
                      {std::get<0>(p), std::get<1>(p), std::get<2>(p)}};
}

SimTime edge_first_ts(const GroupModel& group, const HostEdge& e) {
  auto it = group.sig.fs.per_edge.find(e);
  return it == group.sig.fs.per_edge.end() ? -1 : it->second.first_ts;
}

/// Both means rest on at least kMinSamples observations.
bool comparable(const RunningStats& base, const RunningStats& cur) {
  return base.count() >= kMinSamples && cur.count() >= kMinSamples;
}

/// The relative shift of a mean when it exceeds `rel_gate` and the
/// absolute shift exceeds `sigmas` baseline stddevs; 0 otherwise.
double relative_shift(const RunningStats& base, const RunningStats& cur,
                      double rel_gate, double sigmas) {
  if (!comparable(base, cur) || !(base.mean() > 0.0)) return 0.0;
  const double delta = std::abs(cur.mean() - base.mean());
  const double rel = delta / base.mean();
  return rel > rel_gate && delta > sigmas * base.stddev() ? rel : 0.0;
}

/// The mean shift of a latency baseline (ISL, CRT) when it exceeds the
/// larger of an absolute floor and `sigmas` baseline stddevs; 0 otherwise.
double latency_shift(const RunningStats& base, const RunningStats& cur,
                     double floor_ms, double sigmas) {
  if (!comparable(base, cur)) return 0.0;
  const double shift = std::abs(cur.mean() - base.mean());
  return shift > std::max(floor_ms, sigmas * base.stddev()) ? shift : 0.0;
}

void diff_group(const GroupModel& base, const GroupModel& cur, int group_idx,
                std::vector<Change>& out) {
  std::optional<obs::Span> family_span;

  // --- CG --------------------------------------------------------------
  family_span.emplace("diff/CG");
  const auto cg_diff = base.sig.cg.diff(cur.sig.cg);
  for (const auto& e : cg_diff.added) {
    out.push_back({.kind = SignatureKind::kCg,
                   .direction = ChangeDirection::kAdded,
                   .description = "new edge " + edge_label(e),
                   .magnitude = 1.0,
                   .components = {edge_component(e)},
                   .approx_time = edge_first_ts(cur, e),
                   .group_index = group_idx});
  }
  for (const auto& e : cg_diff.removed) {
    out.push_back({.kind = SignatureKind::kCg,
                   .direction = ChangeDirection::kRemoved,
                   .description = "missing edge " + edge_label(e),
                   .magnitude = 1.0,
                   .components = {edge_component(e)},
                   .group_index = group_idx});
  }

  // --- FS --------------------------------------------------------------
  family_span.emplace("diff/FS");
  for (const auto& [edge, base_stats] : base.sig.fs.per_edge) {
    const auto it = cur.sig.fs.per_edge.find(edge);
    if (it == cur.sig.fs.per_edge.end()) continue;
    const auto& cur_stats = it->second;
    // The sigma gate suppresses edges whose per-entry counters are
    // naturally noisy (heavily reused connections aggregate a variable
    // number of requests per flow entry).
    if (const double rel = relative_shift(base_stats.bytes, cur_stats.bytes,
                                          kFsBytesRel, kFsSigma)) {
      out.push_back({.kind = SignatureKind::kFs,
                     .description =
                         "byte count on " + edge_label(edge) + " changed " +
                         std::to_string(static_cast<int>(rel * 100)) + "%",
                     .magnitude = rel,
                     .components = {edge_component(edge)},
                     .group_index = group_idx});
    }
    if (const double rel =
            relative_shift(base_stats.duration_ms, cur_stats.duration_ms,
                           kFsDurationRel, kFsSigma)) {
      out.push_back({.kind = SignatureKind::kFs,
                     .description =
                         "flow duration on " + edge_label(edge) + " changed",
                     .magnitude = rel,
                     .components = {edge_component(edge)},
                     .group_index = group_idx});
    }
  }
  if (const double rel =
          relative_shift(base.sig.fs.flows_per_sec, cur.sig.fs.flows_per_sec,
                         kFsRateRel, 0.0)) {
    out.push_back({.kind = SignatureKind::kFs,
                   .description = "group flow rate changed",
                   .magnitude = rel,
                   .components = node_components(base.sig.members),
                   .group_index = group_idx});
  }

  // --- CI (chi-squared fitness; unstable nodes skipped) -----------------
  family_span.emplace("diff/CI");
  for (const auto& [node, base_ci] : base.sig.ci.per_node) {
    if (base.unstable_ci_nodes.contains(node)) continue;
    const auto it = cur.sig.ci.per_node.find(node);
    if (it == cur.sig.ci.per_node.end()) continue;
    if (base_ci.total < kMinSamples || it->second.total < kMinSamples) {
      continue;
    }
    const double chi2 =
        ComponentInteractionSig::chi2_at_node(base_ci, it->second);
    if (chi2 > kCiChi2) {
      out.push_back(
          {.kind = SignatureKind::kCi,
           .description =
               "component interaction at " + node.to_string() + " changed",
           .magnitude = chi2,
           .components = {node_component(node)},
           .group_index = group_idx});
    }
  }

  // --- DD (peak shift; unstable pairs skipped) ---------------------------
  family_span.emplace("diff/DD");
  for (const auto& [pair, base_dd] : base.sig.dd.per_pair) {
    if (base.unstable_dd_pairs.contains(pair)) continue;
    const auto it = cur.sig.dd.per_pair.find(pair);
    if (it == cur.sig.dd.per_pair.end()) continue;
    const double peak_shift = std::abs(it->second.peak_ms - base_dd.peak_ms);
    // Histogram shape distance: max per-bin difference of pairs-per-in-flow
    // rates. A dependency contributes ~1 pair per in-flow to its delay bin,
    // so mass moving to a retransmission tail shows up as an O(loss-rate)
    // delta while coincidental-pair noise stays small.
    const double shape_delta =
        base.shape_unstable_dd_pairs.contains(pair)
            ? 0.0
            : dd_shape_distance(base_dd, it->second);
    const bool by_peak = peak_shift > kDdPeakShiftMs;
    if (!by_peak && !(shape_delta > kDdShapeDelta)) continue;
    out.push_back(
        {.kind = SignatureKind::kDd,
         .description =
             by_peak ? "delay peak at " + pair_label(pair) + " shifted " +
                           std::to_string(static_cast<int>(peak_shift)) + "ms"
                     : "delay distribution at " + pair_label(pair) +
                           " reshaped (mass delta " +
                           std::to_string(static_cast<int>(shape_delta * 100)) +
                           "%)",
         .magnitude = by_peak ? peak_shift : shape_delta,
         .components = {pair_component(pair)},
         .group_index = group_idx});
  }

  // --- PC ----------------------------------------------------------------
  family_span.emplace("diff/PC");
  for (const auto& [pair, base_rho] : base.sig.pc.rho) {
    if (base.unstable_pc_pairs.contains(pair)) continue;
    const auto it = cur.sig.pc.rho.find(pair);
    if (it == cur.sig.pc.rho.end()) continue;
    const double delta = std::abs(it->second - base_rho);
    if (delta > kPcDelta) {
      out.push_back({.kind = SignatureKind::kPc,
                     .description =
                         "correlation at " + pair_label(pair) + " changed",
                     .magnitude = delta,
                     .components = {pair_component(pair)},
                     .group_index = group_idx});
    }
  }
}

}  // namespace

std::vector<Change> diff_models(const BehaviorModel& baseline,
                                const BehaviorModel& current) {
  const obs::Span span("diff");
  static obs::LatencyHistogram& run_ms =
      obs::Registry::global().histogram("diff.run_ms", 1.0);
  const obs::ScopedTimer timer(run_ms);
  static obs::Counter& runs = obs::Registry::global().counter("diff.runs");
  runs.inc();

  std::vector<Change> out;

  // --- Application groups -------------------------------------------------
  std::vector<bool> current_matched(current.groups.size(), false);
  for (std::size_t g = 0; g < baseline.groups.size(); ++g) {
    const int match = match_group(current, baseline.groups[g].sig.members);
    if (match < 0) {
      out.push_back(
          {.kind = SignatureKind::kCg,
           .direction = ChangeDirection::kRemoved,
           .description = "application group disappeared",
           .magnitude = 1.0,
           .components = node_components(baseline.groups[g].sig.members),
           .group_index = static_cast<int>(g)});
      continue;
    }
    current_matched[static_cast<std::size_t>(match)] = true;
    diff_group(baseline.groups[g],
               current.groups[static_cast<std::size_t>(match)],
               static_cast<int>(g), out);
  }
  for (std::size_t g = 0; g < current.groups.size(); ++g) {
    if (current_matched[g]) continue;
    SimTime earliest = -1;
    for (const auto& [edge, stats] : current.groups[g].sig.fs.per_edge) {
      if (earliest < 0 || stats.first_ts < earliest) earliest = stats.first_ts;
    }
    out.push_back(
        {.kind = SignatureKind::kCg,
         .direction = ChangeDirection::kAdded,
         .description = "new application group appeared",
         .magnitude = 1.0,
         .components = node_components(current.groups[g].sig.members),
         .approx_time = earliest});
  }

  // --- PT ------------------------------------------------------------------
  std::optional<obs::Span> family_span;
  family_span.emplace("diff/PT");
  const auto pt_diff = baseline.infra.pt.diff(current.infra.pt);
  // A host-attachment edge for a host the reference side never observed is
  // new *visibility*, not a topology change (the link existed all along);
  // only attachment changes of already-known hosts (e.g. a migrated VM) and
  // switch-switch changes are physical-topology changes.
  auto host_unknown_to = [](const PhysicalTopologySig& reference,
                            const std::pair<PtNode, PtNode>& e) {
    for (const auto& node : {e.first, e.second}) {
      if (node.starts_with("host:") && !reference.graph.has_node(node)) {
        return true;
      }
    }
    return false;
  };
  auto pt_change = [&out](const std::pair<PtNode, PtNode>& e, bool added) {
    ComponentRef ref{e.first + "->" + e.second, {}};
    for (const auto& node : {e.first, e.second}) {
      if (node.starts_with("host:")) {
        if (auto ip = Ipv4::parse(node.substr(5))) ref.ips.push_back(*ip);
      }
    }
    out.push_back(
        {.kind = SignatureKind::kPt,
         .direction = added ? ChangeDirection::kAdded : ChangeDirection::kRemoved,
         .description = std::string(added ? "new" : "missing") +
                        " physical link " + e.first + "->" + e.second,
         .magnitude = 1.0,
         .components = {std::move(ref)}});
  };
  // A missing edge is only evidence of change when both endpoints are
  // still visible in the current window — an entirely dark switch is a
  // visibility loss, reported once below as a disappeared switch.
  auto endpoint_invisible = [&current](const std::pair<PtNode, PtNode>& e) {
    return !current.infra.pt.graph.has_node(e.first) ||
           !current.infra.pt.graph.has_node(e.second);
  };
  for (const auto& e : pt_diff.added) {
    if (!host_unknown_to(baseline.infra.pt, e)) pt_change(e, true);
  }
  for (const auto& e : pt_diff.removed) {
    if (!host_unknown_to(current.infra.pt, e) && !endpoint_invisible(e)) {
      pt_change(e, false);
    }
  }
  // Switches that vanished from the control traffic entirely.
  for (const auto& node : baseline.infra.pt.graph.nodes()) {
    if (!node.starts_with("sw:")) continue;
    if (current.infra.pt.graph.has_node(node)) continue;
    out.push_back({.kind = SignatureKind::kPt,
                   .direction = ChangeDirection::kRemoved,
                   .description =
                       "switch " + node + " disappeared from control traffic",
                   .magnitude = 1.0,
                   .components = {ComponentRef{node, {}}}});
  }

  // --- ISL -------------------------------------------------------------------
  family_span.emplace("diff/ISL");
  for (const auto& [pair, base_stats] : baseline.infra.isl.latency_ms) {
    const auto it = current.infra.isl.latency_ms.find(pair);
    if (it == current.infra.isl.latency_ms.end()) continue;
    const double shift =
        latency_shift(base_stats, it->second, kIslShiftMs, kIslSigma);
    if (shift == 0.0) continue;
    const std::string label = "sw" + std::to_string(pair.first) + "->sw" +
                              std::to_string(pair.second);
    out.push_back({.kind = SignatureKind::kIsl,
                   .description = "inter-switch latency " + label +
                                  " shifted " + std::to_string(shift) + "ms",
                   .magnitude = shift,
                   .components = {ComponentRef{label, {}}}});
  }

  // --- Polled utilization ---------------------------------------------------
  family_span.emplace("diff/UTIL");
  for (const auto& [sw, base_load] : baseline.infra.load.mbps) {
    const auto it = current.infra.load.mbps.find(sw);
    if (it == current.infra.load.mbps.end()) continue;
    if (!comparable(base_load, it->second)) continue;
    const double delta = std::abs(it->second.mean() - base_load.mean());
    if (delta < kUtilFloorMbps) continue;
    const double base_mean = std::max(base_load.mean(), 0.1);
    if (delta / base_mean > kUtilRel) {
      out.push_back({.kind = SignatureKind::kUtil,
                     .description = "polled throughput at sw" +
                                    std::to_string(sw) + " changed " +
                                    std::to_string(base_load.mean()) + " -> " +
                                    std::to_string(it->second.mean()) +
                                    " Mbps",
                     .magnitude = delta / base_mean,
                     .components = {ComponentRef{"sw" + std::to_string(sw),
                                                 {}}}});
    }
  }

  // --- CRT --------------------------------------------------------------------
  family_span.emplace("diff/CRT");
  if (const double shift =
          latency_shift(baseline.infra.crt.response_ms,
                        current.infra.crt.response_ms, kCrtShiftMs, kCrtSigma)) {
    out.push_back({.kind = SignatureKind::kCrt,
                   .description = "controller response time shifted " +
                                  std::to_string(shift) + "ms",
                   .magnitude = shift,
                   .components = {ComponentRef{"controller", {}}}});
  }
  family_span.reset();

  // Per-family change counters ("diff.changes.CG", ...), plus the total.
  static obs::Counter& total =
      obs::Registry::global().counter("diff.changes.total");
  total.inc(out.size());
  if (obs::enabled()) {
    for (const auto& change : out) {
      obs::Registry::global()
          .counter(std::string("diff.changes.") + to_string(change.kind))
          .inc();
    }
  }

  return out;
}

}  // namespace flowdiff::core
