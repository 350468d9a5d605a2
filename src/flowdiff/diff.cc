#include "flowdiff/diff.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "obs/trace.h"

namespace flowdiff::core {

namespace {

// The family table (paper SectionIV-A), indexed by SignatureKind; the
// matrix slots and labels lay out Fig. 8. Only structural changes can be
// the direct footprint of an operator task; performance signatures are
// never task-explained.
constexpr std::array<SignatureFamily, kSignatureKindCount> kFamilies{{
    // name  row col  label  tolerance  task-explainable
    //
    // Connectivity edges re-announce with every flow between the pair, so
    // they survive substantial loss before an edge genuinely vanishes.
    {"CG", 0, -1, "CG", 0.10, true},
    // Counter-derived statistics: every lost or truncated record moves the
    // per-entry means directly.
    {"FS", 4, -1, "FS", 0.02, true},
    // Distribution shapes and latency baselines (CI, DD, PC, ISL, CRT):
    // individual samples matter less, but a few percent loss still
    // distorts tails.
    {"CI", 2, -1, "CI", 0.05, true},
    {"DD", 1, -1, "DD", 0.05, false},
    {"PC", 3, -1, "PC", 0.05, false},
    // Host attachments ride on sparse per-host evidence (heartbeat-scale):
    // one window's drop pattern hides hosts another window shows, so even
    // sub-percent loss flaps the topology diff in both directions — and
    // measured corruption understates true loss (a dropped event never
    // reaches the sanitizer). Any measurable corruption distrusts PT.
    {"PT", -1, 0, "PT", 0.005, true},
    {"ISL", -1, 1, "ISL", 0.05, false},
    // The controller's column is the paper's "CC".
    {"CRT", -1, 2, "CC", 0.05, false},
    // Counter-derived like FS; shares the ISL column.
    {"UTIL", -1, 1, "ISL", 0.02, false},
}};

}  // namespace

const SignatureFamily& signature_family(SignatureKind kind) {
  return kFamilies[static_cast<std::size_t>(kind)];
}

const char* to_string(SignatureKind kind) {
  return signature_family(kind).name;
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

Confidence change_confidence(SignatureKind kind,
                             const ingest::StreamQuality& quality) {
  if (!quality.degraded()) return Confidence::kHigh;
  const double effective = quality.effective_corruption_rate();
  const double tolerance = signature_family(kind).corruption_tolerance;
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

/// The names a family's diff reports itself under: its trace span
/// ("diff/CG") and its change counter ("diff.changes.CG").
struct FamilyObsNames {
  std::string span;
  std::string counter;
};

const FamilyObsNames& obs_names(SignatureKind kind) {
  static const auto kNames = [] {
    std::array<FamilyObsNames, kSignatureKindCount> names;
    for (std::size_t i = 0; i < kSignatureKindCount; ++i) {
      names[i] = {std::string("diff/") + kFamilies[i].name,
                  std::string("diff.changes.") + kFamilies[i].name};
    }
    return names;
  }();
  return kNames[static_cast<std::size_t>(kind)];
}

/// One linear merge over a keyed family's baseline and current maps: hands
/// every key present on both sides to `gate(key, base, cur)`, in key
/// order. A key on one side only is CG's or PT's business, not a gate's.
template <typename Map, typename Gate>
void for_each_common_key(const Map& base, const Map& cur, Gate gate) {
  const auto less = base.key_comp();
  auto b = base.begin();
  auto c = cur.begin();
  while (b != base.end() && c != cur.end()) {
    if (less(b->first, c->first)) {
      ++b;
    } else if (less(c->first, b->first)) {
      ++c;
    } else {
      gate(b->first, b->second, c->second);
      ++b;
      ++c;
    }
  }
}

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

/// Appends a change that names one component and has no direction.
void emit(std::vector<Change>& out, SignatureKind kind,
          std::string description, double magnitude, ComponentRef component,
          int group_idx = -1) {
  out.push_back({.kind = kind,
                 .description = std::move(description),
                 .magnitude = magnitude,
                 .components = {std::move(component)},
                 .group_index = group_idx});
}

void diff_group(const GroupModel& base, const GroupModel& cur, int group_idx,
                std::vector<Change>& out) {
  std::optional<obs::Span> family_span;

  // --- CG --------------------------------------------------------------
  family_span.emplace(obs_names(SignatureKind::kCg).span);
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
  family_span.emplace(obs_names(SignatureKind::kFs).span);
  for_each_common_key(
      base.sig.fs.per_edge, cur.sig.fs.per_edge,
      [&](const HostEdge& edge, const auto& base_stats, const auto& cur_stats) {
        // The sigma gate suppresses edges whose per-entry counters are
        // naturally noisy (heavily reused connections aggregate a variable
        // number of requests per flow entry).
        if (const double rel = relative_shift(
                base_stats.bytes, cur_stats.bytes, kFsBytesRel, kFsSigma)) {
          emit(out, SignatureKind::kFs,
               "byte count on " + edge_label(edge) + " changed " +
                   std::to_string(static_cast<int>(rel * 100)) + "%",
               rel, edge_component(edge), group_idx);
        }
        if (const double rel =
                relative_shift(base_stats.duration_ms, cur_stats.duration_ms,
                               kFsDurationRel, kFsSigma)) {
          emit(out, SignatureKind::kFs,
               "flow duration on " + edge_label(edge) + " changed", rel,
               edge_component(edge), group_idx);
        }
      });
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
  family_span.emplace(obs_names(SignatureKind::kCi).span);
  for_each_common_key(
      base.sig.ci.per_node, cur.sig.ci.per_node,
      [&](Ipv4 node, const auto& base_ci, const auto& cur_ci) {
        if (base.unstable_ci_nodes.contains(node)) return;
        if (base_ci.total < kMinSamples || cur_ci.total < kMinSamples) return;
        const double chi2 =
            ComponentInteractionSig::chi2_at_node(base_ci, cur_ci);
        if (chi2 > kCiChi2) {
          emit(out, SignatureKind::kCi,
               "component interaction at " + node.to_string() + " changed",
               chi2, node_component(node), group_idx);
        }
      });

  // --- DD (peak shift; unstable pairs skipped) ---------------------------
  family_span.emplace(obs_names(SignatureKind::kDd).span);
  for_each_common_key(
      base.sig.dd.per_pair, cur.sig.dd.per_pair,
      [&](const EdgePair& pair, const auto& base_dd, const auto& cur_dd) {
        if (base.unstable_dd_pairs.contains(pair)) return;
        const double peak_shift = std::abs(cur_dd.peak_ms - base_dd.peak_ms);
        // Histogram shape distance: max per-bin difference of
        // pairs-per-in-flow rates. A dependency contributes ~1 pair per
        // in-flow to its delay bin, so mass moving to a retransmission tail
        // shows up as an O(loss-rate) delta while coincidental-pair noise
        // stays small.
        const double shape_delta =
            base.shape_unstable_dd_pairs.contains(pair)
                ? 0.0
                : dd_shape_distance(base_dd, cur_dd);
        if (peak_shift > kDdPeakShiftMs) {
          emit(out, SignatureKind::kDd,
               "delay peak at " + pair_label(pair) + " shifted " +
                   std::to_string(static_cast<int>(peak_shift)) + "ms",
               peak_shift, pair_component(pair), group_idx);
        } else if (shape_delta > kDdShapeDelta) {
          emit(out, SignatureKind::kDd,
               "delay distribution at " + pair_label(pair) +
                   " reshaped (mass delta " +
                   std::to_string(static_cast<int>(shape_delta * 100)) + "%)",
               shape_delta, pair_component(pair), group_idx);
        }
      });

  // --- PC ----------------------------------------------------------------
  family_span.emplace(obs_names(SignatureKind::kPc).span);
  for_each_common_key(
      base.sig.pc.rho, cur.sig.pc.rho,
      [&](const EdgePair& pair, double base_rho, double cur_rho) {
        if (base.unstable_pc_pairs.contains(pair)) return;
        const double delta = std::abs(cur_rho - base_rho);
        if (delta > kPcDelta) {
          emit(out, SignatureKind::kPc,
               "correlation at " + pair_label(pair) + " changed", delta,
               pair_component(pair), group_idx);
        }
      });
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
  family_span.emplace(obs_names(SignatureKind::kPt).span);
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
  family_span.emplace(obs_names(SignatureKind::kIsl).span);
  for_each_common_key(
      baseline.infra.isl.latency_ms, current.infra.isl.latency_ms,
      [&out](const auto& link, const auto& base_stats, const auto& cur_stats) {
        const double shift =
            latency_shift(base_stats, cur_stats, kIslShiftMs, kIslSigma);
        if (shift == 0.0) return;
        const std::string label = "sw" + std::to_string(link.first) +
                                  "->sw" + std::to_string(link.second);
        emit(out, SignatureKind::kIsl,
             "inter-switch latency " + label + " shifted " +
                 std::to_string(shift) + "ms",
             shift, ComponentRef{label, {}});
      });

  // --- Polled utilization ---------------------------------------------------
  family_span.emplace(obs_names(SignatureKind::kUtil).span);
  for_each_common_key(
      baseline.infra.load.mbps, current.infra.load.mbps,
      [&out](std::uint32_t sw, const auto& base_load, const auto& cur_load) {
        if (!comparable(base_load, cur_load)) return;
        const double delta = std::abs(cur_load.mean() - base_load.mean());
        if (delta < kUtilFloorMbps) return;
        const double base_mean = std::max(base_load.mean(), 0.1);
        if (delta / base_mean > kUtilRel) {
          emit(out, SignatureKind::kUtil,
               "polled throughput at sw" + std::to_string(sw) + " changed " +
                   std::to_string(base_load.mean()) + " -> " +
                   std::to_string(cur_load.mean()) + " Mbps",
               delta / base_mean, ComponentRef{"sw" + std::to_string(sw), {}});
        }
      });

  // --- CRT --------------------------------------------------------------------
  family_span.emplace(obs_names(SignatureKind::kCrt).span);
  if (const double shift =
          latency_shift(baseline.infra.crt.response_ms,
                        current.infra.crt.response_ms, kCrtShiftMs, kCrtSigma)) {
    emit(out, SignatureKind::kCrt,
         "controller response time shifted " + std::to_string(shift) + "ms",
         shift, ComponentRef{"controller", {}});
  }
  family_span.reset();

  // Per-family change counters ("diff.changes.CG", ...), plus the total.
  // A family's counter registers on its first change.
  static obs::Counter& total =
      obs::Registry::global().counter("diff.changes.total");
  total.inc(out.size());
  if (obs::enabled()) {
    std::array<std::uint64_t, kSignatureKindCount> per_family{};
    for (const auto& change : out) {
      ++per_family[static_cast<std::size_t>(change.kind)];
    }
    for (std::size_t i = 0; i < kSignatureKindCount; ++i) {
      if (per_family[i] == 0) continue;
      obs::Registry::global()
          .counter(obs_names(static_cast<SignatureKind>(i)).counter)
          .inc(per_family[i]);
    }
  }

  return out;
}

}  // namespace flowdiff::core
