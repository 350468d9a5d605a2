#include "flowdiff/incremental_model.h"

#include <algorithm>
#include <set>
#include <utility>
#include <vector>

#include "flowdiff/app_groups.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowdiff::core {

namespace {

/// Stored DD pairs across all triples before the window drops them and
/// stops storing more — bounds feed-time memory on adversarial streams
/// (a stored pair is 16 bytes, so the cap is ~16 MB of pairing state).
constexpr std::uint64_t kMaxDdSamples = 1'000'000;

/// Member edges / triples of one application group, in sorted (map) order —
/// the same order the from-scratch extractor visits them in.
struct GroupWork {
  std::vector<const std::pair<const HostEdge, IncrementalWindowState::EdgeAgg>*>
      edges;
  std::vector<
      const std::pair<const EdgePair, IncrementalWindowState::TripleAgg>*>
      triples;
  std::uint64_t start_total = 0;
};

std::uint64_t count_in_range(const std::vector<SimTime>& starts, SimTime t0,
                             SimTime t1) {
  const auto lo = std::lower_bound(starts.begin(), starts.end(), t0);
  const auto hi = std::lower_bound(lo, starts.end(), t1);
  return static_cast<std::uint64_t>(hi - lo);
}

/// Histogram-weighted mean, exactly as the from-scratch extractor computes
/// it (ascending-bin accumulation off bin midpoints).
double hist_mean(const Histogram& hist) {
  double weighted = 0.0;
  for (std::size_t bin = 0; bin < hist.bin_count(); ++bin) {
    weighted += hist.bin_center(bin) * static_cast<double>(hist.count_at(bin));
  }
  return weighted / static_cast<double>(hist.total());
}

/// Window-wide signatures plus the per-segment stability sub-models for one
/// group, assembled from the delta-maintained aggregates. Writes only its
/// own position-indexed GroupModel slot, so the parallel fan-out stays
/// bit-identical to serial.
void assemble_group(const IncrementalWindowState& st, const GroupWork& work,
                    const std::set<Ipv4>& members, SimTime begin, SimTime end,
                    int segments, const ModelConfig& config, GroupModel& out) {
  const AppSignatureConfig& app = config.app;
  GroupSignatures& sig = out.sig;
  sig.members = members;

  // --- CG + CI + FS per-edge, straight off the aggregates -----------------
  for (const auto* e : work.edges) {
    const HostEdge& edge = e->first;
    const auto& agg = e->second;
    const auto n = static_cast<std::uint64_t>(agg.starts.size());
    if (n > 0) {
      if (n >= app.min_edge_flows) {
        sig.cg.graph.add_edge(edge.first, edge.second);
      }
      auto& src_ci = sig.ci.per_node[edge.first];
      src_ci.edge_counts[edge] += n;
      src_ci.total += n;
      auto& dst_ci = sig.ci.per_node[edge.second];
      dst_ci.edge_counts[edge] += n;
      dst_ci.total += n;
    }
    if (n > 0 || agg.removed > 0) {
      auto& fs = sig.fs.per_edge[edge];
      fs.flow_count = n;
      fs.first_ts = n > 0 ? agg.starts.front() : 0;
      fs.bytes = agg.bytes;
      fs.duration_ms = agg.duration_ms;
    }
  }

  // --- FS group-wide flow rate --------------------------------------------
  if (work.start_total > 0) {
    const SimTime rate_end = std::max(end, begin + kSecond);
    const auto buckets =
        static_cast<std::size_t>((rate_end - begin) / kSecond) + 1;
    std::vector<double> per_sec(buckets, 0.0);
    for (const auto* e : work.edges) {
      for (const SimTime ts : e->second.starts) {
        const auto b = static_cast<std::size_t>((ts - begin) / kSecond);
        if (b < buckets) per_sec[b] += 1.0;
      }
    }
    for (const double v : per_sec) sig.fs.flows_per_sec.add(v);
  }

  // --- DD window-wide: gate the streamed triples --------------------------
  for (const auto* t : work.triples) {
    const auto& [a, b, c] = t->first;
    const auto& agg = t->second;
    const auto in_n = static_cast<std::uint64_t>(
        st.edges.find(HostEdge{a, b})->second.starts.size());
    const auto out_n = static_cast<std::uint64_t>(
        st.edges.find(HostEdge{b, c})->second.starts.size());
    if (in_n < app.min_edge_flows || out_n < app.min_edge_flows) continue;
    if (agg.hist.total() < app.min_edge_flows) continue;
    DelayDistributionSig::PairDd pair;
    pair.hist = agg.hist;
    pair.in_flows = in_n;
    pair.out_flows = out_n;
    pair.samples = agg.hist.total();
    pair.peak_ms = pair.hist.top_peak().center;
    pair.mean_ms = hist_mean(pair.hist);
    sig.dd.per_pair[t->first] = std::move(pair);
  }

  // --- PC window-wide ------------------------------------------------------
  if (work.start_total > 0 && end > begin) {
    const auto epochs =
        static_cast<std::size_t>((end - begin) / app.pc_epoch) + 1;
    struct EdgeSeries {
      const HostEdge* edge;
      std::uint64_t n;
      std::vector<double> series;
    };
    std::vector<EdgeSeries> series;
    series.reserve(work.edges.size());
    std::vector<double> group_series;
    if (app.pc_control_for_group) group_series.assign(epochs, 0.0);
    for (const auto* e : work.edges) {
      if (e->second.starts.empty()) continue;
      EdgeSeries s{&e->first,
                   static_cast<std::uint64_t>(e->second.starts.size()),
                   std::vector<double>(epochs, 0.0)};
      for (const SimTime ts : e->second.starts) {
        const auto ep = static_cast<std::size_t>((ts - begin) / app.pc_epoch);
        if (ep < epochs) {
          s.series[ep] += 1.0;
          if (app.pc_control_for_group) group_series[ep] += 1.0;
        }
      }
      series.push_back(std::move(s));
    }
    for (const auto& in : series) {
      if (in.n < app.min_edge_flows) continue;
      const Ipv4 node = in.edge->second;
      for (const auto& out_s : series) {
        if (out_s.edge->first != node) continue;
        if (out_s.edge->second == in.edge->first) continue;
        if (out_s.n < app.min_edge_flows) continue;
        double rho;
        if (app.pc_control_for_group) {
          std::vector<double> control(epochs, 0.0);
          for (std::size_t ep = 0; ep < epochs; ++ep) {
            control[ep] = group_series[ep] - in.series[ep] - out_s.series[ep];
          }
          rho = partial_correlation(in.series, out_s.series, control);
        } else {
          rho = pearson(in.series, out_s.series);
        }
        sig.pc.rho[EdgePair{in.edge->first, node, out_s.edge->second}] = rho;
      }
    }
  }

  // --- Per-segment stability sub-models ------------------------------------
  // The from-scratch build re-extracts each segment from a sliced log; here
  // every segment is reconstructed from the same aggregates via binary
  // search on the per-edge start times and a re-bucketing pass over the
  // stored DD pairs. Stability only reads CI/DD/PC of the segments.
  const auto seg_count = static_cast<std::size_t>(segments);
  const SimTime span_us = std::max<SimTime>(end - begin, 1);
  std::vector<SimTime> bound(seg_count + 1);
  for (std::size_t k = 0; k <= seg_count; ++k) {
    bound[k] = begin + span_us * static_cast<SimTime>(k) / segments;
  }
  std::vector<GroupSignatures> per_segment(seg_count);
  for (std::size_t s = 0; s < seg_count; ++s) {
    const SimTime t0 = bound[s];
    const SimTime t1 = bound[s + 1];
    GroupSignatures& seg = per_segment[s];

    std::uint64_t seg_total = 0;
    for (const auto* e : work.edges) {
      const auto n = count_in_range(e->second.starts, t0, t1);
      seg_total += n;
      if (n == 0) continue;
      const HostEdge& edge = e->first;
      auto& src_ci = seg.ci.per_node[edge.first];
      src_ci.edge_counts[edge] += n;
      src_ci.total += n;
      auto& dst_ci = seg.ci.per_node[edge.second];
      dst_ci.edge_counts[edge] += n;
      dst_ci.total += n;
    }

    // Only triples that passed the window gates can pass the (tighter)
    // segment gates, so re-bucketing the window's survivors is exact. Over
    // the DD budget there are no pairs to re-bucket.
    for (const auto& [triple, window_pair] : sig.dd.per_pair) {
      if (st.dd_over_budget) break;
      const auto& [a, b, c] = triple;
      const auto in_n = count_in_range(
          st.edges.find(HostEdge{a, b})->second.starts, t0, t1);
      if (in_n < app.min_edge_flows) continue;
      const auto out_n = count_in_range(
          st.edges.find(HostEdge{b, c})->second.starts, t0, t1);
      if (out_n < app.min_edge_flows) continue;
      const auto& pairs = st.triples.find(triple)->second.pairs;
      std::uint64_t samples = 0;
      for (const auto& [t_in, t_out] : pairs) {
        if (t_out >= t0 && t_out < t1 && t_in >= t0) ++samples;
      }
      if (samples < app.min_edge_flows) continue;
      DelayDistributionSig::PairDd pair;
      pair.hist = Histogram{app.dd_bin_ms};
      for (const auto& [t_in, t_out] : pairs) {
        if (t_out >= t0 && t_out < t1 && t_in >= t0) {
          pair.hist.add(to_millis(t_out - t_in));
        }
      }
      pair.in_flows = in_n;
      pair.out_flows = out_n;
      pair.samples = samples;
      pair.peak_ms = pair.hist.top_peak().center;
      pair.mean_ms = hist_mean(pair.hist);
      seg.dd.per_pair[triple] = std::move(pair);
    }

    if (seg_total > 0 && t1 > t0) {
      const auto epochs =
          static_cast<std::size_t>((t1 - t0) / app.pc_epoch) + 1;
      struct EdgeSeries {
        const HostEdge* edge;
        std::uint64_t n;
        std::vector<double> series;
      };
      std::vector<EdgeSeries> series;
      std::vector<double> group_series;
      if (app.pc_control_for_group) group_series.assign(epochs, 0.0);
      for (const auto* e : work.edges) {
        const auto& starts = e->second.starts;
        const auto lo = std::lower_bound(starts.begin(), starts.end(), t0);
        const auto hi = std::lower_bound(lo, starts.end(), t1);
        if (lo == hi) continue;
        EdgeSeries es{&e->first, static_cast<std::uint64_t>(hi - lo),
                      std::vector<double>(epochs, 0.0)};
        for (auto it = lo; it != hi; ++it) {
          const auto ep = static_cast<std::size_t>((*it - t0) / app.pc_epoch);
          if (ep < epochs) {
            es.series[ep] += 1.0;
            if (app.pc_control_for_group) group_series[ep] += 1.0;
          }
        }
        series.push_back(std::move(es));
      }
      for (const auto& in : series) {
        if (in.n < app.min_edge_flows) continue;
        const Ipv4 node = in.edge->second;
        for (const auto& out_s : series) {
          if (out_s.edge->first != node) continue;
          if (out_s.edge->second == in.edge->first) continue;
          if (out_s.n < app.min_edge_flows) continue;
          double rho;
          if (app.pc_control_for_group) {
            std::vector<double> control(epochs, 0.0);
            for (std::size_t ep = 0; ep < epochs; ++ep) {
              control[ep] = group_series[ep] - in.series[ep] - out_s.series[ep];
            }
            rho = partial_correlation(in.series, out_s.series, control);
          } else {
            rho = pearson(in.series, out_s.series);
          }
          seg.pc.rho[EdgePair{in.edge->first, node, out_s.edge->second}] = rho;
        }
      }
    }
  }

  analyze_group_stability(per_segment, config, out);
  if (st.dd_over_budget) {
    for (const auto& [triple, pair] : sig.dd.per_pair) {
      out.unstable_dd_pairs.insert(triple);
    }
  }
}

/// Infrastructure signatures from the incremental state. CRT and UTIL are
/// already running sums; PT/ISL walk the completed occurrences without the
/// from-scratch extractor's per-occurrence copies: consecutive same-switch
/// hops collapse on the fly, topology edges dedupe on integer codes before
/// any node string is built, and ISL stats accumulate in the identical
/// walk order.
InfraSignatures assemble_infra(const IncrementalWindowState& st) {
  InfraSignatures out;

  // Integer node codes: high bit selects switch vs host; strings are built
  // once per distinct node that actually reaches the graph.
  constexpr std::uint64_t kSwitchBit = 1ULL << 32;
  std::unordered_map<std::uint64_t, PtNode> names;
  const auto name_of = [&names](std::uint64_t code) -> const PtNode& {
    auto it = names.find(code);
    if (it == names.end()) {
      PtNode n = (code & kSwitchBit)
                     ? pt_switch_node(SwitchId{static_cast<std::uint32_t>(code)})
                     : pt_host_node(Ipv4{static_cast<std::uint32_t>(code)});
      it = names.emplace(code, std::move(n)).first;
    }
    return it->second;
  };
  std::set<std::pair<std::uint64_t, std::uint64_t>> seen;
  const auto add_undirected = [&](std::uint64_t u, std::uint64_t v) {
    const auto [lo, hi] = std::minmax(u, v);
    if (!seen.insert({lo, hi}).second) return;
    // Orientation canonicalizes on the *string* order, exactly like the
    // from-scratch extractor ("host:..." < "sw:...", "sw:10" < "sw:9").
    const PtNode& a = name_of(u);
    const PtNode& b = name_of(v);
    if (a <= b) {
      out.pt.graph.add_edge(a, b);
    } else {
      out.pt.graph.add_edge(b, a);
    }
  };

  std::vector<const SwitchHop*> walk;
  for (const auto& occ : st.occurrences) {
    if (occ.hops.empty()) continue;
    walk.clear();
    for (const auto& hop : occ.hops) {
      if (!walk.empty() && walk.back()->sw == hop.sw) continue;
      walk.push_back(&hop);
    }
    std::size_t answered = 0;
    while (answered < walk.size() && walk[answered]->flow_mod_ts >= 0) {
      ++answered;
    }
    add_undirected(occ.key.src_ip.raw(), kSwitchBit | walk.front()->sw.value);
    if (answered == walk.size()) {
      add_undirected(kSwitchBit | walk.back()->sw.value, occ.key.dst_ip.raw());
    }
    for (std::size_t i = 0; i + 1 < answered; ++i) {
      const SwitchHop& a = *walk[i];
      const SwitchHop& b = *walk[i + 1];
      add_undirected(kSwitchBit | a.sw.value, kSwitchBit | b.sw.value);
      if (b.packet_in_ts >= a.flow_mod_ts) {
        out.isl.latency_ms[{a.sw.value, b.sw.value}].add(
            to_millis(b.packet_in_ts - a.flow_mod_ts));
      }
    }
  }

  out.crt.response_ms = st.crt_response_ms;
  for (const auto& [key, bps] : st.per_poll_bps) {
    out.load.mbps[key.first].add(bps / 1e6);
  }
  return out;
}

}  // namespace

void IncrementalWindowState::reset() {
  active = false;
  dd_over_budget = false;
  begin = 0;
  end = 0;
  events = 0;
  occurrences.clear();
  open.clear();
  edges.clear();
  triples.clear();
  dd_samples = 0;
  in_recent.clear();
  out_recent.clear();
  crt_response_ms = RunningStats{};
  per_poll_bps.clear();
}

IncrementalModeler::IncrementalModeler(ModelConfig config)
    : config_(std::move(config)), supported_(supported(config_)) {}

bool IncrementalModeler::supported(const ModelConfig& config) {
  return config.app.min_edge_flows >= 1;
}

void IncrementalModeler::feed(IncrementalWindowState& st,
                              const of::ControlEvent& event) const {
  if (!supported_) return;
  if (!st.active) {
    st.active = true;
    st.begin = event.ts;
  }
  st.end = event.ts;
  ++st.events;

  if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
    auto it = st.open.find(pin->key);
    if (it == st.open.end() ||
        event.ts - it->second.last_ts > grouping_window_) {
      FlowOccurrence occ;
      occ.key = pin->key;
      occ.first_ts = event.ts;
      st.occurrences.push_back(std::move(occ));
      it = st.open
               .insert_or_assign(
                   pin->key,
                   IncrementalWindowState::Open{st.occurrences.size() - 1,
                                                event.ts})
               .first;
      on_start(st, pin->key, event.ts);
    }
    auto& occ = st.occurrences[it->second.index];
    occ.hops.push_back(
        SwitchHop{pin->sw, pin->in_port, PortId{}, event.ts, -1});
    it->second.last_ts = event.ts;
  } else if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
    auto it = st.open.find(fm->key);
    if (it == st.open.end()) return;
    auto& occ = st.occurrences[it->second.index];
    for (auto hop = occ.hops.rbegin(); hop != occ.hops.rend(); ++hop) {
      if (hop->sw == fm->sw && hop->flow_mod_ts < 0) {
        hop->flow_mod_ts = event.ts;
        hop->out_port = fm->out_port;
        st.crt_response_ms.add(to_millis(event.ts - hop->packet_in_ts));
        break;
      }
    }
    it->second.last_ts = event.ts;
  } else if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
    auto& agg = st.edges[HostEdge{fr->key.src_ip, fr->key.dst_ip}];
    agg.bytes.add(static_cast<double>(fr->byte_count));
    agg.duration_ms.add(to_millis(fr->duration));
    ++agg.removed;
  } else if (const auto* fs = std::get_if<of::FlowStatsReply>(&event.msg)) {
    if (fs->age > 0) {
      st.per_poll_bps[{fs->sw.value, event.ts}] +=
          static_cast<double>(fs->byte_count) * 8.0 / to_seconds(fs->age);
    }
  }
}

void IncrementalModeler::on_start(IncrementalWindowState& st,
                                  const of::FlowKey& key, SimTime ts) const {
  const Ipv4 src = key.src_ip;
  const Ipv4 dst = key.dst_ip;
  st.edges[HostEdge{src, dst}].starts.push_back(ts);

  // Streaming DD pairing. Every (in-flow, out-flow) pair the from-scratch
  // extractor would form with 0 <= t_out - t_in <= dd_window is recorded
  // exactly once, at the arrival of the later of the two flows.
  const SimDuration window = config_.app.dd_window;
  if (auto it = st.in_recent.find(src); it != st.in_recent.end()) {
    // This start is the out-flow of `src`: pair with earlier flows into it.
    auto& dq = it->second;
    while (!dq.empty() && ts - dq.front().second > window) dq.pop_front();
    for (const auto& [a, t_in] : dq) {
      if (a == dst) continue;  // Pure replies carry no dependency signal.
      record_pair(st, EdgePair{a, src, dst}, t_in, ts);
    }
  }
  if (auto it = st.out_recent.find(dst); it != st.out_recent.end()) {
    // This start is the in-flow into `dst`: an out-flow of `dst` already
    // processed can only pair with it when the timestamps are equal
    // (anything earlier would make the delta negative).
    auto& dq = it->second;
    while (!dq.empty() && dq.front().second < ts) dq.pop_front();
    for (const auto& [d, t_out] : dq) {
      if (d == src) continue;
      record_pair(st, EdgePair{src, dst, d}, ts, t_out);
    }
  }
  st.in_recent[dst].emplace_back(src, ts);
  st.out_recent[src].emplace_back(dst, ts);
}

void IncrementalModeler::record_pair(IncrementalWindowState& st,
                                     const EdgePair& triple, SimTime t_in,
                                     SimTime t_out) const {
  auto it = st.triples.find(triple);
  if (it == st.triples.end()) {
    it = st.triples
             .try_emplace(triple,
                          IncrementalWindowState::TripleAgg{
                              config_.app.dd_bin_ms})
             .first;
  }
  it->second.hist.add(to_millis(t_out - t_in));
  ++st.dd_samples;
  if (st.dd_over_budget) return;
  if (st.dd_samples <= kMaxDdSamples) {
    it->second.pairs.emplace_back(t_in, t_out);
    return;
  }
  // Over budget: free every stored pair; the histograms keep counting.
  st.dd_over_budget = true;
  for (auto& [triple, agg] : st.triples) {
    std::vector<std::pair<SimTime, SimTime>>().swap(agg.pairs);
  }
}

BehaviorModel IncrementalModeler::finalize(
    const IncrementalWindowState& st) const {
  const obs::Span span("model");
  static obs::LatencyHistogram& build_ms =
      obs::Registry::global().histogram("model.build_ms", 5.0);
  const obs::ScopedTimer timer(build_ms);
  static obs::Counter& builds = obs::Registry::global().counter("model.builds");
  static obs::Counter& events =
      obs::Registry::global().counter("model.events_consumed");
  static obs::Counter& finalizes =
      obs::Registry::global().counter("model.incremental_finalizes");
  builds.inc();
  events.inc(st.events);
  finalizes.inc();

  BehaviorModel model;
  model.begin = st.begin;
  model.end = st.end;
  model.flow_starts.reserve(st.occurrences.size());
  for (const auto& occ : st.occurrences) {
    model.flow_starts.push_back(of::TimedFlow{occ.first_ts, occ.key});
  }

  const AppGroups groups =
      discover_groups(model.flow_starts, config_.special_nodes);
  std::map<Ipv4, int> index_of;
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    for (const Ipv4 ip : groups.groups[g]) {
      index_of.emplace(ip, static_cast<int>(g));
    }
  }

  // Bucket the global aggregate maps per group; map order per bucket is the
  // per-group sorted order the from-scratch extractor iterates in.
  const std::size_t group_count = groups.groups.size();
  std::vector<GroupWork> work(group_count);
  for (const auto& entry : st.edges) {
    const auto src = index_of.find(entry.first.first);
    if (src == index_of.end()) continue;
    const auto dst = index_of.find(entry.first.second);
    if (dst == index_of.end() || dst->second != src->second) continue;
    auto& w = work[static_cast<std::size_t>(src->second)];
    w.edges.push_back(&entry);
    w.start_total += entry.second.starts.size();
  }
  for (const auto& entry : st.triples) {
    const auto ia = index_of.find(std::get<0>(entry.first));
    if (ia == index_of.end()) continue;
    const auto ib = index_of.find(std::get<1>(entry.first));
    if (ib == index_of.end() || ib->second != ia->second) continue;
    const auto ic = index_of.find(std::get<2>(entry.first));
    if (ic == index_of.end() || ic->second != ia->second) continue;
    work[static_cast<std::size_t>(ia->second)].triples.push_back(&entry);
  }

  {
    const obs::Span infra_span("model/infra");
    model.infra = assemble_infra(st);
  }

  model.groups.resize(group_count);
  const int segments = std::max(2, config_.stability_segments);
  {
    const obs::Span sig_span("model/signatures");
    for (std::size_t g = 0; g < group_count; ++g) {
      assemble_group(st, work[g], groups.groups[g], model.begin, model.end,
                     segments, config_, model.groups[g]);
    }
  }
  return model;
}

}  // namespace flowdiff::core
