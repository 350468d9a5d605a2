#include "flowdiff/incremental_model.h"

#include <algorithm>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flowdiff/app_groups.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace flowdiff::core {

namespace {

using State = IncrementalWindowState;

/// One edge as finalize reads it: its host pair and its flow-start times,
/// nondecreasing, as a slice of one window-wide array.
struct EdgeView {
  HostEdge edge;
  std::span<const SimTime> starts;
  const State::EdgeAgg* agg = nullptr;
};

/// One triple as finalize reads it.
struct TripleView {
  EdgePair triple;
  std::uint32_t id = 0;  ///< Triple id: dd_hists slot.
  std::uint32_t in_edge = 0;
  std::uint32_t out_edge = 0;
};

/// Member edges / triples of one application group, in sorted (map) order —
/// the same order the from-scratch extractor visits them in.
struct GroupWork {
  std::vector<const EdgeView*> edges;
  std::vector<const TripleView*> triples;
};

/// The part of `starts` (nondecreasing) inside [t0, t1).
std::span<const SimTime> slice(std::span<const SimTime> starts, SimTime t0,
                               SimTime t1) {
  const auto lo = std::lower_bound(starts.begin(), starts.end(), t0);
  const auto hi = std::lower_bound(lo, starts.end(), t1);
  return {lo, hi};
}

/// A group edge's flow starts inside the window or one of its segments.
struct EdgeSlice {
  const HostEdge* edge;
  std::span<const SimTime> starts;  ///< Non-empty.
};

/// The group's non-empty edge slices inside [t0, t1), in map order.
void slice_edges(const GroupWork& work, SimTime t0, SimTime t1,
                 std::vector<EdgeSlice>& out) {
  out.clear();
  for (const EdgeView* e : work.edges) {
    const auto starts = slice(e->starts, t0, t1);
    if (!starts.empty()) out.push_back(EdgeSlice{&e->edge, starts});
  }
}

/// CI: each slice's flow count on both its endpoints.
void add_ci(const std::vector<EdgeSlice>& slices,
            ComponentInteractionSig& ci) {
  for (const EdgeSlice& s : slices) {
    const auto n = static_cast<std::uint64_t>(s.starts.size());
    auto& src_ci = ci.per_node[s.edge->first];
    src_ci.edge_counts[*s.edge] += n;
    src_ci.total += n;
    auto& dst_ci = ci.per_node[s.edge->second];
    dst_ci.edge_counts[*s.edge] += n;
    dst_ci.total += n;
  }
}

/// PC over `epochs` epochs of `kPcEpoch` from `t0`, exactly as the
/// from-scratch extractor computes it on the same flow starts.
void add_pc(const std::vector<EdgeSlice>& slices, SimTime t0,
            std::size_t epochs, PartialCorrelationSig& pc) {
  std::vector<std::vector<double>> series(slices.size(),
                                          std::vector<double>(epochs, 0.0));
  for (std::size_t i = 0; i < slices.size(); ++i) {
    for (const SimTime ts : slices[i].starts) {
      const auto ep = static_cast<std::size_t>((ts - t0) / kPcEpoch);
      if (ep < epochs) series[i][ep] += 1.0;
    }
  }
  for (std::size_t i = 0; i < slices.size(); ++i) {
    const HostEdge& in = *slices[i].edge;
    if (slices[i].starts.size() < kMinEdgeFlows) continue;
    for (std::size_t o = 0; o < slices.size(); ++o) {
      const HostEdge& out = *slices[o].edge;
      if (out.first != in.second) continue;
      if (out.second == in.first) continue;
      if (slices[o].starts.size() < kMinEdgeFlows) continue;
      pc.rho[EdgePair{in.first, in.second, out.second}] =
          pearson(series[i], series[o]);
    }
  }
}

/// Window-wide signatures plus the per-segment stability sub-models for one
/// group, assembled from the delta-maintained aggregates. `views` is
/// indexed by edge id.
void assemble_group(const State& st, const std::vector<EdgeView>& views,
                    const GroupWork& work, const std::set<Ipv4>& members,
                    SimTime begin, SimTime end, GroupModel& out) {
  GroupSignatures& sig = out.sig;
  sig.members = members;

  // --- CG + FS per-edge, straight off the aggregates ----------------------
  for (const EdgeView* e : work.edges) {
    const HostEdge& edge = e->edge;
    const auto n = static_cast<std::uint64_t>(e->starts.size());
    if (n >= kMinEdgeFlows) {
      sig.cg.graph.add_edge(edge.first, edge.second);
    }
    if (n > 0 || e->agg->removed > 0) {
      auto& fs = sig.fs.per_edge[edge];
      fs.flow_count = n;
      fs.first_ts = n > 0 ? e->starts.front() : 0;
      fs.bytes = e->agg->bytes;
      fs.duration_ms = e->agg->duration_ms;
    }
  }
  std::vector<EdgeSlice> slices;
  for (const EdgeView* e : work.edges) {
    if (!e->starts.empty()) slices.push_back(EdgeSlice{&e->edge, e->starts});
  }
  add_ci(slices, sig.ci);

  // --- FS group-wide flow rate --------------------------------------------
  if (!slices.empty()) {
    const SimTime rate_end = flow_rate_end(begin, end);
    const auto buckets =
        static_cast<std::size_t>((rate_end - begin) / kSecond) + 1;
    std::vector<double> per_sec(buckets, 0.0);
    for (const EdgeSlice& s : slices) {
      for (const SimTime ts : s.starts) {
        const auto b = static_cast<std::size_t>((ts - begin) / kSecond);
        if (b < buckets) per_sec[b] += 1.0;
      }
    }
    for (const double v : per_sec) sig.fs.flows_per_sec.add(v);
  }

  // --- DD window-wide: gate the streamed triples --------------------------
  // Survivors, the only triples that can pass the (tighter) segment gates.
  std::vector<const TripleView*> survivors;
  for (const TripleView* t : work.triples) {
    const auto in_n =
        static_cast<std::uint64_t>(views[t->in_edge].starts.size());
    const auto out_n =
        static_cast<std::uint64_t>(views[t->out_edge].starts.size());
    const Histogram& hist = st.dd_hists[t->id];
    if (!dd_gate(in_n, out_n, hist.total())) continue;
    DelayDistributionSig::PairDd pair;
    pair.hist = hist;
    pair.in_flows = in_n;
    pair.out_flows = out_n;
    pair.samples = hist.total();
    summarize_delays(pair);
    sig.dd.per_pair[t->triple] = std::move(pair);
    survivors.push_back(t);
  }

  // --- PC window-wide ------------------------------------------------------
  if (!slices.empty() && end > begin) {
    add_pc(slices, begin,
           static_cast<std::size_t>((end - begin) / kPcEpoch) + 1, sig.pc);
  }

  // --- Per-segment stability sub-models ------------------------------------
  // The from-scratch build re-extracts each segment from a log sliced by
  // flow start; here each segment is the same slices of the per-edge start
  // times, found by binary search. DD pairs the survivors' slices afresh:
  // a pair counts in a segment only when both its flows start in it.
  // Stability only reads CI/DD/PC of the segments.
  const SimTime span_us = std::max<SimTime>(end - begin, 1);
  std::vector<GroupSignatures> per_segment(kStabilitySegments);
  for (int s = 0; s < kStabilitySegments; ++s) {
    const SimTime t0 = begin + span_us * s / kStabilitySegments;
    const SimTime t1 = begin + span_us * (s + 1) / kStabilitySegments;
    GroupSignatures& seg = per_segment[static_cast<std::size_t>(s)];
    slice_edges(work, t0, t1, slices);
    add_ci(slices, seg.ci);
    if (!slices.empty() && t1 > t0) {
      add_pc(slices, t0, static_cast<std::size_t>((t1 - t0) / kPcEpoch) + 1,
             seg.pc);
    }
    for (const TripleView* t : survivors) {
      DelayDistributionSig::PairDd pair;
      if (pair_delays(slice(views[t->in_edge].starts, t0, t1),
                      slice(views[t->out_edge].starts, t0, t1), pair)) {
        seg.dd.per_pair[t->triple] = std::move(pair);
      }
    }
  }

  analyze_group_stability(per_segment, out);
}

/// Infrastructure signatures from the incremental state. CRT and UTIL are
/// already running sums; PT/ISL walk the completed occurrences without the
/// from-scratch extractor's per-occurrence copies: consecutive same-switch
/// hops collapse on the fly, topology edges dedupe on integer codes before
/// any node string is built, and ISL stats accumulate in the identical
/// walk order.
InfraSignatures assemble_infra(const State& st) {
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

  std::vector<const State::Hop*> walk;
  for (const auto& occ : st.occurrences) {
    // Newest-first along the hop chain, keeping the oldest hop of each run
    // of same-switch hops; then reversed into path order.
    walk.clear();
    for (std::uint32_t h = occ.last_hop; h != State::kNone;
         h = st.hops[h].prev) {
      const State::Hop& hop = st.hops[h];
      if (!walk.empty() && walk.back()->sw == hop.sw) {
        walk.back() = &hop;
      } else {
        walk.push_back(&hop);
      }
    }
    std::reverse(walk.begin(), walk.end());
    std::size_t answered = 0;
    while (answered < walk.size() && walk[answered]->flow_mod_ts >= 0) {
      ++answered;
    }
    add_undirected(occ.key.src_ip.raw(), kSwitchBit | walk.front()->sw.value);
    if (answered == walk.size()) {
      add_undirected(kSwitchBit | walk.back()->sw.value, occ.key.dst_ip.raw());
    }
    for (std::size_t i = 0; i + 1 < answered; ++i) {
      const State::Hop& a = *walk[i];
      const State::Hop& b = *walk[i + 1];
      add_undirected(kSwitchBit | a.sw.value, kSwitchBit | b.sw.value);
      if (b.packet_in_ts >= a.flow_mod_ts) {
        out.isl.latency_ms[{a.sw.value, b.sw.value}].add(
            to_millis(b.packet_in_ts - a.flow_mod_ts));
      }
    }
  }

  out.crt.response_ms = st.crt_response_ms;
  // A switch's polls arrive in time order, so arrival order visits each
  // switch's samples in the (switch, time) order the extractor sums in.
  for (const State::Poll& poll : st.polls) {
    out.load.mbps[poll.sw].add(poll.bps / 1e6);
  }
  return out;
}

}  // namespace

void IncrementalWindowState::reserve(std::size_t packet_ins) {
  occurrences.reserve(packet_ins);
  hops.reserve(packet_ins);
  open.reserve(packet_ins);
}

void IncrementalWindowState::reset() {
  if (!active) return;
  active = false;
  begin = 0;
  end = 0;
  events = 0;
  recycle(occurrences);
  recycle(hops);
  open.clear();
  hosts.clear();
  edges.clear();
  // The histogram pool is sized by the triples it served.
  if (dd_hists.size() > 4 * triples.size()) {
    std::vector<Histogram>().swap(dd_hists);
  }
  triples.clear();
  crt_response_ms = RunningStats{};
  recycle(polls);
  newest_poll.clear();
}

IncrementalModeler::IncrementalModeler(ModelConfig config)
    : config_(std::move(config)) {}

void IncrementalModeler::feed(State& st, const of::ControlEvent& event) const {
  if (!st.active) {
    st.active = true;
    st.begin = event.ts;
  }
  st.end = event.ts;
  ++st.events;

  if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
    const auto [slot, inserted] = st.open.insert(pin->key);
    std::uint32_t index = st.open.at(slot).value;
    if (inserted ||
        event.ts - st.occurrences[index].last_ts > kGroupingWindow) {
      index = start_occurrence(st, pin->key, event.ts);
      st.open.at(slot).value = index;
    }
    State::Occurrence& occ = st.occurrences[index];
    st.hops.push_back(State::Hop{pin->sw, occ.last_hop, event.ts, -1});
    occ.last_hop = static_cast<std::uint32_t>(st.hops.size() - 1);
    occ.last_ts = event.ts;
  } else if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
    const std::uint32_t slot = st.open.find(fm->key);
    if (slot == st.open.npos) return;
    State::Occurrence& occ = st.occurrences[st.open.at(slot).value];
    // Newest unanswered hop at this switch, as parse_log answers it.
    for (std::uint32_t h = occ.last_hop; h != State::kNone;
         h = st.hops[h].prev) {
      State::Hop& hop = st.hops[h];
      if (hop.sw == fm->sw && hop.flow_mod_ts < 0) {
        hop.flow_mod_ts = event.ts;
        st.crt_response_ms.add(to_millis(event.ts - hop.packet_in_ts));
        break;
      }
    }
    occ.last_ts = event.ts;
  } else if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
    auto& agg = st.edges.at(intern_edge(st, fr->key)).value;
    agg.bytes.add(static_cast<double>(fr->byte_count));
    agg.duration_ms.add(to_millis(fr->duration));
    ++agg.removed;
  } else if (const auto* fs = std::get_if<of::FlowStatsReply>(&event.msg)) {
    if (fs->age > 0) {
      const auto [slot, inserted] = st.newest_poll.insert(fs->sw.value);
      std::uint32_t& newest = st.newest_poll.at(slot).value;
      if (inserted || st.polls[newest].ts != event.ts) {
        newest = static_cast<std::uint32_t>(st.polls.size());
        st.polls.push_back(State::Poll{fs->sw.value, event.ts, 0.0});
      }
      st.polls[newest].bps +=
          static_cast<double>(fs->byte_count) * 8.0 / to_seconds(fs->age);
    }
  }
}

std::uint32_t IncrementalModeler::start_occurrence(State& st,
                                                   const of::FlowKey& key,
                                                   SimTime ts) {
  const std::uint32_t edge = intern_edge(st, key);
  State::EdgeAgg& agg = st.edges.at(edge).value;
  ++agg.starts;
  const std::uint32_t src = agg.src;
  const std::uint32_t dst = agg.dst;

  // Streaming DD pairing. Every (in-flow, out-flow) pair the from-scratch
  // extractor would form with 0 <= t_out - t_in <= kDdWindow is recorded
  // exactly once, at the arrival of the later of the two flows. The chains
  // run newest-first, so each walk stops at the first flow out of reach.
  // This start is the out-flow of `src`: pair with earlier flows into it.
  for (std::uint32_t i = st.hosts.at(src).value.newest_in; i != State::kNone;
       i = st.occurrences[i].prev_in) {
    const State::Occurrence& in = st.occurrences[i];
    if (ts - in.first_ts > kDdWindow) break;
    // Pure replies carry no dependency signal.
    if (st.edges.at(in.edge).value.src == dst) continue;
    record_pair(st, in.edge, edge, in.first_ts, ts);
  }
  // This start is the in-flow into `dst`: an out-flow of `dst` already
  // processed can only pair with it when the timestamps are equal
  // (anything earlier would make the delta negative).
  for (std::uint32_t j = st.hosts.at(dst).value.newest_out; j != State::kNone;
       j = st.occurrences[j].prev_out) {
    const State::Occurrence& out = st.occurrences[j];
    if (out.first_ts < ts) break;
    if (st.edges.at(out.edge).value.dst == src) continue;
    record_pair(st, edge, out.edge, ts, out.first_ts);
  }

  const auto index = static_cast<std::uint32_t>(st.occurrences.size());
  State::HostChains& into = st.hosts.at(dst).value;
  State::HostChains& out_of = st.hosts.at(src).value;
  st.occurrences.push_back(State::Occurrence{
      key, edge, State::kNone, into.newest_in, out_of.newest_out, ts, ts});
  into.newest_in = index;
  out_of.newest_out = index;
  return index;
}

std::uint32_t IncrementalModeler::intern_edge(State& st,
                                              const of::FlowKey& key) {
  const std::uint32_t src = st.hosts.insert(key.src_ip.raw()).first;
  const std::uint32_t dst = st.hosts.insert(key.dst_ip.raw()).first;
  const auto [edge, inserted] =
      st.edges.insert(std::uint64_t{src} << 32 | dst);
  if (inserted) {
    st.edges.at(edge).value.src = src;
    st.edges.at(edge).value.dst = dst;
  }
  return edge;
}

void IncrementalModeler::record_pair(State& st, std::uint32_t in_edge,
                                     std::uint32_t out_edge, SimTime t_in,
                                     SimTime t_out) {
  const auto [id, inserted] =
      st.triples.insert(std::uint64_t{in_edge} << 32 | out_edge);
  State::TripleAgg& agg = st.triples.at(id).value;
  if (inserted) {
    agg.in_edge = in_edge;
    agg.out_edge = out_edge;
    if (id == st.dd_hists.size()) {
      st.dd_hists.emplace_back(kDdBinMs);
    } else {
      st.dd_hists[id].clear();
    }
  }
  st.dd_hists[id].add(to_millis(t_out - t_in));
}

BehaviorModel IncrementalModeler::finalize(const State& st) const {
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
  std::vector<int> group_of(st.hosts.size(), -1);
  for (std::size_t g = 0; g < groups.groups.size(); ++g) {
    for (const Ipv4 ip : groups.groups[g]) {
      const std::uint32_t host = st.hosts.find(ip.raw());
      if (host != st.hosts.npos && group_of[host] < 0) {
        group_of[host] = static_cast<int>(g);
      }
    }
  }
  const auto ip_of = [&st](std::uint32_t host) {
    return Ipv4{st.hosts.at(host).key};
  };

  // Every edge's flow starts as one slice of a window-wide array: a
  // counting sort of the occurrences by edge, stable, so each slice stays
  // in time order.
  const std::size_t edge_count = st.edges.size();
  std::vector<std::size_t> offset(edge_count + 1, 0);
  for (std::uint32_t e = 0; e < edge_count; ++e) {
    offset[e + 1] = offset[e] + st.edges.at(e).value.starts;
  }
  std::vector<SimTime> starts(st.occurrences.size());
  {
    std::vector<std::size_t> next(offset.begin(), offset.end() - 1);
    for (const auto& occ : st.occurrences) {
      starts[next[occ.edge]++] = occ.first_ts;
    }
  }
  std::vector<EdgeView> views(edge_count);
  for (std::uint32_t e = 0; e < edge_count; ++e) {
    const State::EdgeAgg& agg = st.edges.at(e).value;
    views[e] = EdgeView{HostEdge{ip_of(agg.src), ip_of(agg.dst)},
                        std::span<const SimTime>(starts).subspan(
                            offset[e], offset[e + 1] - offset[e]),
                        &agg};
  }
  std::vector<TripleView> triple_views(st.triples.size());
  for (std::uint32_t t = 0; t < st.triples.size(); ++t) {
    const State::TripleAgg& agg = st.triples.at(t).value;
    triple_views[t] = TripleView{
        EdgePair{views[agg.in_edge].edge.first, views[agg.in_edge].edge.second,
                 views[agg.out_edge].edge.second},
        t, agg.in_edge, agg.out_edge};
  }

  // Sort once into map order, then bucket per group: each bucket keeps the
  // per-group sorted order the from-scratch extractor iterates in.
  std::vector<const EdgeView*> edge_order(edge_count);
  for (std::size_t e = 0; e < edge_count; ++e) edge_order[e] = &views[e];
  std::sort(edge_order.begin(), edge_order.end(),
            [](const EdgeView* x, const EdgeView* y) {
              return x->edge < y->edge;
            });
  std::sort(triple_views.begin(), triple_views.end(),
            [](const TripleView& x, const TripleView& y) {
              return x.triple < y.triple;
            });

  const std::size_t group_count = groups.groups.size();
  std::vector<GroupWork> work(group_count);
  for (const EdgeView* e : edge_order) {
    const int g = group_of[e->agg->src];
    if (g < 0 || group_of[e->agg->dst] != g) continue;
    work[static_cast<std::size_t>(g)].edges.push_back(e);
  }
  for (const TripleView& t : triple_views) {
    const State::EdgeAgg& in = *views[t.in_edge].agg;
    const int g = group_of[in.src];
    if (g < 0 || group_of[in.dst] != g) continue;
    if (group_of[views[t.out_edge].agg->dst] != g) continue;
    work[static_cast<std::size_t>(g)].triples.push_back(&t);
  }

  {
    const obs::Span infra_span("model/infra");
    model.infra = assemble_infra(st);
  }

  model.groups.resize(group_count);
  {
    const obs::Span sig_span("model/signatures");
    for (std::size_t g = 0; g < group_count; ++g) {
      assemble_group(st, views, work[g], groups.groups[g], model.begin,
                     model.end, model.groups[g]);
    }
  }
  return model;
}

}  // namespace flowdiff::core
