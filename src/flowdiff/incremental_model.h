// Incremental window modeling: delta-maintained signature families.
//
// `core::Modeler` rebuilds every signature family from scratch for each
// closed window, so steady-state monitor cost is O(window) even when almost
// nothing changed. `IncrementalModeler` moves the per-event work to admit
// time instead: as `SlidingMonitor` feeds events, an `IncrementalWindowState`
// maintains
//
//   - the parsed flow structure (occurrence grouping, hop answering) exactly
//     as `parse_log` would produce it on the same in-order stream,
//   - per-edge aggregates (flow-start counts, FlowRemoved byte/duration
//     running sums) that CG/CI/FS read directly,
//   - per-triple DD histograms built by streaming in-flow/out-flow pairing
//     along per-host recency chains,
//   - controller response-time and switch-load running sums (CRT/UTIL).
//
// Edges and triples are kept in first-seen order; finalize sorts them
// once into the map order the from-scratch extractors iterate in.
//
// Closing a window then only runs `finalize`, which assembles a
// `BehaviorModel` from the aggregates — group discovery, gate checks,
// per-segment stability reconstruction from the per-edge flow starts, and
// an optimized infra walk — in time proportional to the model and its DD
// pairs, not the log.
//
// The oracle-identity invariant: `finalize` is BIT-IDENTICAL to
// `Modeler::build` on the same window, for every config. Every divergence
// risk is engineered away (aggregates replay the exact floating-point add
// sequences of the from-scratch extractors, and both sides share the DD
// pairing and gate of app_signatures.h) or named: events must be fed in
// timestamp order (the monitor rejects regressions before they get here;
// `FlowDiff::model` feeds the sorted log), and timestamps must be
// non-negative: -1 marks an unanswered hop, as in `parse_log`.
// incremental_model_test and monitor_identity_test enforce the invariant.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "flowdiff/model.h"
#include "openflow/control_log.h"
#include "util/flat_map.h"

namespace flowdiff::core {

/// Delta-maintained aggregates for one in-flight window. Owned by the
/// monitor, finalized in place at close and reset for the next window.
///
/// Every container is flat and window-local: hosts, edges and triples are
/// interned to dense ids in first-seen order, and per-entity state lives in
/// vectors indexed by those ids. Feeding an event allocates nothing once
/// the state has held a window at least as large (reset() keeps every
/// buffer under the recycle() rule of util/flat_map.h).
struct IncrementalWindowState {
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  // --- lifecycle ---------------------------------------------------------
  bool active = false;      ///< Saw at least one event.
  SimTime begin = 0;        ///< First event timestamp.
  SimTime end = 0;          ///< Latest event timestamp.
  std::uint64_t events = 0;

  // --- incremental parse (mirrors parse_log on an in-order stream) -------
  /// One switch's PacketIn (and the FlowMod answering it), linked to the
  /// previous hop of its occurrence. Ports are not kept: no signature
  /// reads them.
  struct Hop {
    SwitchId sw;
    std::uint32_t prev = kNone;
    SimTime packet_in_ts = 0;
    SimTime flow_mod_ts = -1;   ///< -1 while unanswered.
  };
  /// One flow occurrence, in first_ts (= arrival) order. It is also the
  /// flow-start record of its edge and of the DD recency chains of its two
  /// hosts; finalize sorts these by edge into the per-edge start slices.
  struct Occurrence {
    of::FlowKey key;
    std::uint32_t edge = 0;        ///< Edge id of (src_ip, dst_ip).
    std::uint32_t last_hop = kNone;
    std::uint32_t prev_in = kNone;   ///< Previous occurrence into dst_ip.
    std::uint32_t prev_out = kNone;  ///< Previous occurrence out of src_ip.
    SimTime first_ts = 0;
    SimTime last_ts = 0;  ///< Newest PacketIn/FlowMod (grouping window).
  };
  std::vector<Occurrence> occurrences;
  std::vector<Hop> hops;
  /// 5-tuple -> its newest occurrence.
  FlatMap<of::FlowKey, std::uint32_t> open;

  // --- hosts: window-local dense ids ---------------------------------------
  /// Heads of a host's DD recency chains: its newest in-flow and out-flow
  /// occurrence. The chains run back through Occurrence::prev_in/prev_out
  /// in time order, so pairing walks only the flows inside the window.
  struct HostChains {
    std::uint32_t newest_in = kNone;
    std::uint32_t newest_out = kNone;
  };
  FlatMap<std::uint32_t, HostChains> hosts;  ///< Ipv4::raw() -> chains.

  // --- per-edge aggregates (CG/CI/FS/PC source data) ----------------------
  struct EdgeAgg {
    std::uint32_t src = 0;        ///< Host ids.
    std::uint32_t dst = 0;
    std::uint64_t starts = 0;     ///< Occurrences on the edge.
    RunningStats bytes;           ///< FlowRemoved counters, arrival order.
    RunningStats duration_ms;
    std::uint64_t removed = 0;    ///< Entry may exist with zero starts.
  };
  FlatMap<std::uint64_t, EdgeAgg> edges;  ///< src id << 32 | dst id.

  // --- per-triple delay partials (DD source data) -------------------------
  /// A triple with at least one paired sample. Per-segment DD is paired
  /// afresh from its two edges' start slices at finalize, so no pair is
  /// stored.
  struct TripleAgg {
    std::uint32_t in_edge = 0;     ///< Edge ids of (a, b) and (b, c).
    std::uint32_t out_edge = 0;
  };
  FlatMap<std::uint64_t, TripleAgg> triples;  ///< in_edge << 32 | out_edge.
  /// Every paired sample of triple id i lands in dd_hists[i]; total() is
  /// the sample count. A pool: slots past triples.size() are spare
  /// histograms kept for the next window.
  std::vector<Histogram> dd_hists;

  // --- infra running sums (CRT/UTIL) --------------------------------------
  RunningStats crt_response_ms;  ///< FlowMod - PacketIn, arrival order.
  /// Summed FlowStatsReply rates of one switch's poll at one timestamp.
  struct Poll {
    std::uint32_t sw = 0;
    SimTime ts = 0;
    double bps = 0.0;
  };
  std::vector<Poll> polls;  ///< Arrival order.
  FlatMap<std::uint32_t, std::uint32_t> newest_poll;  ///< Switch -> poll.

  /// Sizes the flow arrays for a window of `packet_ins` PacketIns (an
  /// upper bound on its occurrences and hops), so it fills without
  /// growing.
  void reserve(std::size_t packet_ins);

  /// Empties the window, keeping every buffer under the recycle() rule; a
  /// never-fed state keeps its buffers untouched.
  void reset();
};

/// Builds `BehaviorModel`s from delta-maintained window state. Stateless
/// apart from the config; all mutable state lives in
/// `IncrementalWindowState`, so one modeler serves any number of windows.
class IncrementalModeler {
 public:
  explicit IncrementalModeler(ModelConfig config);

  /// Folds one event into the window aggregates. Events must arrive in
  /// non-decreasing timestamp order with `ts >= 0`; the aggregates replay
  /// the sorted log and cannot be reordered afterwards.
  void feed(IncrementalWindowState& state, const of::ControlEvent& event) const;

  /// Assembles the BehaviorModel for the closed window, bit-identical to
  /// Modeler::build on the same events (a never-fed state gives the empty
  /// model).
  [[nodiscard]] BehaviorModel finalize(
      const IncrementalWindowState& state) const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }

 private:
  /// Appends a new occurrence of `key` starting at `ts`, counts it on its
  /// edge and pairs it against its hosts' recency chains (streaming DD).
  /// Returns its index.
  std::uint32_t start_occurrence(IncrementalWindowState& state,
                                 const of::FlowKey& key, SimTime ts) const;
  /// Edge id of (key.src_ip, key.dst_ip), interning both hosts.
  static std::uint32_t intern_edge(IncrementalWindowState& state,
                                   const of::FlowKey& key);
  void record_pair(IncrementalWindowState& state, std::uint32_t in_edge,
                   std::uint32_t out_edge, SimTime t_in, SimTime t_out) const;

  ModelConfig config_;
  /// Same 5-tuple re-appearing further apart than this opens a new
  /// occurrence — must match parse_log's default for oracle identity.
  SimDuration grouping_window_ = 2 * kSecond;
};

}  // namespace flowdiff::core
