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
//   - per-edge aggregates (flow-start times, FlowRemoved byte/duration
//     running sums) that CG/CI/FS read directly,
//   - per-triple delay partials (DD histograms + sample lists) built by
//     streaming in-flow/out-flow pairing against bounded recency deques,
//   - controller response-time and switch-load running sums (CRT/UTIL).
//
// Closing a window then only runs `finalize`, which assembles a
// `BehaviorModel` from the aggregates — group discovery, gate checks,
// per-segment stability reconstruction, and an optimized infra walk — in
// time proportional to the model, not the log.
//
// The oracle-identity invariant: `finalize` is BIT-IDENTICAL to
// `Modeler::build` on the same window. Every divergence risk is engineered
// away (aggregates replay the exact floating-point add sequences of the
// from-scratch extractors) or named: events must be fed in timestamp order
// (the monitor rejects regressions before they get here; `FlowDiff::model`
// feeds the sorted log), `min_edge_flows == 0` is unsupported, and a window
// past the DD-pair budget keeps exact window-wide DD histograms but drops
// its `(t_in, t_out)` pairs, so its DD stability is unknown
// (`dd_over_budget`; finalize marks every DD pair unstable). Timestamps
// must be non-negative: -1 marks an unanswered hop, as in `parse_log`.
// incremental_model_test and parallel_model_test enforce the invariant.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "flowdiff/model.h"
#include "openflow/control_log.h"

namespace flowdiff::core {

/// Delta-maintained aggregates for one in-flight window. Owned by the
/// monitor, finalized in place at close and reset for the next window.
struct IncrementalWindowState {
  // --- lifecycle ---------------------------------------------------------
  bool active = false;      ///< Saw at least one event.
  /// Stored DD pairs passed the budget: they were dropped and no more are
  /// kept. Window-wide DD histograms and sample counts stay exact; the
  /// per-segment DD stability check cannot run.
  bool dd_over_budget = false;
  SimTime begin = 0;        ///< First event timestamp.
  SimTime end = 0;          ///< Latest event timestamp.
  std::uint64_t events = 0;

  // --- incremental parse (mirrors parse_log on an in-order stream) -------
  struct Open {
    std::size_t index;
    SimTime last_ts;
  };
  std::vector<FlowOccurrence> occurrences;
  std::unordered_map<of::FlowKey, Open> open;

  // --- per-edge aggregates (CG/CI/FS/PC source data) ----------------------
  struct EdgeAgg {
    std::vector<SimTime> starts;  ///< Flow-start times, nondecreasing.
    RunningStats bytes;           ///< FlowRemoved counters, arrival order.
    RunningStats duration_ms;
    std::uint64_t removed = 0;    ///< Entry may exist with zero starts.
  };
  std::map<HostEdge, EdgeAgg> edges;

  // --- per-triple delay partials (DD source data) -------------------------
  struct TripleAgg {
    explicit TripleAgg(double bin_ms) : hist(bin_ms) {}
    Histogram hist;  ///< Every paired sample; total() is the sample count.
    /// (t_in, t_out) per paired sample; finalize re-buckets these per
    /// stability segment without touching the raw log. Emptied for good
    /// once the window goes over the DD budget.
    std::vector<std::pair<SimTime, SimTime>> pairs;
  };
  std::map<EdgePair, TripleAgg> triples;
  std::uint64_t dd_samples = 0;  ///< Paired samples across all triples.
  /// Streaming-pairing recency state: flows into / out of each node within
  /// the pairing window, pruned lazily on access.
  std::unordered_map<Ipv4, std::deque<std::pair<Ipv4, SimTime>>> in_recent;
  std::unordered_map<Ipv4, std::deque<std::pair<Ipv4, SimTime>>> out_recent;

  // --- infra running sums (CRT/UTIL) --------------------------------------
  RunningStats crt_response_ms;  ///< FlowMod - PacketIn, arrival order.
  std::map<std::pair<std::uint32_t, SimTime>, double> per_poll_bps;

  /// Drops all window state, keeping vector capacity where containers allow.
  void reset();
};

/// Builds `BehaviorModel`s from delta-maintained window state. Stateless
/// apart from the config; all mutable state lives in
/// `IncrementalWindowState`, so one modeler serves any number of windows.
class IncrementalModeler {
 public:
  explicit IncrementalModeler(ModelConfig config);

  /// True when the config permits bit-identical incremental maintenance.
  /// `min_edge_flows == 0` is refused: the from-scratch DD/PC extractors
  /// then emit zero-sample pairs the stream never observes.
  [[nodiscard]] static bool supported(const ModelConfig& config);
  /// supported() on this modeler's own config.
  [[nodiscard]] bool supported() const { return supported_; }

  /// Folds one event into the window aggregates. Events must arrive in
  /// non-decreasing timestamp order with `ts >= 0`; the aggregates replay
  /// the sorted log and cannot be reordered afterwards. No-op for
  /// unsupported configs.
  void feed(IncrementalWindowState& state, const of::ControlEvent& event) const;

  /// True when the window holds events and `finalize` returns the
  /// oracle-identical model (supported config, within the DD budget).
  [[nodiscard]] bool ready(const IncrementalWindowState& state) const {
    return supported_ && state.active && !state.dd_over_budget;
  }

  /// Assembles the BehaviorModel for the closed window (a never-fed state
  /// gives the empty model). Over the DD budget every DD pair is marked
  /// unstable instead of being judged per segment. Requires a supported
  /// config.
  [[nodiscard]] BehaviorModel finalize(const IncrementalWindowState& state) const;

  [[nodiscard]] const ModelConfig& config() const { return config_; }

 private:
  /// New-occurrence hook: maintains per-edge start times and the streaming
  /// DD pairing state.
  void on_start(IncrementalWindowState& state, const of::FlowKey& key,
                SimTime ts) const;
  void record_pair(IncrementalWindowState& state, const EdgePair& triple,
                   SimTime t_in, SimTime t_out) const;

  ModelConfig config_;
  bool supported_;
  /// Same 5-tuple re-appearing further apart than this opens a new
  /// occurrence — must match parse_log's default for oracle identity.
  SimDuration grouping_window_ = 2 * kSecond;
};

}  // namespace flowdiff::core
