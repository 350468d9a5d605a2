// Control-stream sanitizer: the ingest edge between capture
// (openflow/log_io, the controller) and modeling.
//
// A production capture point is not the clean oracle the paper assumes:
// it drops events, duplicates them, delivers them out of order, and
// truncates counter fields. Feeding such a stream straight into
// FlowDiff::model() silently skews CG/FS/ISL signatures or trips parsing.
// The StreamSanitizer restores what can be restored and measures what
// cannot:
//
//   * bounded-lateness reorder buffer — events are held until the
//     watermark (max timestamp seen - lateness_horizon) passes them, so
//     any arrival displaced by at most the horizon is emitted back in
//     timestamp order; arrivals behind an already-released watermark are
//     dropped and counted (late_dropped). In-order arrivals — nearly all
//     of a live capture — append to a reused ring; only displaced ones
//     pay for an ordered side buffer. The ring follows the recycle() rule
//     of util/flat_map.h at each window cut, so one burst cannot pin it;
//   * duplicate suppression — an arrival identical to a buffered event
//     with the same timestamp (same message type, switch, flow key,
//     xid/cookie-equivalent uid, counters) is dropped and counted;
//   * truncation guard — records whose byte/packet counters contradict
//     each other (bytes without packets or packets without bytes on
//     FlowRemoved/FlowStatsReply) are dropped rather than poisoning FS
//     signatures;
//   * gap reconciliation — released PacketIns and FlowMods are paired by
//     flow uid; orphans on either side estimate capture loss that never
//     reached the sanitizer at all.
//
// The per-window tally lands in a StreamQuality record
// (take_window_quality()), which the monitor attaches to WindowAudits and
// diff/diagnosis use for degraded-mode confidence grading. The ingest.*
// obs counters and the ingest.buffer.depth gauge are updated once per
// push()/flush() call, not per event.
//
// Invariant: a clean, time-ordered stream passes through bit-identically
// (same events, same order) with zero duplicates/late/truncated counts —
// monitor_identity_test and the golden corpus pin this.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "ingest/stream_quality.h"
#include "openflow/control_log.h"
#include "util/flat_map.h"

namespace flowdiff::ingest {

struct SanitizerConfig {
  /// How far (in event time) an arrival may lag the newest timestamp seen
  /// and still be restored to order. Larger horizons tolerate sloppier
  /// capture at the cost of buffering latency.
  SimDuration lateness_horizon = kSecond;
};

class StreamSanitizer {
 public:
  using Sink = std::function<void(const of::ControlEvent&)>;

  explicit StreamSanitizer(SanitizerConfig config);

  /// Feeds one raw capture arrival; zero or more sanitized events are
  /// handed to `sink` in non-decreasing timestamp order.
  void push(const of::ControlEvent& event, const Sink& sink);

  /// Batch form of push(): one Sink for the whole run, so callers replaying
  /// a parsed capture don't rebuild the std::function per event.
  void push(const std::vector<of::ControlEvent>& events, const Sink& sink);

  /// Drains the reorder buffer (end of stream / window shutdown).
  void flush(const Sink& sink);

  /// Takes the counters accumulated since the last call (plus the
  /// PacketIn/FlowMod reconciliation of the events released in between)
  /// and resets them. Events still buffered have been counted as fed but
  /// not yet kept; the totals reconcile once flush() has run. Each call is
  /// a window cut for the reorder ring's recycle() rule.
  [[nodiscard]] StreamQuality take_window_quality();

  /// Whole-run totals (never reset). After flush(),
  /// fed == kept + duplicates + late_dropped + truncated.
  [[nodiscard]] const StreamQuality& total() const { return total_; }

  [[nodiscard]] std::size_t buffered() const {
    return ring_count_ + side_.size();
  }

  /// How far (in stream time, µs) the release watermark trails the newest
  /// arrival — the reordering delay the sanitizer is currently imposing on
  /// detection. At most the lateness horizon; 0 before any push and after
  /// flush() has caught the watermark up.
  [[nodiscard]] SimDuration watermark_lag() const {
    if (max_ts_ == kNoTs || buffered() == 0) return 0;
    const SimTime released =
        released_up_to_ == kNoTs ? max_ts_ - config_.lateness_horizon
                                 : released_up_to_;
    return max_ts_ > released ? max_ts_ - released : 0;
  }

  [[nodiscard]] const SanitizerConfig& config() const { return config_; }

 private:
  /// One buffered arrival. `identity` is the event's cached serialization
  /// (the duplicate-suppression identity), computed lazily on the first
  /// same-timestamp collision that passes the kind/controller prefilter —
  /// empty means "not computed yet", which a real serialization can never
  /// be.
  struct Slot {
    of::ControlEvent event;
    std::string identity;
  };

  /// push() minus the obs flush: the per-event body shared by both push
  /// overloads.
  void push_one(const of::ControlEvent& event, const Sink& sink);
  /// True when a buffered event at the arrival's timestamp is the same
  /// capture record (dedup).
  [[nodiscard]] bool is_duplicate(const of::ControlEvent& event,
                                  std::string& identity);
  /// Emits every buffered event with ts <= watermark, oldest first.
  void release(SimTime watermark, const Sink& sink);
  /// Pairs released PacketIns/FlowMods by flow uid (uid 0 = unknown).
  void note_pairing(const of::ControlEvent& event);
  [[nodiscard]] bool is_truncated(const of::ControlEvent& event) const;
  /// Adds the counts since the last flush to the ingest.* metrics and
  /// publishes the buffer depth (the peak first, so the gauge's high-water
  /// mark sees it).
  void flush_metrics();

  [[nodiscard]] Slot& ring_at(std::size_t i) {
    return ring_[(ring_head_ + i) & (ring_.size() - 1)];
  }
  /// Moves the buffered slots, in order, into a ring of `size` slots.
  void ring_resize(std::size_t size);

  SanitizerConfig config_;
  /// Reorder buffer, in two parts whose merge by (ts, arrival order) is
  /// the release order:
  ///   * ring_ — arrivals at or after the newest buffered timestamp (all
  ///     of a time-ordered stream), appended to a reused power-of-two
  ///     ring, so the in-order steady state allocates nothing;
  ///   * side_ — displaced arrivals, ordered by timestamp and, within one
  ///     timestamp, by arrival (multimap insertion at the equal range's
  ///     end), O(log n) per insert however reversed the stream is.
  /// Of a ring event and a side event with equal timestamps, the ring's
  /// always arrived first: once a side event at ts T exists, the ring's
  /// back is past T until that event is released, so nothing later
  /// appends to the ring at T.
  std::vector<Slot> ring_;
  std::size_t ring_head_ = 0;
  std::size_t ring_count_ = 0;
  /// Deepest ring_count_ of the open window. A window cut only sets
  /// ring_cut_: a monitor cuts from inside the sink, while release() still
  /// holds a ring slot, so the ring is judged at the end of that release.
  std::size_t ring_peak_ = 0;
  bool ring_cut_ = false;
  std::multimap<SimTime, Slot> side_;
  /// Timestamps are signed and a corrupted capture can legally parse to a
  /// negative one, so -1 is not a safe "nothing yet" sentinel: it would
  /// make flush() strand (and never account for) events at ts <= -1.
  static constexpr SimTime kNoTs = std::numeric_limits<SimTime>::min();
  SimTime max_ts_ = kNoTs;         ///< Newest timestamp ever pushed.
  SimTime released_up_to_ = kNoTs; ///< Highest watermark already released.
  StreamQuality window_;
  StreamQuality total_;
  /// total_ as of the last flush_metrics(), and the deepest buffered()
  /// since then: the obs counters advance by the difference once per
  /// public call instead of once per event.
  StreamQuality metered_;
  std::size_t depth_peak_ = 0;
  /// flow uid -> bitmask (1 = PacketIn seen, 2 = FlowMod seen) since the
  /// last take_window_quality(), which recycles the table's buffers.
  FlatMap<std::uint64_t, unsigned> pair_seen_;
};

/// Convenience: runs a whole raw arrival sequence through a sanitizer and
/// returns the sanitized, time-ordered log plus the run's quality record.
struct SanitizedLog {
  of::ControlLog log;
  StreamQuality quality;
};
[[nodiscard]] SanitizedLog sanitize_log(
    const std::vector<of::ControlEvent>& events,
    const SanitizerConfig& config = {});

}  // namespace flowdiff::ingest
