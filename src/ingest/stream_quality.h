// StreamQuality: the per-window reliability record of a captured control
// stream. A production capture point drops, duplicates, reorders, and
// truncates events; the paper's evaluation assumes clean capture, so this
// record is what lets the rest of the pipeline know how far reality is
// from that assumption. The sanitizer (ingest/sanitizer.h) fills one in
// per monitor window; diff/diagnosis read it to grade each reported
// change's confidence and suppress alarms from untrustworthy signature
// families (degraded-mode diagnosis).
#pragma once

#include <cstdint>
#include <string>

namespace flowdiff::ingest {

struct StreamQuality {
  // Hard evidence: events the sanitizer saw and classified.
  std::uint64_t fed = 0;           ///< Events pushed into the sanitizer.
  std::uint64_t kept = 0;          ///< Events delivered downstream.
  std::uint64_t duplicates = 0;    ///< Exact duplicates suppressed.
  std::uint64_t reordered = 0;     ///< Out-of-order arrivals restored
                                   ///< within the lateness horizon.
  std::uint64_t late_dropped = 0;  ///< Beyond-horizon arrivals dropped
                                   ///< (order could not be restored).
  std::uint64_t truncated = 0;     ///< Counter-truncated records dropped.

  // Gap reconciliation: every PacketIn the controller handled should pair
  // with a FlowMod (and vice versa); orphans on either side estimate
  // capture loss that is otherwise invisible (a dropped event never
  // reaches the sanitizer).
  std::uint64_t pairs_matched = 0;
  std::uint64_t orphan_packet_ins = 0;  ///< PacketIn without its FlowMod.
  std::uint64_t orphan_flow_mods = 0;   ///< FlowMod without its PacketIn.

  [[nodiscard]] double dup_rate() const;
  [[nodiscard]] double reorder_rate() const;
  [[nodiscard]] double drop_rate() const;        ///< late_dropped / fed.
  [[nodiscard]] double truncation_rate() const;

  /// Hard-evidence corruption per fed event: duplicates, beyond-horizon
  /// drops, and truncations. Restored reorders are excluded — the buffer
  /// repaired them, so downstream signatures are unaffected.
  [[nodiscard]] double corruption_rate() const;

  /// Capture-loss estimate from PacketIn/FlowMod pair reconciliation.
  /// Noisy (window boundaries split pairs), so it refines confidence but
  /// never by itself marks a stream degraded.
  [[nodiscard]] double estimated_loss_rate() const;

  /// corruption_rate() + estimated_loss_rate(): the rate confidence
  /// grading compares against each signature family's tolerance.
  [[nodiscard]] double effective_corruption_rate() const;

  /// True when there is hard evidence of capture corruption. Clean
  /// captures keep this false even when pair reconciliation reports
  /// boundary orphans, which is what preserves clean-log invariance.
  [[nodiscard]] bool degraded() const {
    return duplicates > 0 || late_dropped > 0 || truncated > 0;
  }

  /// Compact "dup 1.2% late 0.3% trunc 0.0% est-loss 2.4%" string for
  /// audit decisions, flight-recorder events, and report columns.
  [[nodiscard]] std::string summary() const;

  /// The nine counters as one compact JSON object ({"fed":N,...}, in
  /// declaration order), as /healthz, /audits and provenance JSON embed it.
  [[nodiscard]] std::string json() const;

  StreamQuality& operator+=(const StreamQuality& other);
};

}  // namespace flowdiff::ingest
