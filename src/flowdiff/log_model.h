// Control-log analysis: recovers per-flow structure from the raw message
// stream captured at the controller.
//
// A new flow raises one PacketIn per OpenFlow switch along its path; this
// module groups those into FlowOccurrences (ordered switch hops with
// controller timestamps), collects FlowRemoved counter records, and extracts
// controller response-time samples — everything the signature extractors
// consume.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "openflow/control_log.h"
#include "openflow/timed_flow.h"
#include "util/ids.h"
#include "util/time.h"

namespace flowdiff::core {

/// One switch's view of a new flow: the PacketIn it raised and the FlowMod
/// answering it.
struct SwitchHop {
  SwitchId sw;
  PortId in_port;
  PortId out_port;            ///< From the FlowMod; invalid if unanswered.
  SimTime packet_in_ts = 0;   ///< Controller receive time.
  SimTime flow_mod_ts = -1;   ///< Controller send time; -1 if unanswered.
};

/// A flow's first-packet journey, assembled from control traffic.
struct FlowOccurrence {
  of::FlowKey key;
  SimTime first_ts = 0;            ///< Earliest PacketIn = flow start.
  std::vector<SwitchHop> hops;     ///< In path order (PacketIn time order).
};

/// Counters reported when a flow entry expired.
struct RemovedRecord {
  SwitchId sw;
  of::FlowKey key;
  SimTime ts = 0;
  SimDuration duration = 0;
  std::uint64_t bytes = 0;
  std::uint64_t packets = 0;
};

/// One polled flow-entry counter sample (FlowStatsReply).
struct StatsSample {
  SwitchId sw;
  SimTime ts = 0;
  SimDuration age = 0;
  std::uint64_t bytes = 0;
};

struct ParsedLog {
  SimTime begin = 0;
  SimTime end = 0;
  std::vector<FlowOccurrence> occurrences;  ///< Sorted by first_ts.
  std::vector<RemovedRecord> removed;
  std::vector<double> crt_samples_ms;       ///< FlowMod ts - PacketIn ts.
  std::vector<StatsSample> stats;           ///< Polled entry counters.

  /// Flow starts (first PacketIn per occurrence) — the sequence the
  /// application signatures and the task detector run on.
  [[nodiscard]] of::FlowSequence flow_starts() const;
};

/// Same 5-tuple re-appearing further apart than this opens a new
/// occurrence. Read by parse_log and by the incremental modeler's parse.
inline constexpr SimDuration kGroupingWindow = 2 * kSecond;

/// Parses a control log. PacketIns belonging to one flow are grouped by
/// 5-tuple within kGroupingWindow (distinct occurrences of the same
/// 5-tuple further apart than the window stay separate), exactly as an
/// analysis of a real controller log would group them.
ParsedLog parse_log(const of::ControlLog& log);

}  // namespace flowdiff::core
