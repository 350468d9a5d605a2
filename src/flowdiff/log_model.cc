#include "flowdiff/log_model.h"

#include <algorithm>
#include <unordered_map>

namespace flowdiff::core {

of::FlowSequence ParsedLog::flow_starts() const {
  of::FlowSequence out;
  out.reserve(occurrences.size());
  for (const auto& occ : occurrences) {
    out.push_back(of::TimedFlow{occ.first_ts, occ.key});
  }
  return out;
}

ParsedLog parse_log(const of::ControlLog& log) {
  ParsedLog parsed;
  parsed.begin = log.begin_time();
  parsed.end = log.end_time();

  // Open occurrence per 5-tuple: index into parsed.occurrences plus the time
  // of its latest activity, so a re-appearance of the same 5-tuple after the
  // grouping window opens a new occurrence.
  struct Open {
    std::size_t index;
    SimTime last_ts;
  };
  std::unordered_map<of::FlowKey, Open> open;

  for (const auto& event : log.events()) {
    if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
      auto it = open.find(pin->key);
      if (it == open.end() ||
          event.ts - it->second.last_ts > kGroupingWindow) {
        FlowOccurrence occ;
        occ.key = pin->key;
        occ.first_ts = event.ts;
        parsed.occurrences.push_back(std::move(occ));
        open[pin->key] = Open{parsed.occurrences.size() - 1, event.ts};
        it = open.find(pin->key);
      }
      auto& occ = parsed.occurrences[it->second.index];
      occ.hops.push_back(SwitchHop{pin->sw, pin->in_port, PortId{},
                                   event.ts, -1});
      it->second.last_ts = event.ts;
    } else if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
      auto it = open.find(fm->key);
      if (it == open.end()) continue;
      auto& occ = parsed.occurrences[it->second.index];
      // Answer the switch's pending hop (latest unanswered from this sw).
      for (auto hop = occ.hops.rbegin(); hop != occ.hops.rend(); ++hop) {
        if (hop->sw == fm->sw && hop->flow_mod_ts < 0) {
          hop->flow_mod_ts = event.ts;
          hop->out_port = fm->out_port;
          parsed.crt_samples_ms.push_back(
              to_millis(event.ts - hop->packet_in_ts));
          break;
        }
      }
      it->second.last_ts = event.ts;
    } else if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
      parsed.removed.push_back(RemovedRecord{fr->sw, fr->key, event.ts,
                                             fr->duration, fr->byte_count,
                                             fr->packet_count});
    } else if (const auto* fs = std::get_if<of::FlowStatsReply>(&event.msg)) {
      parsed.stats.push_back(
          StatsSample{fs->sw, event.ts, fs->age, fs->byte_count});
    }
  }

  std::stable_sort(parsed.occurrences.begin(), parsed.occurrences.end(),
                   [](const FlowOccurrence& a, const FlowOccurrence& b) {
                     return a.first_ts < b.first_ts;
                   });
  return parsed;
}

}  // namespace flowdiff::core
