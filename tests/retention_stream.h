// A long stream of small one-second windows, for the retention suites:
// enough windows and alarms to drive both of the monitor's bounded rings
// (audits and explained windows) past their caps in well under a second.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "incremental_stream.h"

namespace flowdiff::core {

inline constexpr SimDuration kRetentionWindow = kSecond;

/// Window `w` of the stream: five answered flows a -> b, plus, when
/// `alarmed`, five a -> c for each of `destinations` hosts c (edges the
/// baseline lacks, so the window alarms with unknown connectivity
/// changes: two with one destination, one more per further destination).
/// Windows start at `w * kRetentionWindow`.
inline std::vector<of::ControlEvent> retention_window(std::size_t w,
                                                      bool alarmed,
                                                      int destinations = 1) {
  const SimTime t0 = static_cast<SimTime>(w) * kRetentionWindow;
  std::vector<of::ControlEvent> events;
  const auto add_flows = [&](Ipv4 dst, SimTime start) {
    for (int i = 0; i < 5; ++i) {
      const of::FlowKey key{host(0, 0), dst,
                            static_cast<std::uint16_t>(40000 + i), 80,
                            of::Proto::kTcp};
      const SimTime t = start + i * 10 * kMillisecond;
      events.push_back(pin(t, 1, key));
      events.push_back(fmod(t + kMillisecond, 1, key));
    }
  };
  add_flows(host(0, 1), t0);
  if (alarmed) {
    for (int d = 0; d < destinations; ++d) {
      add_flows(host(0, 2 + d), t0 + 500 * kMillisecond + d);
    }
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const of::ControlEvent& a, const of::ControlEvent& b) {
                     return a.ts < b.ts;
                   });
  return events;
}

/// Whether window `w` of the retention stream alarms: every 16th window,
/// starting at window 1 (window 0 is the baseline). 256 alarms then span
/// exactly 4096 windows, so every alarmed audit the trail retains still
/// has its explained window.
inline bool retention_alarms(std::size_t w) { return w % 16 == 1; }

}  // namespace flowdiff::core
