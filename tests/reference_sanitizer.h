// Reference implementation of ingest::StreamSanitizer: the original
// std::multimap reorder buffer, kept only as the differential oracle for
// sanitizer_oracle_test. Every arrival becomes one multimap node keyed by
// timestamp (equal timestamps leave in arrival order), and dedup
// serializes every same-timestamp neighbour. Slow but obviously right;
// the production sanitizer must release the same events in the same order
// with the same StreamQuality at every cut point.
//
// The logic is the production code as it stood before the ring buffer,
// minus the obs counters (so running both side by side cannot disturb the
// ingest.* metrics the production sanitizer owns).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ingest/sanitizer.h"
#include "ingest/stream_quality.h"
#include "openflow/control_log.h"
#include "openflow/log_io.h"

namespace flowdiff::ingest::reference {

class StreamSanitizer {
 public:
  using Sink = std::function<void(const of::ControlEvent&)>;

  explicit StreamSanitizer(SanitizerConfig config) : config_(config) {}

  void push(const of::ControlEvent& event, const Sink& sink) {
    ++window_.fed;
    ++total_.fed;

    if (is_truncated(event)) {
      ++window_.truncated;
      ++total_.truncated;
      return;
    }

    if (event.ts < released_up_to_) {
      ++window_.late_dropped;
      ++total_.late_dropped;
      return;
    }

    std::string identity;
    const auto [lo, hi] = buffer_.equal_range(event.ts);
    if (lo != hi) {
      identity = of::serialize_event(event);
      for (auto it = lo; it != hi; ++it) {
        if (it->second.first.empty()) {
          it->second.first = of::serialize_event(it->second.second);
        }
        if (it->second.first == identity) {
          ++window_.duplicates;
          ++total_.duplicates;
          return;
        }
      }
    }

    if (max_ts_ != kNoTs && event.ts < max_ts_) {
      ++window_.reordered;
      ++total_.reordered;
    }

    buffer_.emplace(event.ts, std::make_pair(std::move(identity), event));
    max_ts_ = std::max(max_ts_, event.ts);
    const SimTime watermark =
        (max_ts_ < kNoTs + config_.lateness_horizon)
            ? kNoTs
            : max_ts_ - config_.lateness_horizon;
    release(watermark, sink);
  }

  void push(const std::vector<of::ControlEvent>& events, const Sink& sink) {
    for (const auto& event : events) push(event, sink);
  }

  void flush(const Sink& sink) {
    if (!buffer_.empty()) release(max_ts_, sink);
  }

  [[nodiscard]] StreamQuality take_window_quality() {
    for (const auto& [uid, bits] : pair_seen_) {
      if (bits == 3u) {
        ++window_.pairs_matched;
      } else if (bits == 1u) {
        ++window_.orphan_packet_ins;
      } else if (bits == 2u) {
        ++window_.orphan_flow_mods;
      }
    }
    pair_seen_.clear();
    total_.pairs_matched += window_.pairs_matched;
    total_.orphan_packet_ins += window_.orphan_packet_ins;
    total_.orphan_flow_mods += window_.orphan_flow_mods;
    StreamQuality out = window_;
    window_ = StreamQuality{};
    return out;
  }

  [[nodiscard]] const StreamQuality& total() const { return total_; }

  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

  [[nodiscard]] SimDuration watermark_lag() const {
    if (max_ts_ == kNoTs || buffer_.empty()) return 0;
    const SimTime released =
        released_up_to_ == kNoTs ? max_ts_ - config_.lateness_horizon
                                 : released_up_to_;
    return max_ts_ > released ? max_ts_ - released : 0;
  }

 private:
  void release(SimTime watermark, const Sink& sink) {
    while (!buffer_.empty() && buffer_.begin()->first <= watermark) {
      const of::ControlEvent& event = buffer_.begin()->second.second;
      ++window_.kept;
      ++total_.kept;
      note_pairing(event);
      sink(event);
      buffer_.erase(buffer_.begin());
    }
    released_up_to_ = std::max(released_up_to_, watermark);
  }

  void note_pairing(const of::ControlEvent& event) {
    if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
      if (pin->flow_uid != 0) pair_seen_[pin->flow_uid] |= 1u;
    } else if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
      if (fm->flow_uid != 0) pair_seen_[fm->flow_uid] |= 2u;
    }
  }

  [[nodiscard]] static bool is_truncated(const of::ControlEvent& event) {
    if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
      return (fr->byte_count == 0) != (fr->packet_count == 0);
    }
    if (const auto* st = std::get_if<of::FlowStatsReply>(&event.msg)) {
      return (st->byte_count == 0) != (st->packet_count == 0);
    }
    return false;
  }

  SanitizerConfig config_;
  std::multimap<SimTime, std::pair<std::string, of::ControlEvent>> buffer_;
  static constexpr SimTime kNoTs = std::numeric_limits<SimTime>::min();
  SimTime max_ts_ = kNoTs;
  SimTime released_up_to_ = kNoTs;
  StreamQuality window_;
  StreamQuality total_;
  std::unordered_map<std::uint64_t, unsigned> pair_seen_;
};

}  // namespace flowdiff::ingest::reference
