#include "ingest/sanitizer.h"

#include <algorithm>
#include <bit>

#include "obs/metrics.h"
#include "openflow/log_io.h"

namespace flowdiff::ingest {

namespace {

struct IngestMetrics {
  obs::Counter& fed = obs::Registry::global().counter("ingest.fed");
  obs::Counter& kept = obs::Registry::global().counter("ingest.kept");
  obs::Counter& duplicates =
      obs::Registry::global().counter("ingest.duplicates");
  obs::Counter& reordered =
      obs::Registry::global().counter("ingest.reordered");
  obs::Counter& late_dropped =
      obs::Registry::global().counter("ingest.late_dropped");
  obs::Counter& truncated =
      obs::Registry::global().counter("ingest.truncated");
  obs::Gauge& buffer_depth =
      obs::Registry::global().gauge("ingest.buffer.depth");
};

IngestMetrics& metrics() {
  static IngestMetrics m;
  return m;
}

}  // namespace

StreamSanitizer::StreamSanitizer(SanitizerConfig config) : config_(config) {}

bool StreamSanitizer::is_truncated(const of::ControlEvent& event) const {
  // A flow that carried packets carried bytes and vice versa; a record
  // where one counter is zero and the other is not lost a field in
  // capture. Both-zero is a legitimate never-hit entry.
  if (const auto* fr = std::get_if<of::FlowRemoved>(&event.msg)) {
    return (fr->byte_count == 0) != (fr->packet_count == 0);
  }
  if (const auto* st = std::get_if<of::FlowStatsReply>(&event.msg)) {
    return (st->byte_count == 0) != (st->packet_count == 0);
  }
  return false;
}

void StreamSanitizer::push(const of::ControlEvent& event, const Sink& sink) {
  push_one(event, sink);
  flush_metrics();
}

void StreamSanitizer::push(const std::vector<of::ControlEvent>& events,
                           const Sink& sink) {
  for (const auto& event : events) push_one(event, sink);
  flush_metrics();
}

void StreamSanitizer::push_one(const of::ControlEvent& event,
                               const Sink& sink) {
  ++window_.fed;
  ++total_.fed;

  if (is_truncated(event)) {
    ++window_.truncated;
    ++total_.truncated;
    return;
  }

  if (event.ts < released_up_to_) {
    // Arrived after the watermark already passed its slot: order cannot be
    // restored without rewriting history downstream.
    ++window_.late_dropped;
    ++total_.late_dropped;
    return;
  }

  std::string identity;
  if (is_duplicate(event, identity)) {
    ++window_.duplicates;
    ++total_.duplicates;
    return;
  }

  if (max_ts_ != kNoTs && event.ts < max_ts_) {
    // Within-horizon displacement; the buffer will restore it.
    ++window_.reordered;
    ++total_.reordered;
  }

  if (ring_count_ > 0 && event.ts < ring_at(ring_count_ - 1).event.ts) {
    side_.emplace(event.ts, Slot{event, std::move(identity)});
  } else {
    if (ring_count_ == ring_.size()) {
      ring_resize(std::max<std::size_t>(64, 2 * ring_.size()));
    }
    Slot& slot = ring_at(ring_count_++);
    slot.event = event;
    slot.identity = std::move(identity);
    ring_peak_ = std::max(ring_peak_, ring_count_);
  }
  depth_peak_ = std::max(depth_peak_, buffered());
  max_ts_ = std::max(max_ts_, event.ts);
  // Saturate instead of underflowing when a deeply negative timestamp
  // meets the horizon (signed overflow would be UB under UBSan).
  const SimTime watermark =
      (max_ts_ < kNoTs + config_.lateness_horizon)
          ? kNoTs
          : max_ts_ - config_.lateness_horizon;
  release(watermark, sink);
}

bool StreamSanitizer::is_duplicate(const of::ControlEvent& event,
                                   std::string& identity) {
  // Dedup identity (the serialized line) is computed lazily and only for
  // neighbours that could match: the line starts with the record kind and
  // the controller (the timestamp is equal by construction), so a
  // neighbour differing in either can never serialize the same. Half of a
  // clean capture shares its timestamp with a neighbour — a FlowMod and
  // its PacketOut are logged in the same microsecond — and the prefilter
  // keeps all of those off the serializer.
  const auto same_record = [&event, &identity](Slot& slot) {
    if (slot.event.msg.index() != event.msg.index() ||
        slot.event.controller != event.controller) {
      return false;
    }
    if (identity.empty()) identity = of::serialize_event(event);
    if (slot.identity.empty()) slot.identity = of::serialize_event(slot.event);
    return slot.identity == identity;
  };
  if (ring_count_ > 0 && event.ts <= ring_at(ring_count_ - 1).event.ts) {
    // The ring is time-sorted: binary-search the first slot at event.ts.
    std::size_t lo = 0;
    std::size_t hi = ring_count_;
    while (lo < hi) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (ring_at(mid).event.ts < event.ts) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    for (; lo < ring_count_ && ring_at(lo).event.ts == event.ts; ++lo) {
      if (same_record(ring_at(lo))) return true;
    }
  }
  const auto [first, last] = side_.equal_range(event.ts);
  for (auto it = first; it != last; ++it) {
    if (same_record(it->second)) return true;
  }
  return false;
}

void StreamSanitizer::release(SimTime watermark, const Sink& sink) {
  for (;;) {
    const bool ring_ready =
        ring_count_ > 0 && ring_at(0).event.ts <= watermark;
    const bool side_ready =
        !side_.empty() && side_.begin()->first <= watermark;
    if (!ring_ready && !side_ready) break;
    // On equal timestamps the ring's event arrived first (see header).
    const bool from_side =
        side_ready &&
        (!ring_ready || side_.begin()->first < ring_at(0).event.ts);
    const of::ControlEvent& event =
        from_side ? side_.begin()->second.event : ring_at(0).event;
    ++window_.kept;
    ++total_.kept;
    note_pairing(event);
    sink(event);
    if (from_side) {
      side_.erase(side_.begin());
    } else {
      ring_head_ = (ring_head_ + 1) & (ring_.size() - 1);
      --ring_count_;
    }
  }
  released_up_to_ = std::max(released_up_to_, watermark);
  if (ring_cut_) {
    // recycle(): a ring over 4x the closed window's peak shrinks to the
    // power of two (at least 64) that holds that peak.
    if (ring_.size() > std::max<std::size_t>(64, 4 * ring_peak_)) {
      ring_resize(std::max<std::size_t>(64, std::bit_ceil(ring_peak_)));
    }
    ring_peak_ = ring_count_;
    ring_cut_ = false;
  }
}

void StreamSanitizer::ring_resize(std::size_t size) {
  std::vector<Slot> resized(size);
  for (std::size_t i = 0; i < ring_count_; ++i) {
    resized[i] = std::move(ring_at(i));
  }
  ring_.swap(resized);
  ring_head_ = 0;
}

void StreamSanitizer::flush(const Sink& sink) {
  if (buffered() > 0) release(max_ts_, sink);
  flush_metrics();
}

void StreamSanitizer::flush_metrics() {
  IngestMetrics& m = metrics();
  const auto advance = [](obs::Counter& counter, std::uint64_t now,
                          std::uint64_t then) {
    if (now != then) counter.inc(now - then);
  };
  advance(m.fed, total_.fed, metered_.fed);
  advance(m.kept, total_.kept, metered_.kept);
  advance(m.duplicates, total_.duplicates, metered_.duplicates);
  advance(m.reordered, total_.reordered, metered_.reordered);
  advance(m.late_dropped, total_.late_dropped, metered_.late_dropped);
  advance(m.truncated, total_.truncated, metered_.truncated);
  metered_ = total_;
  m.buffer_depth.set(static_cast<std::int64_t>(depth_peak_));
  m.buffer_depth.set(static_cast<std::int64_t>(buffered()));
  depth_peak_ = buffered();
}

void StreamSanitizer::note_pairing(const of::ControlEvent& event) {
  if (const auto* pin = std::get_if<of::PacketIn>(&event.msg)) {
    if (pin->flow_uid != 0) pair_seen_[pin->flow_uid] |= 1u;
  } else if (const auto* fm = std::get_if<of::FlowMod>(&event.msg)) {
    if (fm->flow_uid != 0) pair_seen_[fm->flow_uid] |= 2u;
  }
}

StreamQuality StreamSanitizer::take_window_quality() {
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
  ring_cut_ = true;
  return out;
}

SanitizedLog sanitize_log(const std::vector<of::ControlEvent>& events,
                          const SanitizerConfig& config) {
  SanitizedLog out;
  StreamSanitizer sanitizer(config);
  const auto sink = [&out](const of::ControlEvent& event) {
    out.log.append(event);
  };
  sanitizer.push(events, sink);
  sanitizer.flush(sink);
  out.quality = sanitizer.take_window_quality();
  return out;
}

}  // namespace flowdiff::ingest
