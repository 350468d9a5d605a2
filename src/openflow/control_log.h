// ControlLog: the timestamped record of control traffic captured at the
// controller. This is FlowDiff's only input (the paper's L1 / L2 logs).
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "openflow/messages.h"
#include "util/time.h"

namespace flowdiff::of {

class ControlLog {
 public:
  ControlLog() = default;

  /// Adopts `events` (e.g. a parsed capture) without copying them; one
  /// order check here replaces the per-append one.
  explicit ControlLog(std::vector<ControlEvent>&& events);

  /// Appends an event. Out-of-order appends are tolerated; the log sorts
  /// itself lazily on the next ordered access, so bulk appends stay O(n).
  void append(ControlEvent event);

  /// Drops every event but keeps the allocated capacity — lets a hot loop
  /// (the monitor's window scratch buffer) reuse one allocation across
  /// windows instead of growing a fresh vector each time.
  void clear() {
    events_.clear();
    sorted_ = true;
  }

  [[nodiscard]] const std::vector<ControlEvent>& events() const {
    ensure_sorted();
    return events_;
  }
  [[nodiscard]] std::size_t size() const { return events_.size(); }
  [[nodiscard]] bool empty() const { return events_.empty(); }

  /// First/last event timestamps; 0 for an empty log.
  [[nodiscard]] SimTime begin_time() const;
  [[nodiscard]] SimTime end_time() const;

  /// Events with begin <= ts < end. The log is kept time-sorted, so this is
  /// a contiguous slice.
  [[nodiscard]] ControlLog slice(SimTime begin, SimTime end) const;

  /// Events satisfying the predicate (e.g., single-VM visibility for the
  /// EC2-style capture).
  [[nodiscard]] ControlLog filter(
      const std::function<bool(const ControlEvent&)>& pred) const;

  /// Merges another controller's log, keeping time order (distributed
  /// controller deployments capture per-controller logs and synchronize).
  void merge(const ControlLog& other);

  /// Count of events of a given message type (e.g., PacketIn) — used by the
  /// scalability study.
  template <typename Message>
  [[nodiscard]] std::size_t count() const {
    std::size_t n = 0;
    for (const auto& e : events_) {
      if (std::holds_alternative<Message>(e.msg)) ++n;
    }
    return n;
  }

 private:
  void ensure_sorted() const;

  mutable std::vector<ControlEvent> events_;
  mutable bool sorted_ = true;
};

}  // namespace flowdiff::of
