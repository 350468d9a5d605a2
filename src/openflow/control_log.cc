#include "openflow/control_log.h"

#include <algorithm>

namespace flowdiff::of {

ControlLog::ControlLog(std::vector<ControlEvent>&& events)
    : events_(std::move(events)),
      sorted_(std::is_sorted(events_.begin(), events_.end(),
                             [](const ControlEvent& a, const ControlEvent& b) {
                               return a.ts < b.ts;
                             })) {}

void ControlLog::append(ControlEvent event) {
  if (sorted_ && !events_.empty() && event.ts < events_.back().ts) {
    sorted_ = false;
  }
  events_.push_back(std::move(event));
}

void ControlLog::ensure_sorted() const {
  if (sorted_) return;
  std::stable_sort(
      events_.begin(), events_.end(),
      [](const ControlEvent& a, const ControlEvent& b) { return a.ts < b.ts; });
  sorted_ = true;
}

SimTime ControlLog::begin_time() const {
  ensure_sorted();
  return events_.empty() ? 0 : events_.front().ts;
}

SimTime ControlLog::end_time() const {
  ensure_sorted();
  return events_.empty() ? 0 : events_.back().ts;
}

ControlLog ControlLog::slice(SimTime begin, SimTime end) const {
  ensure_sorted();
  ControlLog out;
  auto lo = std::lower_bound(
      events_.begin(), events_.end(), begin,
      [](const ControlEvent& e, SimTime t) { return e.ts < t; });
  auto hi = std::lower_bound(
      lo, events_.end(), end,
      [](const ControlEvent& e, SimTime t) { return e.ts < t; });
  out.events_.assign(lo, hi);
  return out;
}

ControlLog ControlLog::filter(
    const std::function<bool(const ControlEvent&)>& pred) const {
  ControlLog out;
  for (const auto& e : events_) {
    if (pred(e)) out.events_.push_back(e);
  }
  return out;
}

void ControlLog::merge(const ControlLog& other) {
  other.ensure_sorted();
  events_.insert(events_.end(), other.events_.begin(), other.events_.end());
  sorted_ = false;
  ensure_sorted();
}

}  // namespace flowdiff::of
