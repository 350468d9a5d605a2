#include "obs/trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "obs/export.h"

namespace flowdiff::obs {

namespace {

thread_local std::uint32_t tls_current_span = 0;
thread_local std::uint16_t tls_depth = 0;

}  // namespace

Trace& Trace::global() {
  static Trace trace;
  return trace;
}

std::vector<SpanRecord> Trace::records() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

std::vector<std::pair<std::string, SpanAggregate>> Trace::aggregates() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return {aggregates_.begin(), aggregates_.end()};
}

std::uint64_t Trace::dropped() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

void Trace::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  aggregates_.clear();
  dropped_ = 0;
  next_id_.store(1, std::memory_order_relaxed);
  epoch_ = std::chrono::steady_clock::now();
}

std::uint32_t Trace::next_id() {
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

std::chrono::steady_clock::time_point Trace::epoch() const { return epoch_; }

void Trace::close(std::string_view name, std::uint32_t id,
                  std::uint32_t parent, std::uint16_t depth, double start_ms,
                  double duration_ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  SpanAggregate& agg = aggregates_[std::string(name)];
  ++agg.count;
  agg.total_ms += duration_ms;
  agg.max_ms = std::max(agg.max_ms, duration_ms);
  if (records_.size() >= kMaxRecords) {
    ++dropped_;
    return;
  }
  records_.push_back(SpanRecord{id, parent, depth, std::string(name),
                                start_ms, duration_ms});
}

void Span::open(std::string_view name) {
  Trace& trace = Trace::global();
  id_ = trace.next_id();
  parent_ = tls_current_span;
  depth_ = tls_depth;
  name_ = name;
  tls_current_span = id_;
  ++tls_depth;
  start_ = std::chrono::steady_clock::now();
}

void Span::close() {
  const auto end = std::chrono::steady_clock::now();
  Trace& trace = Trace::global();
  const std::chrono::duration<double, std::milli> start_off =
      start_ - trace.epoch();
  const std::chrono::duration<double, std::milli> dur = end - start_;
  tls_current_span = parent_;
  --tls_depth;
  trace.close(name_, id_, parent_, depth_, start_off.count(), dur.count());
}

std::string render_span_json(const std::vector<SpanRecord>& records) {
  auto ms = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return std::string(buf);
  };
  std::string out = "{\n  \"spans\": [";
  bool first = true;
  for (const auto& rec : records) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"id\": " + std::to_string(rec.id) +
           ", \"parent\": " + std::to_string(rec.parent) +
           ", \"depth\": " + std::to_string(rec.depth) +
           ", \"name\": " + json_string(rec.name) +
           ", \"start_ms\": " + ms(rec.start_ms) +
           ", \"duration_ms\": " + ms(rec.duration_ms) + "}";
  }
  out += first ? "]\n" : "\n  ]\n";
  out += "}\n";
  return out;
}

std::string render_span_tree(const std::vector<SpanRecord>& records) {
  if (records.empty()) return "trace: no spans recorded\n";

  // Records arrive in completion order (children first); index them and
  // group children under their parent, display-sorted by start time.
  std::unordered_map<std::uint32_t, const SpanRecord*> by_id;
  std::unordered_map<std::uint32_t, std::vector<const SpanRecord*>> children;
  by_id.reserve(records.size());
  for (const auto& rec : records) by_id.emplace(rec.id, &rec);
  std::vector<const SpanRecord*> roots;
  for (const auto& rec : records) {
    if (rec.parent != 0 && by_id.contains(rec.parent)) {
      children[rec.parent].push_back(&rec);
    } else {
      roots.push_back(&rec);
    }
  }
  auto by_start = [](const SpanRecord* a, const SpanRecord* b) {
    return a->start_ms < b->start_ms ||
           (a->start_ms == b->start_ms && a->id < b->id);
  };
  std::sort(roots.begin(), roots.end(), by_start);
  for (auto& [id, kids] : children) {
    std::sort(kids.begin(), kids.end(), by_start);
  }

  std::size_t widest = 0;
  for (const auto& rec : records) {
    widest = std::max(widest,
                      rec.name.size() + 2 * static_cast<std::size_t>(
                                                rec.depth));
  }

  std::string out = "trace: " + std::to_string(records.size()) +
                    " span(s), start/duration in ms since trace epoch\n";
  auto render = [&](auto&& self, const SpanRecord* rec, int indent) -> void {
    char line[160];
    const std::string label =
        std::string(2 * static_cast<std::size_t>(indent), ' ') + rec->name;
    std::snprintf(line, sizeof(line), "%-*s %10.3f %10.3f\n",
                  static_cast<int>(widest), label.c_str(), rec->start_ms,
                  rec->duration_ms);
    out += line;
    const auto it = children.find(rec->id);
    if (it == children.end()) return;
    for (const SpanRecord* kid : it->second) self(self, kid, indent + 1);
  };
  for (const SpanRecord* root : roots) render(render, root, 0);
  return out;
}

}  // namespace flowdiff::obs
