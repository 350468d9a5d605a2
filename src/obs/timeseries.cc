#include "obs/timeseries.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <limits>

#include "obs/export.h"
#include "obs/flight_recorder.h"

namespace flowdiff::obs {

namespace {

/// Weighted merge of two adjacent buckets (a precedes b in time).
SeriesPoint merge(const SeriesPoint& a, const SeriesPoint& b) {
  SeriesPoint out;
  out.t_begin = a.t_begin;
  out.t_end = b.t_end;
  out.count = a.count + b.count;
  out.min = std::min(a.min, b.min);
  out.max = std::max(a.max, b.max);
  out.mean = (a.mean * static_cast<double>(a.count) +
              b.mean * static_cast<double>(b.count)) /
             static_cast<double>(out.count);
  return out;
}

std::string fmt3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string num_compact(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  double parsed = 0.0;
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == v) {
      return shorter;
    }
  }
  return buf;
}

}  // namespace

void Series::append(double t, double value) {
  ++total_;
  last_raw_ = SeriesPoint{t, t, value, value, value, 1};
  if (acc_.count == 0) {
    acc_ = last_raw_;
  } else {
    acc_ = merge(acc_, last_raw_);
  }
  if (acc_.count < stride_) return;
  points_.push_back(acc_);
  acc_ = SeriesPoint{};
  if (points_.size() >= capacity_) compact();
}

void Series::compact() {
  std::vector<SeriesPoint> merged;
  merged.reserve(points_.size() / 2 + 1);
  std::size_t i = 0;
  for (; i + 1 < points_.size(); i += 2) {
    merged.push_back(merge(points_[i], points_[i + 1]));
  }
  if (i < points_.size()) merged.push_back(points_[i]);
  points_ = std::move(merged);
  stride_ *= 2;
}

std::vector<SeriesPoint> Series::points() const {
  std::vector<SeriesPoint> out = points_;
  if (acc_.count > 0) out.push_back(acc_);
  return out;
}

SeriesPoint Series::last() const { return last_raw_; }

void Series::clear() {
  points_.clear();
  acc_ = SeriesPoint{};
  last_raw_ = SeriesPoint{};
  stride_ = 1;
  total_ = 0;
}

Sampler& Sampler::global() {
  static Sampler sampler;
  return sampler;
}

Series& Sampler::series_locked(const std::string& name) {
  return series_.try_emplace(name).first->second;
}

void Sampler::sample(double t) {
  if (!enabled()) return;
  const std::lock_guard<std::mutex> lock(mu_);
  if (!(t > last_t_)) return;  // One clock: never rewind.
  const Snapshot snap = Registry::global().snapshot();
  for (const auto& [name, value] : snap.counters) {
    const double v = static_cast<double>(value);
    series_locked(name).append(t, v);
    const auto prev = last_counter_.find(name);
    if (prev != last_counter_.end()) {
      const double rate =
          std::max(0.0, v - prev->second.second) / (t - prev->second.first);
      series_locked(name + ".rate").append(t, rate);
    }
    last_counter_[name] = {t, v};
  }
  for (const auto& [name, g] : snap.gauges) {
    series_locked(name).append(t, static_cast<double>(g.value));
  }
  for (const auto& [name, h] : snap.histograms) {
    series_locked(name + ".count").append(t, static_cast<double>(h.count));
    // A zero-count snapshot (registered histogram, idle window) has no
    // mean or quantiles; appending the 0.0 placeholders the snapshot
    // arithmetic falls back to would fabricate data points that drag the
    // derived series (and the watchdog's EWMA over them) toward zero.
    if (h.count == 0) continue;
    series_locked(name + ".mean").append(t, h.mean());
    series_locked(name + ".p50").append(t, h.quantile(0.5));
    series_locked(name + ".p99").append(t, h.quantile(0.99));
  }
  last_t_ = t;
  ++samples_;
  watch_locked(t);
}

void Sampler::watch_locked(double t) {
  struct Rule {
    const char* series;
    double factor;     ///< Alert when a sample exceeds factor * EWMA...
    double min_value;  ///< ...and reaches this floor.
  };
  // The pipeline's own health series: event-queue depth, controller
  // service-time p99, and the monitor's per-window modeling+diffing cost
  // (its backlog proxy).
  static constexpr Rule kRules[] = {
      {"sim.queue.depth", 4.0, 64.0},
      {"ctrl.service_time_us.p99", 3.0, 500.0},
      {"monitor.window_ms.p99", 3.0, 5.0},
  };
  static_assert(std::size(kRules) == std::tuple_size_v<decltype(watches_)>);
  constexpr double kAlpha = 0.25;     // EWMA weight of the newest sample.
  constexpr std::size_t kWarmup = 3;  // Samples before alerting starts.
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    const Rule& rule = kRules[i];
    const auto it = series_.find(std::string_view(rule.series));
    // Only a point this sample appended is news.
    if (it == series_.end() || it->second.last().t_end != t) continue;
    const double value = it->second.last().mean;
    Watch& watch = watches_[i];
    // Judge against the history *before* folding the sample in, so a spike
    // cannot mask itself.
    if (watch.samples >= kWarmup && value >= rule.min_value &&
        value > rule.factor * watch.ewma) {
      ++watchdog_alerts_;
      static Counter& alert_counter =
          Registry::global().counter("obs.watchdog.alerts");
      alert_counter.inc();
      FlightRecorder::global().record(
          Severity::kWarn, "watchdog",
          std::string("pipeline series degraded: ") + rule.series,
          {{"value", fmt3(value)},
           {"ewma", fmt3(watch.ewma)},
           {"factor", fmt3(rule.factor)}},
          t);
    }
    watch.ewma = watch.samples == 0
                     ? value
                     : kAlpha * value + (1.0 - kAlpha) * watch.ewma;
    ++watch.samples;
  }
}

std::vector<std::string> Sampler::names() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.push_back(name);
  return out;
}

std::optional<Series> Sampler::find(std::string_view name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = series_.find(name);
  if (it == series_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::pair<std::string, Series>> Sampler::series() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, Series>> out;
  out.reserve(series_.size());
  for (const auto& [name, s] : series_) out.emplace_back(name, s);
  return out;
}

std::uint64_t Sampler::samples_taken() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

std::uint64_t Sampler::watchdog_alerts() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return watchdog_alerts_;
}

void Sampler::clear() {
  const std::lock_guard<std::mutex> lock(mu_);
  series_.clear();
  last_counter_.clear();
  last_t_ = -std::numeric_limits<double>::infinity();
  samples_ = 0;
  watches_ = {};
  watchdog_alerts_ = 0;
}

std::string render_series_csv(
    const std::vector<std::pair<std::string, Series>>& series) {
  std::string out = "series,t_begin,t_end,mean,min,max,count\n";
  for (const auto& [name, s] : series) {
    for (const SeriesPoint& p : s.points()) {
      out += name;
      out += ',' + num_compact(p.t_begin) + ',' + num_compact(p.t_end) + ',' +
             num_compact(p.mean) + ',' + num_compact(p.min) + ',' +
             num_compact(p.max) + ',' + std::to_string(p.count) + '\n';
    }
  }
  return out;
}

std::string render_series_csv(const Sampler& sampler) {
  return render_series_csv(sampler.series());
}

std::string render_series_csv(
    const std::vector<std::pair<std::string, std::vector<SeriesPoint>>>&
        series) {
  std::string out = "series,t_begin,t_end,mean,min,max,count\n";
  for (const auto& [name, points] : series) {
    for (const SeriesPoint& p : points) {
      out += name;
      out += ',' + num_compact(p.t_begin) + ',' + num_compact(p.t_end) + ',' +
             num_compact(p.mean) + ',' + num_compact(p.min) + ',' +
             num_compact(p.max) + ',' + std::to_string(p.count) + '\n';
    }
  }
  return out;
}

std::string render_series_json(
    const std::vector<std::pair<std::string, Series>>& series) {
  std::string out = "{\n  \"series\": {";
  bool first = true;
  for (const auto& [name, s] : series) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_string(name) +
           ": {\"stride\": " + std::to_string(s.stride()) + ", \"points\": [";
    bool first_point = true;
    for (const SeriesPoint& p : s.points()) {
      if (!first_point) out += ", ";
      first_point = false;
      out += '[' + num_compact(p.t_begin) + ", " + num_compact(p.t_end) +
             ", " + num_compact(p.mean) + ", " + num_compact(p.min) + ", " +
             num_compact(p.max) + ", " + std::to_string(p.count) + ']';
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string render_series_json(const Sampler& sampler) {
  return render_series_json(sampler.series());
}

std::string render_series_json(
    const std::vector<std::pair<std::string, std::vector<SeriesPoint>>>&
        series) {
  std::string out = "{\n  \"series\": {";
  bool first = true;
  for (const auto& [name, points] : series) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    " + json_string(name) + ": {\"stride\": 0, \"points\": [";
    bool first_point = true;
    for (const SeriesPoint& p : points) {
      if (!first_point) out += ", ";
      first_point = false;
      out += '[' + num_compact(p.t_begin) + ", " + num_compact(p.t_end) +
             ", " + num_compact(p.mean) + ", " + num_compact(p.min) + ", " +
             num_compact(p.max) + ", " + std::to_string(p.count) + ']';
    }
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

/// One [t_begin, t_end, mean, min, max, count] point of
/// render_series_json's output.
std::optional<SeriesPoint> parse_point(JsonCursor& p) {
  if (!p.eat('[')) return std::nullopt;
  double vals[6] = {};
  for (int i = 0; i < 6; ++i) {
    if (i > 0 && !p.eat(',')) return std::nullopt;
    const auto v = p.number();
    if (!v) return std::nullopt;
    vals[i] = *v;
  }
  if (!p.eat(']')) return std::nullopt;
  SeriesPoint point;
  point.t_begin = vals[0];
  point.t_end = vals[1];
  point.mean = vals[2];
  point.min = vals[3];
  point.max = vals[4];
  point.count = static_cast<std::uint64_t>(vals[5]);
  return point;
}

}  // namespace

std::optional<std::vector<std::pair<std::string, std::vector<SeriesPoint>>>>
parse_series_json(std::string_view text) {
  JsonCursor p{text};
  std::vector<std::pair<std::string, std::vector<SeriesPoint>>> out;
  if (!p.eat('{')) return std::nullopt;
  const auto section = p.string();
  if (!section || *section != "series" || !p.eat(':') || !p.eat('{')) {
    return std::nullopt;
  }
  if (!p.peek('}')) {
    do {
      const auto name = p.string();
      if (!name || !p.eat(':') || !p.eat('{')) return std::nullopt;
      const auto stride_key = p.string();
      if (!stride_key || *stride_key != "stride" || !p.eat(':') ||
          !p.number()) {
        return std::nullopt;
      }
      if (!p.eat(',')) return std::nullopt;
      const auto points_key = p.string();
      if (!points_key || *points_key != "points" || !p.eat(':') ||
          !p.eat('[')) {
        return std::nullopt;
      }
      std::vector<SeriesPoint> points;
      if (!p.peek(']')) {
        do {
          const auto point = parse_point(p);
          if (!point) return std::nullopt;
          points.push_back(*point);
        } while (p.eat(','));
      }
      if (!p.eat(']') || !p.eat('}')) return std::nullopt;
      out.emplace_back(*name, std::move(points));
    } while (p.eat(','));
  }
  if (!p.eat('}') || !p.eat('}')) return std::nullopt;
  return out;
}

std::optional<std::vector<std::pair<std::string, std::vector<SeriesPoint>>>>
parse_series_csv(std::string_view text) {
  constexpr std::string_view kHeader =
      "series,t_begin,t_end,mean,min,max,count";
  std::vector<std::pair<std::string, std::vector<SeriesPoint>>> out;
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line =
        text.substr(pos, eol == std::string_view::npos ? text.size() - pos
                                                       : eol - pos);
    pos = eol == std::string_view::npos ? text.size() : eol + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (!saw_header) {
      if (line != kHeader) return std::nullopt;
      saw_header = true;
      continue;
    }
    // name,t_begin,t_end,mean,min,max,count — metric names never contain
    // commas, so a straight split is the inverse of the renderer.
    std::array<std::string_view, 7> cells;
    std::size_t cell = 0;
    while (cell < cells.size()) {
      const std::size_t comma = line.find(',');
      if ((comma == std::string_view::npos) != (cell + 1 == cells.size())) {
        return std::nullopt;  // Too few or too many columns.
      }
      cells[cell++] = line.substr(0, comma);
      line.remove_prefix(comma == std::string_view::npos ? line.size()
                                                         : comma + 1);
    }
    auto cell_double = [](std::string_view t) -> std::optional<double> {
      double v = 0.0;
      if (std::sscanf(std::string(t).c_str(), "%lf", &v) != 1) {
        return std::nullopt;
      }
      return v;
    };
    SeriesPoint p;
    const auto t_begin = cell_double(cells[1]);
    const auto t_end = cell_double(cells[2]);
    const auto mean = cell_double(cells[3]);
    const auto min = cell_double(cells[4]);
    const auto max = cell_double(cells[5]);
    const auto count = cell_double(cells[6]);
    if (!t_begin || !t_end || !mean || !min || !max || !count) {
      return std::nullopt;
    }
    p.t_begin = *t_begin;
    p.t_end = *t_end;
    p.mean = *mean;
    p.min = *min;
    p.max = *max;
    p.count = static_cast<std::uint64_t>(*count);
    if (out.empty() || out.back().first != cells[0]) {
      out.emplace_back(std::string(cells[0]), std::vector<SeriesPoint>{});
    }
    out.back().second.push_back(p);
  }
  if (!saw_header) return std::nullopt;
  return out;
}

}  // namespace flowdiff::obs
