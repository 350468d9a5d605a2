#include "obs/export.h"

#include <dirent.h>
#include <sys/resource.h>

#include <cctype>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/trace.h"
#include "util/table.h"

namespace flowdiff::obs {

namespace {

std::string quote(std::string_view name) {
  // Prometheus exposition label values: backslash, double-quote, and
  // line-feed must be escaped (a raw newline would split the sample line).
  std::string out = "\"";
  for (const char c : name) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string escape_help(std::string_view text) {
  // # HELP text: the exposition format escapes backslash and line feed
  // (quotes stay raw — help text is not quoted).
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    if (c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string prom_name(std::string_view prefix, std::string_view name) {
  std::string out{prefix};
  out += '_';
  for (const char c : name) {
    out += std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_';
  }
  return out;
}

/// Parses {"key": <number>, ...} into the given field map; every listed
/// key must appear. `counts` (if non-null) receives an optional
/// "counts": [..] array member.
bool json_fields(JsonCursor& p,
                 std::initializer_list<std::pair<const char*, double*>> wanted,
                 std::vector<std::uint64_t>* counts) {
  if (!p.eat('{')) return false;
  std::size_t found = 0;
  if (!p.peek('}')) {
    do {
      const auto key = p.string();
      if (!key || !p.eat(':')) return false;
      if (counts != nullptr && *key == "counts") {
        if (!p.eat('[')) return false;
        if (!p.peek(']')) {
          do {
            const auto v = p.number();
            if (!v) return false;
            counts->push_back(static_cast<std::uint64_t>(*v));
          } while (p.eat(','));
        }
        if (!p.eat(']')) return false;
        continue;
      }
      bool matched = false;
      for (const auto& [name, slot] : wanted) {
        if (*key == name) {
          const auto v = p.number();
          if (!v) return false;
          *slot = *v;
          matched = true;
          ++found;
          break;
        }
      }
      if (!matched) return false;
    } while (p.eat(','));
  }
  return p.eat('}') && found == wanted.size();
}

}  // namespace

std::string json_number(double v) {
  char best[64];
  std::snprintf(best, sizeof(best), "%.17g", v);
  double parsed = 0.0;
  for (int prec = 1; prec < 17; ++prec) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", prec, v);
    if (std::sscanf(shorter, "%lf", &parsed) == 1 && parsed == v) {
      std::memcpy(best, shorter, sizeof(best));
      break;
    }
  }
  if (std::strchr(best, 'e') != nullptr) {
    for (int prec = 0; prec < 17; ++prec) {
      char fixed[64];
      const int len = std::snprintf(fixed, sizeof(fixed), "%.*f", prec, v);
      if (len < 0 || static_cast<std::size_t>(len) >= sizeof(fixed) ||
          static_cast<std::size_t>(len) > std::strlen(best)) {
        break;
      }
      if (std::sscanf(fixed, "%lf", &parsed) == 1 && parsed == v) {
        std::memcpy(best, fixed, sizeof(best));
        break;
      }
    }
  }
  return best;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  out.reserve(text.size() + 2);
  for (const char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
  return out;
}

std::optional<std::string> parse_json_string(std::string_view text,
                                             std::size_t& pos) {
  if (pos >= text.size() || text[pos] != '"') return std::nullopt;
  std::string out;
  for (++pos; pos < text.size() && text[pos] != '"'; ++pos) {
    char c = text[pos];
    if (c == '\\' && pos + 1 < text.size()) {
      switch (const char esc = text[++pos]) {
        case 'n':
          c = '\n';
          break;
        case 'r':
          c = '\r';
          break;
        case 't':
          c = '\t';
          break;
        case 'u': {
          unsigned code = 0;
          for (int k = 0; k < 4; ++k) {
            if (++pos >= text.size() ||
                std::isxdigit(static_cast<unsigned char>(text[pos])) == 0) {
              return std::nullopt;
            }
            const char h = text[pos];
            code = code * 16 + static_cast<unsigned>(
                                   h <= '9' ? h - '0' : (h | 0x20) - 'a' + 10);
          }
          if (code >= 0x80) return std::nullopt;
          c = static_cast<char>(code);
          break;
        }
        default:
          c = esc;
      }
    }
    out += c;
  }
  if (pos >= text.size()) return std::nullopt;
  ++pos;  // The closing quote.
  return out;
}

void JsonCursor::ws() {
  while (pos < s.size() &&
         std::isspace(static_cast<unsigned char>(s[pos])) != 0) {
    ++pos;
  }
}

bool JsonCursor::eat(char c) {
  if (!peek(c)) return false;
  ++pos;
  return true;
}

bool JsonCursor::peek(char c) {
  ws();
  return pos < s.size() && s[pos] == c;
}

std::optional<std::string> JsonCursor::string() {
  ws();
  return parse_json_string(s, pos);
}

std::optional<double> JsonCursor::number() {
  ws();
  const std::size_t start = pos;
  while (pos < s.size() &&
         (std::isdigit(static_cast<unsigned char>(s[pos])) != 0 ||
          s[pos] == '-' || s[pos] == '+' || s[pos] == '.' || s[pos] == 'e' ||
          s[pos] == 'E')) {
    ++pos;
  }
  if (pos == start) return std::nullopt;
  double value = 0.0;
  if (std::sscanf(std::string(s.substr(start, pos - start)).c_str(), "%lf",
                  &value) != 1) {
    return std::nullopt;
  }
  return value;
}

std::optional<bool> JsonCursor::boolean() {
  ws();
  for (const bool value : {true, false}) {
    const std::string_view word = value ? "true" : "false";
    if (s.substr(pos, word.size()) == word) {
      pos += word.size();
      return value;
    }
  }
  return std::nullopt;
}

Snapshot snapshot() {
  Snapshot snap = Registry::global().snapshot();
  snap.spans = Trace::global().aggregates();
  return snap;
}

namespace {
/// Static-init epoch: uptime is measured from library load (≈ process
/// start), not from the first scrape.
const std::chrono::steady_clock::time_point g_process_epoch =
    std::chrono::steady_clock::now();
}  // namespace

void update_process_gauges() {
  // Early out before the static registrations: a disabled process never
  // grows process.* entries in the registry (keeps unit-test snapshots
  // and sampled series exactly as they were).
  if (!enabled()) return;
  static Gauge& uptime = Registry::global().gauge("process.uptime_s");
  static Gauge& peak_rss = Registry::global().gauge("process.peak_rss_bytes");
  static Gauge& open_fds = Registry::global().gauge("process.open_fds");
  uptime.set(std::chrono::duration_cast<std::chrono::seconds>(
                 std::chrono::steady_clock::now() - g_process_epoch)
                 .count());
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // Linux reports ru_maxrss in kilobytes.
    peak_rss.set(static_cast<std::int64_t>(usage.ru_maxrss) * 1024);
  }
  std::int64_t fds = 0;
  if (DIR* dir = opendir("/proc/self/fd"); dir != nullptr) {
    while (readdir(dir) != nullptr) ++fds;
    closedir(dir);
    fds -= 3;  // ".", "..", and the directory fd itself.
    if (fds < 0) fds = 0;
    open_fds.set(fds);
  }
}

std::string render_table(const Snapshot& snap) {
  if (snap.empty()) {
    return "observability: nothing recorded (enable with --stats/--trace or "
           "obs::set_enabled)\n";
  }
  std::string out;
  if (!snap.counters.empty()) {
    TextTable t({"counter", "value"});
    for (const auto& [name, value] : snap.counters) {
      t.add_row({name, std::to_string(value)});
    }
    out += "== counters ==\n" + t.render();
  }
  if (!snap.gauges.empty()) {
    TextTable t({"gauge", "value", "peak"});
    for (const auto& [name, g] : snap.gauges) {
      t.add_row({name, std::to_string(g.value), std::to_string(g.peak)});
    }
    if (!out.empty()) out += '\n';
    out += "== gauges ==\n" + t.render();
  }
  if (!snap.histograms.empty()) {
    TextTable t({"histogram", "count", "mean", "p50", "p95", "min", "max"});
    for (const auto& [name, h] : snap.histograms) {
      t.add_row({name, std::to_string(h.count), fmt_double(h.mean()),
                 fmt_double(h.quantile(0.5)), fmt_double(h.quantile(0.95)),
                 fmt_double(h.min), fmt_double(h.max)});
    }
    if (!out.empty()) out += '\n';
    out += "== histograms ==\n" + t.render();
  }
  if (!snap.spans.empty()) {
    TextTable t({"span", "count", "total_ms", "mean_ms", "max_ms"});
    for (const auto& [name, s] : snap.spans) {
      const double mean =
          s.count == 0 ? 0.0 : s.total_ms / static_cast<double>(s.count);
      t.add_row({name, std::to_string(s.count), fmt_double(s.total_ms),
                 fmt_double(mean), fmt_double(s.max_ms)});
    }
    if (!out.empty()) out += '\n';
    out += "== spans ==\n" + t.render();
  }
  return out;
}

std::string render_json(const Snapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snap.counters) {
    out += first ? "\n" : ",\n";
    out += "    " + quote(name) + ": " + std::to_string(value);
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, g] : snap.gauges) {
    out += first ? "\n" : ",\n";
    out += "    " + quote(name) + ": {\"value\": " + std::to_string(g.value) +
           ", \"peak\": " + std::to_string(g.peak) + "}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : snap.histograms) {
    out += first ? "\n" : ",\n";
    out += "    " + quote(name) +
           ": {\"bin_width\": " + json_number(h.bin_width) +
           ", \"origin\": " + json_number(h.origin) +
           ", \"count\": " + std::to_string(h.count) +
           ", \"sum\": " + json_number(h.sum) +
           ", \"min\": " + json_number(h.min) +
           ", \"max\": " + json_number(h.max) + ", \"counts\": [";
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      if (i > 0) out += ", ";
      out += std::to_string(h.counts[i]);
    }
    out += "]}";
    first = false;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"spans\": {";
  first = true;
  for (const auto& [name, s] : snap.spans) {
    out += first ? "\n" : ",\n";
    out += "    " + quote(name) + ": {\"count\": " + std::to_string(s.count) +
           ", \"total_ms\": " + json_number(s.total_ms) +
           ", \"max_ms\": " + json_number(s.max_ms) + "}";
    first = false;
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

std::string render_prometheus(const Snapshot& snap, std::string_view prefix) {
  // promtool-friendly exposition: every metric family leads with a # HELP
  // line (the registry carries no descriptions, so it names the source
  // instrument) followed by its # TYPE line.
  const auto help = [](const std::string& metric, std::string_view kind,
                       std::string_view source) {
    return "# HELP " + metric + " FlowDiff " + std::string(kind) + " '" +
           escape_help(source) + "'\n";
  };
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    const std::string metric = prom_name(prefix, name);
    out += help(metric, "counter", name);
    out += "# TYPE " + metric + " counter\n";
    out += metric + " " + std::to_string(value) + "\n";
  }
  for (const auto& [name, g] : snap.gauges) {
    const std::string metric = prom_name(prefix, name);
    out += help(metric, "gauge", name);
    out += "# TYPE " + metric + " gauge\n";
    out += metric + " " + std::to_string(g.value) + "\n";
    out += help(metric + "_peak", "gauge peak watermark of", name);
    out += "# TYPE " + metric + "_peak gauge\n";
    out += metric + "_peak " + std::to_string(g.peak) + "\n";
  }
  for (const auto& [name, h] : snap.histograms) {
    const std::string metric = prom_name(prefix, name);
    out += help(metric, "histogram", name);
    out += "# TYPE " + metric + " histogram\n";
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < h.counts.size(); ++i) {
      cumulative += h.counts[i];
      out += metric + "_bucket{le=\"" +
             json_number(h.origin + h.bin_width * static_cast<double>(i + 1)) +
             "\"} " + std::to_string(cumulative) + "\n";
    }
    out += metric + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + "\n";
    out += metric + "_sum " + json_number(h.sum) + "\n";
    out += metric + "_count " + std::to_string(h.count) + "\n";
  }
  // Span aggregates: one family per statistic, samples grouped under their
  // HELP/TYPE header as the exposition format requires.
  if (!snap.spans.empty()) {
    const std::string base{prefix};
    out += "# HELP " + base + "_span_count FlowDiff tracing span count\n";
    out += "# TYPE " + base + "_span_count gauge\n";
    for (const auto& [name, s] : snap.spans) {
      out += base + "_span_count{span=" + quote(name) + "} " +
             std::to_string(s.count) + "\n";
    }
    out += "# HELP " + base +
           "_span_total_ms FlowDiff tracing span total wall ms\n";
    out += "# TYPE " + base + "_span_total_ms gauge\n";
    for (const auto& [name, s] : snap.spans) {
      out += base + "_span_total_ms{span=" + quote(name) + "} " +
             json_number(s.total_ms) + "\n";
    }
    out += "# HELP " + base +
           "_span_max_ms FlowDiff tracing span max wall ms\n";
    out += "# TYPE " + base + "_span_max_ms gauge\n";
    for (const auto& [name, s] : snap.spans) {
      out += base + "_span_max_ms{span=" + quote(name) + "} " +
             json_number(s.max_ms) + "\n";
    }
  }
  return out;
}

std::optional<Snapshot> parse_json(std::string_view text) {
  JsonCursor p{text};
  Snapshot snap;
  if (!p.eat('{')) return std::nullopt;

  auto section = [&p](const char* expect) -> bool {
    const auto key = p.string();
    return key && *key == expect && p.eat(':') && p.eat('{');
  };

  if (!section("counters")) return std::nullopt;
  if (!p.peek('}')) {
    do {
      const auto name = p.string();
      if (!name || !p.eat(':')) return std::nullopt;
      const auto value = p.number();
      if (!value) return std::nullopt;
      snap.counters.emplace_back(*name,
                                 static_cast<std::uint64_t>(*value));
    } while (p.eat(','));
  }
  if (!p.eat('}') || !p.eat(',')) return std::nullopt;

  if (!section("gauges")) return std::nullopt;
  if (!p.peek('}')) {
    do {
      const auto name = p.string();
      if (!name || !p.eat(':')) return std::nullopt;
      double value = 0.0;
      double peak = 0.0;
      if (!json_fields(p, {{"value", &value}, {"peak", &peak}}, nullptr)) {
        return std::nullopt;
      }
      snap.gauges.emplace_back(
          *name, GaugeSnapshot{static_cast<std::int64_t>(value),
                               static_cast<std::int64_t>(peak)});
    } while (p.eat(','));
  }
  if (!p.eat('}') || !p.eat(',')) return std::nullopt;

  if (!section("histograms")) return std::nullopt;
  if (!p.peek('}')) {
    do {
      const auto name = p.string();
      if (!name || !p.eat(':')) return std::nullopt;
      HistogramSnapshot h;
      double count = 0.0;
      if (!json_fields(p,
                       {{"bin_width", &h.bin_width},
                        {"origin", &h.origin},
                        {"count", &count},
                        {"sum", &h.sum},
                        {"min", &h.min},
                        {"max", &h.max}},
                       &h.counts)) {
        return std::nullopt;
      }
      h.count = static_cast<std::uint64_t>(count);
      snap.histograms.emplace_back(*name, std::move(h));
    } while (p.eat(','));
  }
  if (!p.eat('}') || !p.eat(',')) return std::nullopt;

  if (!section("spans")) return std::nullopt;
  if (!p.peek('}')) {
    do {
      const auto name = p.string();
      if (!name || !p.eat(':')) return std::nullopt;
      SpanAggregate s;
      double count = 0.0;
      if (!json_fields(
              p,
              {{"count", &count}, {"total_ms", &s.total_ms},
               {"max_ms", &s.max_ms}},
              nullptr)) {
        return std::nullopt;
      }
      s.count = static_cast<std::uint64_t>(count);
      snap.spans.emplace_back(*name, s);
    } while (p.eat(','));
  }
  if (!p.eat('}') || !p.eat('}')) return std::nullopt;
  return snap;
}

}  // namespace flowdiff::obs
