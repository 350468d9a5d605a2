// Exporters for the observability snapshot.
//
// Three formats, one Snapshot:
//  - render_table: aligned human-readable sections (util/table), what the
//    CLI prints for a bare --stats;
//  - render_json: a flat machine-readable object; parse_json() inverts it
//    exactly (the obs tests round-trip through it);
//  - render_prometheus: Prometheus text exposition (counters, gauges,
//    cumulative histogram buckets, span summaries) for scraping.
#pragma once

#include <optional>
#include <string>
#include <string_view>

#include "obs/metrics.h"

namespace flowdiff::obs {

/// Registry metrics plus span aggregates in one coherent Snapshot.
[[nodiscard]] Snapshot snapshot();

/// Refreshes the process-level gauges in the global registry —
/// process.uptime_s, process.peak_rss_bytes, process.open_fds — so a
/// /metrics scrape (or a --stats dump) is operationally useful without any
/// pipeline-specific instrumentation. No-op (and the gauges stay
/// unregistered) while obs is disabled.
void update_process_gauges();

/// Shortest decimal form that re-parses to the same double, preferring
/// plain fixed notation over scientific when no longer ("10", not "1e+01").
/// Every JSON number the obs exporters and provenance records write goes
/// through it, so they round-trip losslessly.
[[nodiscard]] std::string json_number(double v);

/// `text` as a quoted JSON string: quote and backslash escaped, \n \r \t
/// by name, other bytes below 0x20 as \u00XX, every other byte verbatim.
/// Every JSON string the obs exporters, the telemetry plane and provenance
/// records write goes through it.
[[nodiscard]] std::string json_string(std::string_view text);

/// Reads the JSON string literal that starts at `text[pos]` (its opening
/// quote) and moves `pos` past the closing quote. Decodes what json_string
/// writes: \" \\ \n \r \t, and \u00XX below 0x80; any other escaped byte
/// stands for itself. Nullopt on an unterminated string or a \u escape
/// outside that range. The obs, telemetry and provenance parsers share it.
[[nodiscard]] std::optional<std::string> parse_json_string(
    std::string_view text, std::size_t& pos);

/// Forward cursor over JSON text: the one reader behind parse_json,
/// parse_series_json and parse_provenance_json. Every call skips
/// whitespace (std::isspace) before its token and advances past what it
/// consumed; a failed call leaves `pos` somewhere inside the bad token.
struct JsonCursor {
  std::string_view s;
  std::size_t pos = 0;

  void ws();
  /// Consumes `c`; false if the next token is something else.
  bool eat(char c);
  /// True if the next token starts with `c` (consumes only whitespace).
  bool peek(char c);
  std::optional<std::string> string();
  std::optional<double> number();
  std::optional<bool> boolean();
};

[[nodiscard]] std::string render_table(const Snapshot& snap);
[[nodiscard]] std::string render_json(const Snapshot& snap);
/// Metric names are sanitized (non-alphanumerics -> '_') and prefixed,
/// e.g. "ctrl.packet_in" -> "flowdiff_ctrl_packet_in".
[[nodiscard]] std::string render_prometheus(
    const Snapshot& snap, std::string_view prefix = "flowdiff");

/// Inverse of render_json; nullopt on malformed input.
[[nodiscard]] std::optional<Snapshot> parse_json(std::string_view text);

}  // namespace flowdiff::obs
