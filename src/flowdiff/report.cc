#include "flowdiff/report.h"

#include <algorithm>
#include <set>

#include "flowdiff/diagnosis.h"
#include "util/table.h"

namespace flowdiff::core {

namespace {

std::string html_escape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (const char c : text) {
    switch (c) {
      case '&':
        out += "&amp;";
        break;
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// One document, two syntaxes: every section renders through this builder
/// so the Markdown and HTML reports cannot drift apart.
class ReportBuilder {
 public:
  explicit ReportBuilder(bool html) : html_(html) {}

  void heading(int level, const std::string& text) {
    if (html_) {
      const std::string tag = "h" + std::to_string(level);
      out_ += "<" + tag + ">" + html_escape(text) + "</" + tag + ">\n";
    } else {
      out_ += std::string(static_cast<std::size_t>(level), '#') + " " + text +
              "\n\n";
    }
  }

  void para(const std::string& text) {
    if (html_) {
      out_ += "<p>" + html_escape(text) + "</p>\n";
    } else {
      out_ += text + "\n\n";
    }
  }

  void bullets(const std::vector<std::string>& items) {
    if (html_) {
      out_ += "<ul>\n";
      for (const auto& item : items) {
        out_ += "  <li>" + html_escape(item) + "</li>\n";
      }
      out_ += "</ul>\n";
    } else {
      for (const auto& item : items) out_ += "- " + item + "\n";
      out_ += '\n';
    }
  }

  void table(const std::vector<std::string>& header,
             const std::vector<std::vector<std::string>>& rows) {
    if (html_) {
      out_ += "<table>\n  <tr>";
      for (const auto& cell : header) {
        out_ += "<th>" + html_escape(cell) + "</th>";
      }
      out_ += "</tr>\n";
      for (const auto& row : rows) {
        out_ += "  <tr>";
        for (const auto& cell : row) {
          out_ += "<td>" + html_escape(cell) + "</td>";
        }
        out_ += "</tr>\n";
      }
      out_ += "</table>\n";
    } else {
      const auto line = [this](const std::vector<std::string>& cells) {
        out_ += '|';
        for (const auto& cell : cells) out_ += ' ' + cell + " |";
        out_ += '\n';
      };
      line(header);
      std::vector<std::string> rule(header.size(), "---");
      line(rule);
      for (const auto& row : rows) line(row);
      out_ += '\n';
    }
  }

  void code(const std::string& text) {
    if (html_) {
      out_ += "<pre>" + html_escape(text) + "</pre>\n";
    } else {
      out_ += "```\n" + text;
      if (!text.empty() && text.back() != '\n') out_ += '\n';
      out_ += "```\n\n";
    }
  }

  void open_document(const std::string& title) {
    if (html_) {
      out_ += "<!DOCTYPE html>\n<html>\n<head><meta charset=\"utf-8\">"
              "<title>" +
              html_escape(title) + "</title></head>\n<body>\n";
    }
  }

  void close_document() {
    if (html_) out_ += "</body>\n</html>\n";
  }

  [[nodiscard]] std::string take() { return std::move(out_); }

 private:
  bool html_;
  std::string out_;
};

std::string window_label(SimTime begin, SimTime end) {
  return "[" + fmt_double(to_seconds(begin), 1) + "s, " +
         fmt_double(to_seconds(end), 1) + "s)";
}

/// Unicode sparkline over the bucket means, scaled to the series range.
std::string sparkline(const std::vector<obs::SeriesPoint>& points) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄",
                                  "▅", "▆", "▇", "█"};
  if (points.empty()) return "";
  double lo = points.front().mean;
  double hi = lo;
  for (const auto& p : points) {
    lo = std::min(lo, p.mean);
    hi = std::max(hi, p.mean);
  }
  std::string out;
  for (const auto& p : points) {
    const double norm = hi > lo ? (p.mean - lo) / (hi - lo) : 0.0;
    const int level =
        std::clamp(static_cast<int>(norm * 7.0 + 0.5), 0, 7);
    out += kLevels[level];
  }
  return out;
}

/// Evenly subsamples `points` down to at most `max_rows` (first and last
/// always kept).
std::vector<obs::SeriesPoint> subsample(
    std::vector<obs::SeriesPoint> points, std::size_t max_rows) {
  if (max_rows < 2 || points.size() <= max_rows) return points;
  std::vector<obs::SeriesPoint> out;
  out.reserve(max_rows);
  const double step = static_cast<double>(points.size() - 1) /
                      static_cast<double>(max_rows - 1);
  std::size_t last_index = points.size();
  for (std::size_t i = 0; i < max_rows; ++i) {
    const auto index = static_cast<std::size_t>(
        static_cast<double>(i) * step + 0.5);
    if (index == last_index) continue;
    last_index = index;
    out.push_back(points[std::min(index, points.size() - 1)]);
  }
  return out;
}

/// The series an operator reads first, in display order; everything else
/// follows alphabetically until the section cap.
const std::vector<std::string>& priority_series() {
  static const std::vector<std::string> kPriority = {
      "sim.queue.depth",
      "ctrl.service_time_us.p99",
      "monitor.window_ms.mean",
      "monitor.events.rate",
      "monitor.windows",
      "monitor.alarms",
  };
  return kPriority;
}

}  // namespace

std::string render_run_report(const MonitorSnapshot& snap,
                              const obs::Sampler& sampler,
                              const obs::FlightRecorder& recorder,
                              bool html) {
  constexpr const char* kTitle = "FlowDiff run report";
  constexpr std::size_t kMaxSeries = 12;
  constexpr std::size_t kMaxRowsPerSeries = 12;
  constexpr std::size_t kRecorderTail = 40;
  ReportBuilder doc(html);
  doc.open_document(kTitle);
  doc.heading(1, kTitle);

  // --- Summary -------------------------------------------------------------
  const auto warnings = recorder.events(obs::Severity::kWarn);
  doc.heading(2, "Summary");
  std::vector<std::string> summary;
  summary.push_back("windows processed: " + std::to_string(snap.windows));
  if (snap.has_baseline) {
    summary.push_back("baseline captured at t=" +
                      fmt_double(to_seconds(snap.baseline_begin), 1) + "s");
  } else {
    summary.push_back("no baseline captured (empty stream)");
  }
  summary.push_back("alarms: " + std::to_string(snap.alarms));
  summary.push_back("audit records retained: " +
                    std::to_string(snap.audits.size()) + " (rotated out: " +
                    std::to_string(snap.audits_dropped) + ")");
  summary.push_back("metric samples taken: " +
                    std::to_string(sampler.samples_taken()));
  summary.push_back("flight-recorder events: " +
                    std::to_string(recorder.total()) + " (" +
                    std::to_string(warnings.size()) +
                    " warning(s) retained)");
  doc.bullets(summary);

  // --- Per-window timeline -------------------------------------------------
  doc.heading(2, "Per-window timeline");
  if (snap.audits.empty()) {
    doc.para("No windows were processed.");
  } else {
    if (snap.audits_dropped > 0) {
      doc.para("Oldest " + std::to_string(snap.audits_dropped) +
               " window(s) rotated out of the audit trail.");
    }
    // The quality column only appears once some window actually showed
    // corruption — a clean run's report stays byte-identical to one
    // produced without a sanitizer.
    bool any_degraded = false;
    for (const WindowAudit& audit : snap.audits) {
      any_degraded = any_degraded || audit.quality.degraded();
    }
    std::vector<std::vector<std::string>> rows;
    for (const WindowAudit& audit : snap.audits) {
      std::vector<std::string> row{
          std::to_string(audit.index),
          window_label(audit.window_begin, audit.window_end),
          std::to_string(audit.events),
          fmt_double(audit.wall_ms, 3),
          std::to_string(audit.changes),
          std::to_string(audit.known),
          std::to_string(audit.unknown)};
      if (any_degraded) {
        row.push_back(std::to_string(audit.suppressed));
        row.push_back(audit.quality.degraded()
                          ? "DEGRADED " + audit.quality.summary()
                          : "ok");
      }
      row.push_back(audit.decision);
      rows.push_back(std::move(row));
    }
    std::vector<std::string> header{"#",     "window", "events", "wall_ms",
                                    "chg",   "known",  "unk"};
    if (any_degraded) {
      header.push_back("supp");
      header.push_back("quality");
    }
    header.push_back("decision");
    doc.table(header, rows);
  }

  // --- Alarms and diagnosis ------------------------------------------------
  doc.heading(2, "Alarms");
  if (snap.alarms == 0) {
    doc.para("No alarms: every window matched the baseline or was "
             "explained by operator tasks.");
  } else {
    if (snap.alarms_dropped > 0) {
      doc.para("Oldest " + std::to_string(snap.alarms_dropped) +
               " alarm(s) rotated out with their provenance records.");
    }
    for (const auto& entry : snap.explained) {
      if (!entry->report) continue;
      const DiffReport& report = *entry->report;
      const ProvenanceRecord& rec = entry->provenance;
      doc.heading(3, "Alarm window " +
                         window_label(rec.window_begin, rec.window_end));
      std::string counts = std::to_string(report.unknown.size()) +
                           " unknown change(s), " +
                           std::to_string(report.known.size()) +
                           " task-explained.";
      if (report.degraded()) {
        counts += " Stream DEGRADED (" + report.quality.summary() + "); " +
                  std::to_string(report.suppressed.size()) +
                  " low-confidence change(s) suppressed.";
      }
      doc.para(counts);
      doc.code(render_diagnosis_summary(report.unknown));
      // Provenance: the same record /provenance and `flowdiff explain`
      // render, here with the detection-latency breakdown (the report
      // already exposes wall-clock fields via the audit table).
      doc.heading(4, "Why this alarm fired");
      doc.code(render_provenance_text(rec, /*with_latency=*/true));
    }
  }

  // --- Metric time series --------------------------------------------------
  doc.heading(2, "Metric time series");
  std::vector<std::string> selected;
  std::set<std::string> taken;
  for (const std::string& name : priority_series()) {
    if (selected.size() >= kMaxSeries) break;
    if (sampler.find(name).has_value() && taken.insert(name).second) {
      selected.push_back(name);
    }
  }
  for (const std::string& name : sampler.names()) {
    if (selected.size() >= kMaxSeries) break;
    if (taken.insert(name).second) selected.push_back(name);
  }
  if (selected.empty()) {
    doc.para("No series were sampled (run with observability enabled).");
  } else {
    const std::size_t total_series = sampler.names().size();
    if (total_series > selected.size()) {
      doc.para(std::to_string(selected.size()) + " of " +
               std::to_string(total_series) +
               " sampled series shown; --series=FILE exports them all.");
    }
    for (const std::string& name : selected) {
      const auto series = sampler.find(name);
      if (!series || series->empty()) continue;
      const auto points = series->points();
      doc.heading(3, name);
      doc.para("spark: " + sparkline(points) + "  (" +
               std::to_string(series->total()) + " sample(s), stride " +
               std::to_string(series->stride()) + ")");
      std::vector<std::vector<std::string>> rows;
      for (const auto& p : subsample(points, kMaxRowsPerSeries)) {
        rows.push_back({fmt_double(p.t_begin, 1), fmt_double(p.t_end, 1),
                        fmt_double(p.mean, 3), fmt_double(p.min, 3),
                        fmt_double(p.max, 3), std::to_string(p.count)});
      }
      doc.table({"t_begin", "t_end", "mean", "min", "max", "samples"}, rows);
    }
  }

  // --- Flight recorder -----------------------------------------------------
  doc.heading(2, "Flight recorder");
  if (recorder.total() == 0) {
    doc.para("No flight-recorder events.");
  } else {
    if (!warnings.empty()) {
      doc.heading(3, "Warnings");
      std::string warn_text;
      for (const auto& event : warnings) {
        warn_text += obs::render_flight_event(event);
        warn_text += '\n';
      }
      doc.code(warn_text);
    }
    doc.heading(3, "Event tail");
    doc.code(recorder.render(kRecorderTail));
  }

  doc.close_document();
  return doc.take();
}

}  // namespace flowdiff::core
