#include "flowdiff/flowdiff.h"

#include <algorithm>

#include "flowdiff/validate.h"
#include "obs/trace.h"
#include "util/table.h"

namespace flowdiff::core {

FlowDiff::FlowDiff(FlowDiffConfig config)
    : config_(std::move(config)),
      detector_{.service_ips = config_.model.special_nodes},
      modeler_(config_.model),
      incremental_(config_.model) {}

BehaviorModel FlowDiff::model(const of::ControlLog& log,
                              std::uint64_t* rejected) const {
  // Sorted, so the negative timestamps are a prefix.
  const auto& events = log.events();
  const auto first = std::partition_point(
      events.begin(), events.end(),
      [](const of::ControlEvent& event) { return event.ts < 0; });
  if (rejected != nullptr) {
    *rejected = static_cast<std::uint64_t>(first - events.begin());
  }
  IncrementalWindowState state;
  state.reserve(static_cast<std::size_t>(
      std::count_if(first, events.end(), [](const of::ControlEvent& event) {
        return std::holds_alternative<of::PacketIn>(event.msg);
      })));
  for (auto it = first; it != events.end(); ++it) {
    incremental_.feed(state, *it);
  }
  return incremental_.finalize(state);
}

DiffReport FlowDiff::diff(const BehaviorModel& baseline,
                          const BehaviorModel& current,
                          const std::vector<TaskAutomaton>& tasks,
                          const ingest::StreamQuality* quality) const {
  const obs::Span report_span("report");
  DiffReport report;
  if (quality != nullptr) report.quality = *quality;
  std::vector<Change> changes = diff_models(baseline, current);

  if (!tasks.empty()) {
    const obs::Span span("diff/tasks");
    report.detected_tasks =
        detect_tasks(tasks, detector_, current.flow_starts);
  }

  {
    const obs::Span span("diff/validate");
    ValidatedChanges validated =
        validate_changes(std::move(changes), report.detected_tasks,
                         config_.model.special_nodes);
    report.known = std::move(validated.known);
    report.known_explanations = std::move(validated.explanations);
    report.unknown = std::move(validated.unknown);
  }

  if (report.degraded()) {
    // Degraded mode: grade every change against its family's corruption
    // tolerance, then withhold low-confidence unknowns from diagnosis —
    // an FS shift measured over a 5%-corrupted stream is as likely an
    // artifact of the capture as of the data center.
    for (auto& change : report.known) {
      change.confidence = change_confidence(change.kind, report.quality);
    }
    std::vector<Change> trusted;
    trusted.reserve(report.unknown.size());
    for (auto& change : report.unknown) {
      change.confidence = change_confidence(change.kind, report.quality);
      auto& to = change.confidence == Confidence::kLow ? report.suppressed
                                                       : trusted;
      to.push_back(std::move(change));
    }
    report.unknown = std::move(trusted);
    static obs::Counter& suppressed =
        obs::Registry::global().counter("diff.changes.suppressed");
    suppressed.inc(report.suppressed.size());
  }

  static obs::Counter& known =
      obs::Registry::global().counter("diff.changes.known");
  static obs::Counter& unknown =
      obs::Registry::global().counter("diff.changes.unknown");
  known.inc(report.known.size());
  unknown.inc(report.unknown.size());

  {
    const obs::Span span("diff/diagnose");
    report.matrix = build_dependency_matrix(report.unknown);
    report.problems = classify(report.matrix, report.unknown);
    report.component_ranking = rank_components(report.unknown);
  }
  return report;
}

MinedTask FlowDiff::learn_task(const std::string& name,
                               const std::vector<of::FlowSequence>& runs,
                               bool mask_subjects) const {
  return mine_task(name, runs,
                   {.mask_subjects = mask_subjects,
                    .service_ips = config_.model.special_nodes,
                    .ephemeral_floor = detector_.ephemeral_floor});
}

std::string DiffReport::render() const {
  // Every degraded-mode addition below is gated on degraded() — hard
  // corruption evidence only — so a clean capture renders byte-identically
  // whether or not a sanitizer sat in front of the diff.
  std::string out;
  out += "=== FlowDiff report ===\n";
  out += "changes: " + std::to_string(change_count()) + " (known " +
         std::to_string(known.size()) + ", unknown " +
         std::to_string(unknown.size()) + ")\n";
  if (degraded()) {
    out += "stream quality: DEGRADED (" + quality.summary() + ")\n";
  }

  if (!detected_tasks.empty()) {
    out += "\ndetected operator tasks:\n";
    for (const auto& task : detected_tasks) {
      out += "  " + task.task + " @ " + std::to_string(to_seconds(task.begin)) +
             "s involving";
      for (const Ipv4 ip : task.involved) out += " " + ip.to_string();
      out += "\n";
    }
  }

  if (!known.empty()) {
    out += "\nknown changes (validated against operator tasks):\n";
    for (std::size_t i = 0; i < known.size(); ++i) {
      out += "  [" + std::string(to_string(known[i].kind)) + "] " +
             known[i].description + " -- " + known_explanations[i] + "\n";
    }
  }

  if (!unknown.empty()) {
    out += "\nUNKNOWN changes (debugging flags):\n";
    for (const auto& change : unknown) {
      out += "  [" + std::string(to_string(change.kind)) + "] " +
             change.description;
      if (degraded()) {
        out += " (confidence " +
               std::string(to_string(change.confidence)) + ")";
      }
      out += "\n";
    }
    out += "\ndependency matrix:\n" + matrix.render();
    if (!problems.empty()) {
      out += "\nlikely problem types:\n";
      for (const auto& p : problems) {
        out += "  " + std::string(to_string(p.cls)) + " (score " +
               std::to_string(p.score) + ")\n";
      }
    }
    if (!component_ranking.empty()) {
      out += "\nimplicated components:\n";
      std::size_t shown = 0;
      for (const auto& [label, count] : component_ranking) {
        out += "  " + label + " (" + std::to_string(count) + ")\n";
        if (++shown >= 8) break;
      }
    }
  } else {
    out += "\nno unknown changes: behavior matches the baseline.\n";
  }

  if (!suppressed.empty()) {
    out += "\nsuppressed changes (capture stream too corrupted for the "
           "family):\n";
    for (const auto& change : suppressed) {
      out += "  [" + std::string(to_string(change.kind)) + "] " +
             change.description + " (family tolerates " +
             fmt_double(corruption_tolerance(change.kind) * 100.0, 0) +
             "% corruption)\n";
    }
  }
  return out;
}

}  // namespace flowdiff::core
