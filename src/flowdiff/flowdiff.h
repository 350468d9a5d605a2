// FlowDiff public facade.
//
//   FlowDiff fd(config);
//   auto baseline = fd.model(stable_log);     // known-good behavior
//   auto current = fd.model(suspect_log);
//   auto report = fd.diff(baseline, current, learned_task_automata);
//   std::cout << report.render();
//
// The report splits the changes into known (task-explained), unknown and
// suppressed ones, classifies the likely problem type via the dependency
// matrix, and ranks the implicated components. Every tolerance is a
// constant; the one domain input is the service set,
// config.model.special_nodes, read by modeling, detection and validation.
#pragma once

#include <string>
#include <vector>

#include "flowdiff/diagnosis.h"
#include "flowdiff/diff.h"
#include "flowdiff/incremental_model.h"
#include "flowdiff/model.h"
#include "flowdiff/task_automaton.h"
#include "flowdiff/task_mining.h"

namespace flowdiff::core {

struct FlowDiffConfig {
  ModelConfig model;
};

/// Every change the diff found sits in exactly one of known, unknown and
/// suppressed.
struct DiffReport {
  std::vector<Change> known;                ///< Task-explained changes.
  std::vector<std::string> known_explanations;
  std::vector<Change> unknown;              ///< Needs operator attention.
  /// Unknown changes withheld from diagnosis because the capture stream
  /// was too corrupted for their signature family (confidence low); only
  /// ever non-empty in degraded mode.
  std::vector<Change> suppressed;
  std::vector<TaskOccurrence> detected_tasks;
  DependencyMatrix matrix;
  std::vector<ProblemScore> problems;       ///< Best first.
  std::vector<std::pair<std::string, int>> component_ranking;
  /// Stream quality of the window diffed (all-zero when no sanitizer ran).
  ingest::StreamQuality quality;

  [[nodiscard]] bool clean() const { return unknown.empty(); }
  /// Number of changes the diff found.
  [[nodiscard]] std::size_t change_count() const {
    return known.size() + unknown.size() + suppressed.size();
  }
  /// The capture stream showed hard corruption evidence; confidence
  /// grades and the suppressed list are meaningful.
  [[nodiscard]] bool degraded() const { return quality.degraded(); }
  [[nodiscard]] std::string render() const;
};

class FlowDiff {
 public:
  explicit FlowDiff(FlowDiffConfig config);

  /// Builds a behavior model from a control log: feeds the time-sorted
  /// events through the incremental modeler and finalizes, which is
  /// bit-identical to the from-scratch Modeler::build. Events with a
  /// negative timestamp are dropped first; `rejected`, when given,
  /// receives their count.
  [[nodiscard]] BehaviorModel model(const of::ControlLog& log,
                                    std::uint64_t* rejected = nullptr) const;

  /// Diffs `current` against `baseline`; task automata (if given) are
  /// matched against the current log's flow starts to validate changes.
  /// When `quality` is given (the ingest sanitizer's record for the
  /// current window) and shows degradation, every change is confidence-
  /// graded against its family's corruption tolerance and low-confidence
  /// unknowns are moved to DiffReport::suppressed before diagnosis, so
  /// alarms are not raised from signature families the capture stream can
  /// no longer support.
  [[nodiscard]] DiffReport diff(
      const BehaviorModel& baseline, const BehaviorModel& current,
      const std::vector<TaskAutomaton>& tasks = {},
      const ingest::StreamQuality* quality = nullptr) const;

  /// Convenience: learn a task automaton with the facade's service set.
  [[nodiscard]] MinedTask learn_task(
      const std::string& name, const std::vector<of::FlowSequence>& runs,
      bool mask_subjects) const;

  /// The from-scratch modeler (the oracle; see Modeler): only the
  /// monitor's oracle mode and the identity tests run it.
  [[nodiscard]] const Modeler& modeler() const { return modeler_; }
  /// The one delta-maintained modeler, on the Modeler's config; model()
  /// and every SlidingMonitor built on this facade use it.
  [[nodiscard]] const IncrementalModeler& incremental_modeler() const {
    return incremental_;
  }

 private:
  FlowDiffConfig config_;
  /// Detection settings: the service set, other fields at their defaults.
  DetectorConfig detector_;
  Modeler modeler_;
  IncrementalModeler incremental_;
};

}  // namespace flowdiff::core
