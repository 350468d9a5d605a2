// Change validation (paper SectionIV-B): a detected change is "known" when
// a detected operator-task occurrence explains it — the task involves every
// changed component outside the service set and overlaps the change in
// time, within a fixed slack (a constant in validate.cc). Everything else
// is an "unknown" change and feeds the diagnosis stage.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "flowdiff/diff.h"
#include "flowdiff/task_automaton.h"

namespace flowdiff::core {

struct ValidatedChanges {
  std::vector<Change> known;
  std::vector<std::string> explanations;  ///< Parallel to `known`.
  std::vector<Change> unknown;
};

/// Moves `changes`, in order, into known and unknown. A task need not
/// involve the `service_ips` a change touches.
ValidatedChanges validate_changes(std::vector<Change> changes,
                                  const std::vector<TaskOccurrence>& tasks,
                                  const std::set<Ipv4>& service_ips);

}  // namespace flowdiff::core
