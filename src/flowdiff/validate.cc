#include "flowdiff/validate.h"

#include <algorithm>

namespace flowdiff::core {

namespace {

/// How far outside a task occurrence's span a change's first observation
/// may lie and still count as that task's footprint.
constexpr SimDuration kTimeSlack = 5 * kSecond;

/// Only structural changes can be the direct footprint of an operator task;
/// performance signatures (DD/PC/ISL/CRT) are never task-explained.
bool task_explainable(SignatureKind kind) {
  return kind == SignatureKind::kCg || kind == SignatureKind::kPt ||
         kind == SignatureKind::kCi || kind == SignatureKind::kFs;
}

bool explains(const TaskOccurrence& task, const Change& change,
              const std::set<Ipv4>& service_ips) {
  // Every non-service host the change touches must be involved in the task.
  for (const auto& component : change.components) {
    for (const Ipv4 ip : component.ips) {
      if (service_ips.contains(ip)) continue;
      if (std::find(task.involved.begin(), task.involved.end(), ip) ==
          task.involved.end()) {
        return false;
      }
    }
  }
  if (change.approx_time >= 0) {
    if (change.approx_time < task.begin - kTimeSlack ||
        change.approx_time > task.end + kTimeSlack) {
      return false;
    }
  }
  return true;
}

}  // namespace

ValidatedChanges validate_changes(std::vector<Change> changes,
                                  const std::vector<TaskOccurrence>& tasks,
                                  const std::set<Ipv4>& service_ips) {
  ValidatedChanges out;
  for (auto& change : changes) {
    const TaskOccurrence* match = nullptr;
    if (task_explainable(change.kind)) {
      for (const auto& task : tasks) {
        if (explains(task, change, service_ips)) {
          match = &task;
          break;
        }
      }
    }
    if (match != nullptr) {
      out.known.push_back(std::move(change));
      out.explanations.push_back("explained by task '" + match->task +
                                 "' at t=" +
                                 std::to_string(to_seconds(match->begin)) +
                                 "s");
    } else {
      out.unknown.push_back(std::move(change));
    }
  }
  return out;
}

}  // namespace flowdiff::core
