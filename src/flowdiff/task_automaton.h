// Task automaton: the compact representation of an operator task's flow
// sequences (paper SectionIII-D, stage 3).
//
// States are frequent flow-token subsequences; transitions follow the
// segmented training logs. Matching binds subject variables on the fly,
// skips interleaved unrelated flows, and gives up when no progress is made
// within the interleaving threshold (1 s in the paper).
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "flowdiff/flow_token.h"
#include "openflow/timed_flow.h"
#include "util/time.h"

namespace flowdiff::core {

struct TaskAutomaton {
  std::string name;
  std::vector<std::vector<FlowToken>> states;
  std::vector<std::set<int>> transitions;  ///< Successors per state.
  std::set<int> start_states;
  std::set<int> accept_states;

  [[nodiscard]] bool empty() const { return states.empty(); }
  [[nodiscard]] std::size_t state_count() const { return states.size(); }
  [[nodiscard]] std::string to_string() const;

  /// Stable text form (one automaton per blob); parse() inverts it.
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static std::optional<TaskAutomaton> parse(
      std::string_view text);

  friend bool operator==(const TaskAutomaton&, const TaskAutomaton&) = default;

  /// True when the token sequence is accepted exactly (no interleaving):
  /// it can be segmented into a start-to-accept walk. Training logs must
  /// all be accepted (paper: "all extracted logs can be precisely
  /// represented by the constructed automata").
  [[nodiscard]] bool accepts(const std::vector<FlowToken>& tokens) const;
};

struct TaskOccurrence {
  std::string task;
  SimTime begin = 0;
  SimTime end = 0;
  std::vector<Ipv4> involved;  ///< Bound subjects + touched services.
};

struct DetectorConfig {
  SimDuration interleave_threshold = kSecond;
  std::set<Ipv4> service_ips;
  std::size_t max_matchers_per_task = 256;
};

/// Online matching of task automata over a time-ordered flow-start
/// stream: returns the detected occurrences (the paper's task time
/// series), earliest first. Each call compiles the automata into flat
/// arrays and runs every matcher as a fixed-size binding record in two
/// swapped buffers, so matching allocates nothing per flow and the
/// automata are never copied.
[[nodiscard]] std::vector<TaskOccurrence> detect_tasks(
    const std::vector<TaskAutomaton>& automata, const DetectorConfig& config,
    const of::FlowSequence& flows);

}  // namespace flowdiff::core
