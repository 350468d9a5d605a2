// Task-signature mining (paper SectionIII-D, stages 1-3).
//
// From n captured runs of an operator task:
//   1. common flows  S(T) = intersection of the runs' flow(-token) sets;
//   2. state extraction: frequent contiguous token subsequences (support =
//      fraction of runs containing the subsequence, threshold min_sup),
//      reduced to *closed* patterns (a pattern subsumed by a longer one
//      with equal support is pruned);
//   3. automaton construction: each filtered run is segmented greedily into
//      states (longer patterns first, then higher support) and the segment
//      sequences define the transition structure.
#pragma once

#include <string>
#include <vector>

#include "flowdiff/flow_token.h"
#include "flowdiff/task_automaton.h"
#include "openflow/timed_flow.h"

namespace flowdiff::core {

struct MiningConfig {
  double min_sup = 0.6;
  bool mask_subjects = false;
  std::set<Ipv4> service_ips;
};

struct PatternWithSupport {
  std::vector<FlowToken> tokens;
  int support = 0;  ///< Number of runs containing the pattern.
};

struct MinedTask {
  std::string name;
  std::vector<FlowToken> common_flows;        ///< S(T).
  std::vector<PatternWithSupport> patterns;   ///< Closed frequent patterns.
  std::vector<std::vector<FlowToken>> filtered_runs;  ///< T_i'.
  TaskAutomaton automaton;
};

/// Full pipeline: runs -> tokens -> S(T) -> patterns -> automaton.
MinedTask mine_task(const std::string& name,
                    const std::vector<of::FlowSequence>& runs,
                    const MiningConfig& config);

// --- Stages exposed for tests (operate on token sequences) ----------------

/// Tokens present in every sequence.
std::vector<FlowToken> common_tokens(
    const std::vector<std::vector<FlowToken>>& runs);

/// All frequent contiguous patterns with their supports (level-wise growth,
/// stops at the first empty level).
std::vector<PatternWithSupport> frequent_contiguous_patterns(
    const std::vector<std::vector<FlowToken>>& runs, double min_sup);

/// Removes patterns subsumed by a longer pattern with equal support.
std::vector<PatternWithSupport> closed_prune(
    std::vector<PatternWithSupport> patterns);

/// Builds the automaton by greedy segmentation of the filtered runs.
TaskAutomaton build_automaton(const std::string& name,
                              const std::vector<std::vector<FlowToken>>& runs,
                              const std::vector<PatternWithSupport>& patterns);

}  // namespace flowdiff::core
