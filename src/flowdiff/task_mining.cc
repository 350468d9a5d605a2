#include "flowdiff/task_mining.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

namespace flowdiff::core {

namespace {

/// True when `needle` occurs in `hay` as a contiguous subsequence.
bool contains_contiguous(const std::vector<FlowToken>& hay,
                         const std::vector<FlowToken>& needle) {
  if (needle.empty() || needle.size() > hay.size()) return false;
  return std::search(hay.begin(), hay.end(), needle.begin(), needle.end()) !=
         hay.end();
}

int support_of(const std::vector<std::vector<FlowToken>>& runs,
               const std::vector<FlowToken>& pattern) {
  int support = 0;
  for (const auto& run : runs) {
    if (contains_contiguous(run, pattern)) ++support;
  }
  return support;
}

}  // namespace

std::vector<FlowToken> common_tokens(
    const std::vector<std::vector<FlowToken>>& runs) {
  if (runs.empty()) return {};
  std::set<FlowToken> common(runs.front().begin(), runs.front().end());
  for (std::size_t i = 1; i < runs.size(); ++i) {
    std::set<FlowToken> here(runs[i].begin(), runs[i].end());
    std::set<FlowToken> both;
    std::set_intersection(common.begin(), common.end(), here.begin(),
                          here.end(), std::inserter(both, both.begin()));
    common = std::move(both);
  }
  return {common.begin(), common.end()};
}

std::vector<PatternWithSupport> frequent_contiguous_patterns(
    const std::vector<std::vector<FlowToken>>& runs, double min_sup) {
  std::vector<PatternWithSupport> out;
  if (runs.empty()) return out;
  const double threshold = min_sup * static_cast<double>(runs.size());

  // Level-wise: frequent patterns of length k seed candidates of k+1.
  // Candidates are taken from actual substrings, so the apriori property
  // (every substring of a frequent pattern is frequent) bounds the work.
  std::set<std::vector<FlowToken>> level;
  for (const auto& run : runs) {
    for (const auto& token : run) level.insert({token});
  }
  while (!level.empty()) {
    std::set<std::vector<FlowToken>> next;
    for (const auto& pattern : level) {
      const int support = support_of(runs, pattern);
      if (static_cast<double>(support) < threshold) continue;
      out.push_back(PatternWithSupport{pattern, support});
      // Extend by every token that follows an occurrence in some run.
      for (const auto& run : runs) {
        auto it = run.begin();
        while (true) {
          it = std::search(it, run.end(), pattern.begin(), pattern.end());
          if (it == run.end()) break;
          const auto after = it + static_cast<std::ptrdiff_t>(pattern.size());
          if (after != run.end()) {
            std::vector<FlowToken> extended = pattern;
            extended.push_back(*after);
            next.insert(std::move(extended));
          }
          ++it;
        }
      }
    }
    level = std::move(next);
  }
  return out;
}

std::vector<PatternWithSupport> closed_prune(
    std::vector<PatternWithSupport> patterns) {
  std::vector<PatternWithSupport> kept;
  for (const auto& p : patterns) {
    const bool subsumed = std::any_of(
        patterns.begin(), patterns.end(), [&p](const PatternWithSupport& q) {
          return q.tokens.size() > p.tokens.size() &&
                 q.support == p.support &&
                 contains_contiguous(q.tokens, p.tokens);
        });
    if (!subsumed) kept.push_back(p);
  }
  return kept;
}

TaskAutomaton build_automaton(
    const std::string& name,
    const std::vector<std::vector<FlowToken>>& runs,
    const std::vector<PatternWithSupport>& patterns) {
  TaskAutomaton automaton;
  automaton.name = name;

  // Segmentation preference: longer states first, then higher support,
  // then lexicographic for determinism.
  std::vector<PatternWithSupport> ordered = patterns;
  std::sort(ordered.begin(), ordered.end(),
            [](const PatternWithSupport& a, const PatternWithSupport& b) {
              if (a.tokens.size() != b.tokens.size()) {
                return a.tokens.size() > b.tokens.size();
              }
              if (a.support != b.support) return a.support > b.support;
              return a.tokens < b.tokens;
            });

  std::map<std::vector<FlowToken>, int> state_index;
  auto intern_state = [&](const std::vector<FlowToken>& tokens) {
    auto it = state_index.find(tokens);
    if (it != state_index.end()) return it->second;
    const int idx = static_cast<int>(automaton.states.size());
    automaton.states.push_back(tokens);
    automaton.transitions.emplace_back();
    state_index.emplace(tokens, idx);
    return idx;
  };

  for (const auto& run : runs) {
    std::vector<int> segments;
    std::size_t pos = 0;
    while (pos < run.size()) {
      int chosen = -1;
      for (const auto& candidate : ordered) {
        const auto& seq = candidate.tokens;
        if (pos + seq.size() > run.size()) continue;
        if (std::equal(seq.begin(), seq.end(), run.begin() +
                                                   static_cast<std::ptrdiff_t>(
                                                       pos))) {
          chosen = intern_state(seq);
          pos += seq.size();
          break;
        }
      }
      if (chosen == -1) {
        // Token not covered by any frequent pattern at this position (can
        // happen after closed pruning): fall back to a singleton state.
        chosen = intern_state({run[pos]});
        ++pos;
      }
      segments.push_back(chosen);
    }
    if (segments.empty()) continue;
    automaton.start_states.insert(segments.front());
    automaton.accept_states.insert(segments.back());
    for (std::size_t i = 0; i + 1 < segments.size(); ++i) {
      automaton
          .transitions[static_cast<std::size_t>(segments[i])]
          .insert(segments[i + 1]);
    }
  }
  return automaton;
}

MinedTask mine_task(const std::string& name,
                    const std::vector<of::FlowSequence>& runs,
                    const MiningConfig& config) {
  MinedTask mined;
  mined.name = name;

  const FlowTokenizer tokenizer(config.mask_subjects, config.service_ips);
  std::vector<std::vector<FlowToken>> token_runs;
  token_runs.reserve(runs.size());
  for (const auto& run : runs) {
    std::map<Ipv4, int> subjects;
    std::vector<FlowToken> tokens;
    tokens.reserve(run.size());
    for (const auto& tf : run) {
      tokens.push_back(tokenizer.tokenize(tf.key, subjects));
    }
    token_runs.push_back(std::move(tokens));
  }

  // Stage 1: common flows S(T).
  mined.common_flows = common_tokens(token_runs);
  const std::set<FlowToken> common_set(mined.common_flows.begin(),
                                       mined.common_flows.end());

  // Filter each run down to the common flows (T_i').
  for (auto& tokens : token_runs) {
    std::vector<FlowToken> filtered;
    filtered.reserve(tokens.size());
    for (auto& t : tokens) {
      if (common_set.contains(t)) filtered.push_back(std::move(t));
    }
    mined.filtered_runs.push_back(std::move(filtered));
  }

  // Stage 2: frequent contiguous patterns + closed pruning.
  mined.patterns = closed_prune(
      frequent_contiguous_patterns(mined.filtered_runs, config.min_sup));

  // Stage 3: automaton.
  mined.automaton =
      build_automaton(name, mined.filtered_runs, mined.patterns);
  return mined;
}

}  // namespace flowdiff::core
