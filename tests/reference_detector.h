// Reference implementation of the online task detector: the map-based
// matcher that task detection ran before the flat matcher, kept only
// as the differential oracle for task_detector_oracle_test. Every matcher
// carries its own std::map of variable bindings and std::sets of bound and
// touched hosts, and every token trial works on a full copy of the matcher
// that is committed only when the whole token matches. Slow but obviously
// right; the production detector must return the same occurrences in the
// same order and add the same totals to every task.* counter.
//
// The logic is the production code as it stood before the flat matcher,
// except that the task.* counts go into a ReferenceCounts instead of the
// obs registry (so running both side by side cannot disturb the counters
// the production detector owns). Token-less states are outside its
// contract: TaskAutomaton::parse rejects them and the miner never emits
// them.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

#include "flowdiff/task_automaton.h"
#include "openflow/timed_flow.h"

namespace flowdiff::core::reference {

/// What the production detector adds to task.* over one detect call.
struct ReferenceCounts {
  std::uint64_t flows_scanned = 0;
  std::uint64_t transitions_evaluated = 0;
  std::uint64_t matchers_spawned = 0;
  std::uint64_t matchers_expired = 0;
  std::uint64_t occurrences_accepted = 0;
  std::uint64_t occurrences_deduped = 0;

  friend bool operator==(const ReferenceCounts&,
                         const ReferenceCounts&) = default;
};

namespace detail {

struct Matcher {
  int automaton = 0;
  int state = 0;
  std::size_t offset = 0;  ///< Next token to match within the state.
  std::map<int, Ipv4> bindings;
  std::set<std::uint32_t> bound_ips;  ///< Injectivity of subject bindings.
  SimTime begin = 0;
  SimTime last_progress = 0;
  std::set<Ipv4> involved;
};

/// Matches one endpoint of a pattern token against a concrete endpoint,
/// updating the matcher's bindings on success. The caller works on a copy
/// and commits only if the whole token matches.
inline bool match_endpoint(const TokenEndpoint& pattern, Ipv4 ip,
                           std::uint16_t port, Matcher& m,
                           const DetectorConfig& config) {
  if (pattern.port_any) {
    if (port < config.ephemeral_floor) return false;
  } else if (pattern.port != port) {
    return false;
  }
  if (pattern.kind == TokenEndpoint::Kind::kLiteral) {
    return pattern.ip == ip;
  }
  // Subject variables only bind to non-service hosts, injectively.
  if (config.service_ips.contains(ip)) return false;
  auto it = m.bindings.find(pattern.var);
  if (it != m.bindings.end()) return it->second == ip;
  if (m.bound_ips.contains(ip.raw())) return false;
  m.bindings.emplace(pattern.var, ip);
  m.bound_ips.insert(ip.raw());
  return true;
}

inline bool match_token(const FlowToken& pattern, const of::FlowKey& key,
                        Matcher& m, const DetectorConfig& config,
                        ReferenceCounts& counts) {
  ++counts.transitions_evaluated;
  if (pattern.proto != key.proto) return false;
  Matcher trial = m;
  if (!match_endpoint(pattern.src, key.src_ip, key.src_port, trial, config) ||
      !match_endpoint(pattern.dst, key.dst_ip, key.dst_port, trial, config)) {
    return false;
  }
  m = std::move(trial);
  return true;
}

}  // namespace detail

inline std::vector<TaskOccurrence> detect(
    const std::vector<TaskAutomaton>& automata, const DetectorConfig& config,
    const of::FlowSequence& flows, ReferenceCounts& counts) {
  using detail::Matcher;
  std::vector<TaskOccurrence> occurrences;
  std::vector<Matcher> active;
  std::vector<std::size_t> active_per_task(automata.size(), 0);

  // Consumes a matcher whose current state just completed: either records
  // an occurrence (accept state) or branches into the state's successors.
  auto on_state_complete = [&](Matcher m, SimTime ts,
                               std::vector<Matcher>& out) {
    const auto& automaton = automata[static_cast<std::size_t>(m.automaton)];
    if (automaton.accept_states.contains(m.state)) {
      TaskOccurrence occ;
      occ.task = automaton.name;
      occ.begin = m.begin;
      occ.end = ts;
      occ.involved.assign(m.involved.begin(), m.involved.end());
      occurrences.push_back(std::move(occ));
      ++counts.occurrences_accepted;
      return;
    }
    for (int succ :
         automaton.transitions[static_cast<std::size_t>(m.state)]) {
      Matcher branch = m;
      branch.state = succ;
      branch.offset = 0;
      out.push_back(std::move(branch));
    }
  };

  for (const auto& flow : flows) {
    ++counts.flows_scanned;
    // Age out matchers that made no progress within the threshold.
    std::erase_if(active, [&](const Matcher& m) {
      if (flow.ts - m.last_progress <= config.interleave_threshold) {
        return false;
      }
      --active_per_task[static_cast<std::size_t>(m.automaton)];
      ++counts.matchers_expired;
      return true;
    });

    std::vector<Matcher> next_active;
    next_active.reserve(active.size() + 4);
    for (auto& m : active) {
      const auto& automaton = automata[static_cast<std::size_t>(m.automaton)];
      const auto& seq = automaton.states[static_cast<std::size_t>(m.state)];
      Matcher advanced = m;
      if (detail::match_token(seq[advanced.offset], flow.key, advanced,
                              config, counts)) {
        --active_per_task[static_cast<std::size_t>(m.automaton)];
        advanced.last_progress = flow.ts;
        advanced.involved.insert(flow.key.src_ip);
        advanced.involved.insert(flow.key.dst_ip);
        ++advanced.offset;
        if (advanced.offset == seq.size()) {
          std::vector<Matcher> branches;
          on_state_complete(std::move(advanced), flow.ts, branches);
          for (auto& b : branches) {
            ++active_per_task[static_cast<std::size_t>(b.automaton)];
            next_active.push_back(std::move(b));
          }
        } else {
          ++active_per_task[static_cast<std::size_t>(advanced.automaton)];
          next_active.push_back(std::move(advanced));
        }
      } else {
        // Interleaved unrelated flow: the matcher waits (until timeout).
        next_active.push_back(std::move(m));
      }
    }
    active = std::move(next_active);

    // Spawn fresh matchers at any automaton whose start state opens with
    // this flow.
    for (std::size_t a = 0; a < automata.size(); ++a) {
      if (active_per_task[a] >= config.max_matchers_per_task) continue;
      const auto& automaton = automata[a];
      for (int s : automaton.start_states) {
        const auto& seq = automaton.states[static_cast<std::size_t>(s)];
        if (seq.empty()) continue;
        Matcher fresh;
        fresh.automaton = static_cast<int>(a);
        fresh.state = s;
        fresh.offset = 0;
        fresh.begin = flow.ts;
        fresh.last_progress = flow.ts;
        if (!detail::match_token(seq[0], flow.key, fresh, config, counts)) {
          continue;
        }
        ++counts.matchers_spawned;
        fresh.involved.insert(flow.key.src_ip);
        fresh.involved.insert(flow.key.dst_ip);
        fresh.offset = 1;
        if (fresh.offset == seq.size()) {
          std::vector<Matcher> branches;
          on_state_complete(std::move(fresh), flow.ts, branches);
          for (auto& b : branches) {
            ++active_per_task[a];
            active.push_back(std::move(b));
          }
        } else {
          ++active_per_task[a];
          active.push_back(std::move(fresh));
        }
        if (active_per_task[a] >= config.max_matchers_per_task) break;
      }
    }
  }

  // De-duplicate: overlapping detections of the same task with the same
  // involved hosts collapse to the earliest.
  std::sort(occurrences.begin(), occurrences.end(),
            [](const TaskOccurrence& a, const TaskOccurrence& b) {
              return a.begin < b.begin;
            });
  std::vector<TaskOccurrence> deduped;
  for (auto& occ : occurrences) {
    const bool duplicate = std::any_of(
        deduped.begin(), deduped.end(), [&occ](const TaskOccurrence& kept) {
          return kept.task == occ.task && occ.begin <= kept.end &&
                 kept.involved == occ.involved;
        });
    if (!duplicate) deduped.push_back(std::move(occ));
  }
  counts.occurrences_deduped += occurrences.size() - deduped.size();
  return deduped;
}

}  // namespace flowdiff::core::reference
