// Flow tokens: the alphabet task automata are built over.
//
// A token is a flow identity where endpoints may be generalized — ephemeral
// ports become wildcards, and (in masked mode, paper SectionV-B2) the
// task's subject hosts become positional variables #1, #2, ... so an
// automaton learned on one VM matches the same task on any VM.
#pragma once

#include <compare>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "openflow/flow_key.h"

namespace flowdiff::core {

/// Ports at or above this are ephemeral: tokens wildcard them and the task
/// detector lets a wildcard match only them.
inline constexpr std::uint16_t kEphemeralFloor = 10000;

struct TokenEndpoint {
  enum class Kind : std::uint8_t { kLiteral, kVariable };
  Kind kind = Kind::kLiteral;
  Ipv4 ip;                ///< kLiteral only.
  int var = 0;            ///< kVariable only: 0-based subject index.
  bool port_any = false;  ///< Ephemeral port, matches anything.
  std::uint16_t port = 0;

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const TokenEndpoint&,
                                    const TokenEndpoint&) = default;
};

struct FlowToken {
  TokenEndpoint src;
  TokenEndpoint dst;
  of::Proto proto = of::Proto::kTcp;

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const FlowToken&,
                                    const FlowToken&) = default;
};

/// Turns concrete flow keys into tokens.
class FlowTokenizer {
 public:
  /// `mask_subjects`: replace non-service IPs with positional variables.
  /// Ports >= kEphemeralFloor are wildcarded.
  FlowTokenizer(bool mask_subjects, std::set<Ipv4> service_ips);

  /// Tokenizes one flow; `subjects` carries the per-log variable bindings
  /// (IP -> variable index, assigned in order of first appearance).
  [[nodiscard]] FlowToken tokenize(const of::FlowKey& key,
                                   std::map<Ipv4, int>& subjects) const;

  [[nodiscard]] bool masking() const { return mask_subjects_; }
  [[nodiscard]] const std::set<Ipv4>& services() const { return service_ips_; }

 private:
  [[nodiscard]] TokenEndpoint make_endpoint(Ipv4 ip, std::uint16_t port,
                                            std::map<Ipv4, int>& subjects) const;

  bool mask_subjects_;
  std::set<Ipv4> service_ips_;
};

}  // namespace flowdiff::core
