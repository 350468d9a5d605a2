#include "flowdiff/diagnosis.h"

#include <algorithm>
#include <cstdio>
#include <initializer_list>
#include <map>
#include <utility>

namespace flowdiff::core {

namespace {

constexpr KindSet kinds(std::initializer_list<SignatureKind> members) {
  unsigned long long bits = 0;
  for (const SignatureKind k : members) bits |= 1ULL << static_cast<int>(k);
  return KindSet(bits);
}

using K = SignatureKind;

// The class table, indexed by ProblemClass: name and Fig. 2(b) profile.
constexpr std::array<ProblemClassInfo, kProblemClassCount> kClasses{{
    {"host failure", kinds({K::kCg, K::kPc, K::kCi, K::kFs, K::kDd})},
    {"host performance", kinds({K::kDd, K::kPc, K::kFs})},
    {"application failure", kinds({K::kCg, K::kPc, K::kCi, K::kFs})},
    {"application performance", kinds({K::kDd, K::kPc, K::kFs})},
    {"network disconnectivity",
     kinds({K::kCg, K::kPc, K::kCi, K::kFs, K::kPt})},
    {"network bottleneck / congestion",
     kinds({K::kDd, K::kPc, K::kFs, K::kIsl})},
    {"switch misconfiguration",
     kinds({K::kCg, K::kPc, K::kCi, K::kFs, K::kDd, K::kPt})},
    {"switch overhead", kinds({K::kDd, K::kPc, K::kFs, K::kIsl})},
    {"controller overhead", kinds({K::kDd, K::kPc, K::kFs, K::kCrt})},
    {"switch failure", kinds({K::kCg, K::kPc, K::kCi, K::kFs, K::kPt})},
    {"controller failure",
     kinds({K::kCg, K::kPc, K::kCi, K::kFs, K::kDd, K::kCrt})},
    {"unauthorized access", kinds({K::kCg, K::kCi, K::kFs})},
    // Adversarial families. Fingerprinting probes target service hosts
    // the app-group extractor excludes, so only infrastructure
    // signatures move; floods add CRT pressure on top of the
    // unauthorized-access shape; incast congests the aggregator's access
    // path, dragging DD (and ISL when workers cross the fabric) along
    // with the fan-in.
    {"controller fingerprinting (timing probes)", kinds({K::kCrt, K::kIsl})},
    {"volumetric packet-in flood",
     kinds({K::kCg, K::kCi, K::kFs, K::kCrt})},
    {"incast (many-to-one burst)",
     kinds({K::kCg, K::kCi, K::kFs, K::kDd, K::kIsl})},
}};

/// The Fig. 8 header of a dependency-matrix row (or column).
const char* slot_label(int row, int col) {
  for (std::size_t i = 0; i < kSignatureKindCount; ++i) {
    const SignatureFamily& f = signature_family(static_cast<SignatureKind>(i));
    if (f.matrix_row == row && f.matrix_col == col) return f.matrix_label;
  }
  return "?";
}

}  // namespace

const ProblemClassInfo& problem_class_info(ProblemClass cls) {
  return kClasses[static_cast<std::size_t>(cls)];
}

const char* to_string(ProblemClass cls) { return problem_class_info(cls).name; }

KindSet DependencyMatrix::changed_kinds() const {
  // Each changed slot is reported once, by the first family in the table
  // that occupies it (UTIL folds into ISL's column).
  std::array<bool, kMatrixRows> rows = app_changed;
  std::array<bool, kMatrixCols> cols = infra_changed;
  KindSet out;
  for (std::size_t i = 0; i < kSignatureKindCount; ++i) {
    const SignatureFamily& f = signature_family(static_cast<SignatureKind>(i));
    bool& slot =
        f.matrix_row >= 0 ? rows[static_cast<std::size_t>(f.matrix_row)]
                          : cols[static_cast<std::size_t>(f.matrix_col)];
    if (std::exchange(slot, false)) out.set(i);
  }
  return out;
}

std::string DependencyMatrix::render() const {
  std::string out = "    ";
  for (std::size_t c = 0; c < kMatrixCols; ++c) {
    out += "  ";
    out += slot_label(-1, static_cast<int>(c));
  }
  out += "\n";
  for (std::size_t r = 0; r < kMatrixRows; ++r) {
    out += "  ";
    out += slot_label(static_cast<int>(r), -1);
    out += "  ";
    for (std::size_t c = 0; c < kMatrixCols; ++c) {
      out += cells[r][c] ? "  1 " : "  0 ";
    }
    out += "\n";
  }
  return out;
}

DependencyMatrix build_dependency_matrix(const std::vector<Change>& unknown) {
  DependencyMatrix m;
  for (const auto& change : unknown) {
    const SignatureFamily& family = signature_family(change.kind);
    if (family.matrix_row >= 0) {
      m.app_changed[static_cast<std::size_t>(family.matrix_row)] = true;
    } else {
      m.infra_changed[static_cast<std::size_t>(family.matrix_col)] = true;
    }
  }
  // A_ij = 1 when application signature i and infrastructure signature j
  // both changed (the co-occurrence the paper keys problem types on).
  for (std::size_t r = 0; r < kMatrixRows; ++r) {
    for (std::size_t c = 0; c < kMatrixCols; ++c) {
      m.cells[r][c] = m.app_changed[r] && m.infra_changed[c];
    }
  }
  return m;
}

std::vector<ProblemScore> classify(const DependencyMatrix& matrix,
                                   const std::vector<Change>& unknown) {
  bool anything_added = false;
  bool anything_removed = false;
  bool switch_disappeared = false;
  bool crt_changed = false;
  bool dd_changed = false;
  // Fan-in of newly appeared connectivity: how many added CG edges share
  // their most popular endpoint. A lone intruder adds one edge; a botnet
  // flood or an incast worker pool converges many new edges on one victim.
  std::map<Ipv4, int> added_endpoints;
  for (const auto& change : unknown) {
    anything_added |= change.direction == ChangeDirection::kAdded;
    anything_removed |= change.direction == ChangeDirection::kRemoved;
    crt_changed |= change.kind == SignatureKind::kCrt;
    dd_changed |= change.kind == SignatureKind::kDd;
    if (change.kind == SignatureKind::kPt &&
        change.direction == ChangeDirection::kRemoved &&
        change.description.find("disappeared") != std::string::npos) {
      switch_disappeared = true;
    }
    if (change.kind == SignatureKind::kCg &&
        change.direction == ChangeDirection::kAdded) {
      for (const auto& component : change.components) {
        if (component.ips.size() != 2) continue;  // per-edge changes only
        for (const Ipv4 ip : component.ips) ++added_endpoints[ip];
      }
    }
  }
  int max_fan_in = 0;
  for (const auto& [ip, count] : added_endpoints) {
    max_fan_in = std::max(max_fan_in, count);
  }
  const bool fan_in = max_fan_in >= 4;
  auto ranked = classify(matrix);
  for (auto& score : ranked) {
    const bool implies_new_connectivity =
        score.cls == ProblemClass::kUnauthorizedAccess ||
        score.cls == ProblemClass::kVolumetricFlood ||
        score.cls == ProblemClass::kIncast;
    const bool implies_lost_connectivity =
        score.cls == ProblemClass::kHostFailure ||
        score.cls == ProblemClass::kAppFailure ||
        score.cls == ProblemClass::kNetworkDisconnectivity ||
        score.cls == ProblemClass::kSwitchFailure;
    if (implies_new_connectivity && !anything_added) score.score *= 0.2;
    if (implies_lost_connectivity && anything_added && !anything_removed) {
      score.score *= 0.5;
    }
    // A switch vanishing from control traffic is the fingerprint of a
    // switch failure; without it, prefer the alternatives.
    if (score.cls == ProblemClass::kSwitchFailure) {
      score.score *= switch_disappeared ? 1.2 : 0.6;
    }
    // A controller-response-time shift points squarely at the controller.
    if (crt_changed && (score.cls == ProblemClass::kControllerOverhead ||
                        score.cls == ProblemClass::kControllerFailure)) {
      score.score *= 1.2;
    }
    // Adversarial tells. Timing probes leave the application layer
    // untouched: infrastructure signatures move with nothing appearing or
    // disappearing. Fan-in separates the distributed attacks from a lone
    // unauthorized intruder, and CRT vs DD separates a control-plane flood
    // from a data-plane incast.
    if (score.cls == ProblemClass::kFingerprinting) {
      score.score *=
          crt_changed && !anything_added && !anything_removed ? 1.3 : 0.3;
    }
    if (score.cls == ProblemClass::kVolumetricFlood) {
      if (fan_in && crt_changed) {
        score.score *= 1.3;
      } else if (!fan_in) {
        score.score *= 0.5;
      }
    }
    if (score.cls == ProblemClass::kIncast) {
      if (fan_in && dd_changed) {
        score.score *= 1.3;
      } else if (!fan_in) {
        score.score *= 0.5;
      }
    }
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const ProblemScore& a, const ProblemScore& b) {
                     return a.score > b.score;
                   });
  return ranked;
}

std::vector<ProblemScore> classify(const DependencyMatrix& matrix) {
  const KindSet observed = matrix.changed_kinds();
  std::vector<ProblemScore> out;
  if (observed.none()) return out;
  for (std::size_t i = 0; i < kProblemClassCount; ++i) {
    const KindSet& profile = kClasses[i].profile;
    const std::size_t inter = (profile & observed).count();
    const std::size_t uni = (profile | observed).count();
    ProblemScore score;
    score.cls = static_cast<ProblemClass>(i);
    score.score = uni == 0 ? 0.0
                           : static_cast<double>(inter) /
                                 static_cast<double>(uni);
    if (score.score > 0.0) out.push_back(score);
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const ProblemScore& a, const ProblemScore& b) {
                     return a.score > b.score;
                   });
  return out;
}

std::vector<std::pair<std::string, int>> rank_components(
    const std::vector<Change>& unknown) {
  std::map<std::string, int> counts;
  for (const auto& change : unknown) {
    for (const auto& component : change.components) {
      // Count each endpoint and the component itself, so a host appearing
      // in many changed edges outranks any single edge.
      ++counts[component.label];
      for (const Ipv4 ip : component.ips) ++counts[ip.to_string()];
    }
  }
  std::vector<std::pair<std::string, int>> ranked(counts.begin(),
                                                  counts.end());
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     if (a.second != b.second) return a.second > b.second;
                     return a.first < b.first;
                   });
  return ranked;
}

std::string render_diagnosis_summary(const std::vector<Change>& unknown,
                                     std::size_t top_classes,
                                     std::size_t top_components) {
  if (unknown.empty()) return "no unknown changes: nothing to diagnose\n";
  const DependencyMatrix matrix = build_dependency_matrix(unknown);
  std::string out = matrix.render();
  const auto scores = classify(matrix, unknown);
  if (!scores.empty()) {
    out += "likely problem classes:\n";
    for (std::size_t i = 0; i < scores.size() && i < top_classes; ++i) {
      char line[96];
      std::snprintf(line, sizeof(line), "  %zu. %s (score %.2f)\n", i + 1,
                    to_string(scores[i].cls), scores[i].score);
      out += line;
    }
  }
  const auto components = rank_components(unknown);
  if (!components.empty()) {
    out += "most implicated components:\n";
    for (std::size_t i = 0; i < components.size() && i < top_components;
         ++i) {
      out += "  " + components[i].first + " (" +
             std::to_string(components[i].second) + " change(s))\n";
    }
  }
  return out;
}

}  // namespace flowdiff::core
