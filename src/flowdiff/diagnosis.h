// Diagnosis (paper SectionIV-C): builds the application x infrastructure
// dependency matrix from the unknown changes, matches it against the
// problem-class profiles of Fig. 2(b) / Fig. 8, and ranks the physical
// components most associated with the changes.
#pragma once

#include <array>
#include <bitset>
#include <string>
#include <utility>
#include <vector>

#include "flowdiff/diff.h"

namespace flowdiff::core {

enum class ProblemClass : std::uint8_t {
  kHostFailure,
  kHostPerformance,
  kAppFailure,
  kAppPerformance,
  kNetworkDisconnectivity,
  kNetworkBottleneck,
  kSwitchMisconfig,
  kSwitchOverhead,
  kControllerOverhead,
  kSwitchFailure,
  kControllerFailure,
  kUnauthorizedAccess,
  // Adversarial workload families beyond Fig. 2(b) (see EXPERIMENTS.md):
  // controller fingerprinting probes, volumetric PacketIn floods, and
  // many-to-one incast bursts.
  kFingerprinting,
  kVolumetricFlood,
  kIncast,
};

inline constexpr std::size_t kProblemClassCount =
    static_cast<std::size_t>(ProblemClass::kIncast) + 1;

/// A set of signature kinds, bit i standing for SignatureKind i.
using KindSet = std::bitset<kSignatureKindCount>;

/// Every per-class fact, stated once in the class table (diagnosis.cc),
/// indexed by ProblemClass: the twelve classes of Fig. 2(b) in paper
/// order, then the adversarial families.
struct ProblemClassInfo {
  const char* name;
  KindSet profile;  ///< Kinds that change under the class (Fig. 2(b)).
};

[[nodiscard]] const ProblemClassInfo& problem_class_info(ProblemClass cls);
[[nodiscard]] const char* to_string(ProblemClass cls);

struct DependencyMatrix {
  /// Rows and columns as laid out by the family table (SignatureFamily).
  std::array<std::array<bool, kMatrixCols>, kMatrixRows> cells{};
  std::array<bool, kMatrixRows> app_changed{};
  std::array<bool, kMatrixCols> infra_changed{};

  /// The family heading each changed row and column.
  [[nodiscard]] KindSet changed_kinds() const;
  [[nodiscard]] std::string render() const;
};

DependencyMatrix build_dependency_matrix(const std::vector<Change>& unknown);

struct ProblemScore {
  ProblemClass cls;
  double score = 0.0;  ///< Jaccard similarity to the profile, [0, 1].
};

/// Candidate problem classes, best first. Empty when nothing changed.
std::vector<ProblemScore> classify(const DependencyMatrix& matrix);

/// Classification refined with the changes themselves: classes implying
/// *new* connectivity (unauthorized access, flood, incast) are discounted
/// when nothing appeared, failure/disconnection classes are discounted when
/// nothing disappeared, and the adversarial families are boosted or
/// discounted on their structural tells (fan-in of added edges, CRT shift
/// with or without application change).
std::vector<ProblemScore> classify(const DependencyMatrix& matrix,
                                   const std::vector<Change>& unknown);

/// Components ranked by how many unknown changes they are associated with
/// (paper: higher rank = more likely related to the problem).
std::vector<std::pair<std::string, int>> rank_components(
    const std::vector<Change>& unknown);

/// Compact multi-line text summary of a full diagnosis pass over `unknown`:
/// the dependency matrix, the top-scored problem classes, and the
/// most-implicated components. Shared by the CLI and `flowdiff report`.
[[nodiscard]] std::string render_diagnosis_summary(
    const std::vector<Change>& unknown, std::size_t top_classes = 3,
    std::size_t top_components = 5);

}  // namespace flowdiff::core
