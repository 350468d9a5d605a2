// Signature diffing (paper SectionIV-A): compares two behavior models and
// emits a list of Changes, each tagged with the signature kind and the
// physical/logical components involved. Each family is judged by one fixed
// test (chi-squared for CI, peak shift and shape for DD, correlation delta
// for PC, mean shifts for FS/ISL/CRT/UTIL) whose cut-offs are constants
// next to the code in diff.cc; no caller tunes them.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "flowdiff/model.h"
#include "ingest/stream_quality.h"

namespace flowdiff::core {

enum class SignatureKind : std::uint8_t {
  kCg,   ///< Connectivity graph.
  kFs,   ///< Flow statistics.
  kCi,   ///< Component interaction.
  kDd,   ///< Delay distribution.
  kPc,   ///< Partial correlation.
  kPt,   ///< Physical topology.
  kIsl,  ///< Inter-switch latency.
  kCrt,  ///< Controller response time.
  kUtil, ///< Polled switch utilization (folds into the ISL column of the
         ///< dependency matrix: both are network-performance baselines).
};

inline constexpr std::size_t kSignatureKindCount =
    static_cast<std::size_t>(SignatureKind::kUtil) + 1;

/// Application rows and infrastructure columns of the dependency matrix
/// (paper Fig. 8).
inline constexpr std::size_t kMatrixRows = 5;
inline constexpr std::size_t kMatrixCols = 3;

/// Every per-family fact, stated once in the family table (diff.cc),
/// indexed by SignatureKind.
struct SignatureFamily {
  const char* name;  ///< Report, provenance and metric name ("CG", ...).
  /// Application families own a row of the dependency matrix,
  /// infrastructure families a column; the other index is -1.
  int matrix_row;
  int matrix_col;
  const char* matrix_label;  ///< That row's or column's Fig. 8 header.
  /// The effective corruption rate (measured + estimated capture loss)
  /// the family tolerates before its changes become untrustworthy.
  double corruption_tolerance;
  /// Whether an operator task can explain the family's changes.
  bool task_explainable;
};

[[nodiscard]] const SignatureFamily& signature_family(SignatureKind kind);
[[nodiscard]] const char* to_string(SignatureKind kind);

/// How much a change found over a degraded capture stream can be trusted.
/// Graded per signature family: a 5% event loss barely moves the
/// connectivity graph (every flow re-announces edges) but visibly skews
/// per-entry flow statistics.
enum class Confidence : std::uint8_t {
  kHigh,    ///< Clean stream, or corruption far below the family's tolerance.
  kMedium,  ///< Degraded stream but corruption within tolerance.
  kLow,     ///< Corruption beyond tolerance: the change may be an artifact.
};

[[nodiscard]] const char* to_string(Confidence confidence);

/// Grades a change of `kind` against the window's stream quality. A
/// non-degraded stream always yields kHigh, which keeps clean-log output
/// byte-identical to a sanitizer-less run.
[[nodiscard]] Confidence change_confidence(
    SignatureKind kind, const ingest::StreamQuality& quality);

struct ComponentRef {
  std::string label;
  std::vector<Ipv4> ips;  ///< Host endpoints involved (empty: switch-only).
};

/// For structural (CG/PT) changes: did something appear or disappear?
/// Diagnosis uses this to separate unauthorized access (new edges) from
/// failures (missing edges).
enum class ChangeDirection : std::uint8_t { kNone, kAdded, kRemoved };

struct Change {
  SignatureKind kind = SignatureKind::kCg;
  ChangeDirection direction = ChangeDirection::kNone;
  std::string description;
  double magnitude = 0.0;
  std::vector<ComponentRef> components;
  SimTime approx_time = -1;  ///< -1 when unknown.
  int group_index = -1;      ///< Baseline group, -1 for infra/new groups.
  /// Trust grade given the window's stream quality; kHigh unless the diff
  /// was handed a degraded StreamQuality record.
  Confidence confidence = Confidence::kHigh;
};


/// Diffs `current` against `baseline` (DESIGN.md section 7 lists the gates).
std::vector<Change> diff_models(const BehaviorModel& baseline,
                                const BehaviorModel& current);

}  // namespace flowdiff::core
