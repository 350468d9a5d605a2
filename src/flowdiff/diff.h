// Signature diffing (paper SectionIV-A): compares two behavior models and
// emits a list of Changes, each tagged with the signature kind and the
// physical/logical components involved. Each family is judged by one fixed
// test (chi-squared for CI, peak shift and shape for DD, correlation delta
// for PC, mean shifts for FS/ISL/CRT/UTIL) whose cut-offs are constants
// next to the code in diff.cc; no caller tunes them.
#pragma once

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

[[nodiscard]] const char* to_string(SignatureKind kind);
[[nodiscard]] bool is_infra(SignatureKind kind);

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

/// The effective corruption rate (measured + estimated capture loss) this
/// signature family tolerates before changes in it become untrustworthy.
/// Counter-based families (FS, Util) are the most fragile; redundant
/// structural families (CG, PT) the most robust.
[[nodiscard]] double corruption_tolerance(SignatureKind kind);

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
