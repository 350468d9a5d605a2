// Alarm provenance: the structured causal record behind every monitor
// verdict.
//
// The paper's operators do not want an alarm bit — they want to know which
// signature families diverged, which flows drove the divergence, how
// trustworthy the capture stream was, and how long the pipeline took to
// notice (SectionI: diagnosis, not detection). A ProvenanceRecord captures
// exactly that for each window whose diff produced unknown or suppressed
// changes:
//
//   * per-family contribution scores with the top-K contributing flow
//     tokens / switch IDs, ranked by their share of the family's
//     divergence (a change's magnitude is split evenly across the
//     components it names, so shares within a family sum to <= 100%);
//   * the StreamQuality snapshot that graded the window and the
//     suppression / confidence verdict the monitor reached;
//   * a detection-latency breakdown over the monitor's stage clock edges:
//     newest-event arrival -> window close (sanitizer residence included)
//     -> pipeline dequeue -> model build -> diff -> alarm decision.
//
// Everything except the latency breakdown is a pure function of the
// DiffReport, so records are bit-identical across worker counts and
// modeling modes (monitor_identity_test pins this); the wall-clock latency
// fields are excluded from the deterministic transcript the same way
// WindowAudit::wall_ms is excluded from render_monitor_transcript.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "flowdiff/flowdiff.h"
#include "ingest/stream_quality.h"

namespace flowdiff::core {

/// One ranked contributor (flow token, switch ID, or "controller") to a
/// family's divergence.
struct ProvenanceContributor {
  std::string label;
  double weight = 0.0;  ///< Summed magnitude credited to this component.
  double share = 0.0;   ///< weight / family score, [0, 1].
};

/// One signature family's share of the window's divergence. Families with
/// unknown changes (the alarm drivers) and fully suppressed families (the
/// withheld evidence) get separate entries, flagged by `suppressed`.
struct FamilyContribution {
  SignatureKind kind = SignatureKind::kCg;
  bool suppressed = false;      ///< Entry covers suppressed changes only.
  std::size_t changes = 0;      ///< Changes of this family in the entry.
  double score = 0.0;           ///< Summed change magnitude.
  double share = 0.0;           ///< score / total over same-flag entries.
  /// Worst (least trusted) confidence grade among the entry's changes.
  Confidence confidence = Confidence::kHigh;
  /// Top-K contributors, ranked by share (desc), then label (asc).
  std::vector<ProvenanceContributor> top;
};

/// Wall-clock detection-latency breakdown, steady_clock edges (the same
/// clock obs::Span uses). Nondeterministic by nature: never part of golden
/// transcripts or the cross-worker identity contract.
struct StageLatency {
  double ingest_ms = 0.0;  ///< Newest-event arrival -> window close
                           ///< (sanitizer reorder-buffer residence
                           ///< included: with a sanitizer the close fires
                           ///< only once the watermark releases the event).
  double model_ms = 0.0;   ///< core::Modeler build of the window model.
  double diff_ms = 0.0;    ///< diff + validate + diagnose (FlowDiff::diff).
  double decide_ms = 0.0;  ///< Diff end -> verdict committed.
  double total_ms = 0.0;   ///< Newest-event arrival -> verdict committed.

  /// All stages stamped and consistent (each stage >= 0, total covers the
  /// sum). The golden-corpus test requires this of every record.
  [[nodiscard]] bool complete() const;
};

/// The provenance record: why this window alarmed (or why its evidence was
/// withheld), and how long each pipeline stage took to reach the verdict.
struct ProvenanceRecord {
  std::uint64_t id = 0;          ///< 1-based, in verdict order.
  std::size_t window_index = 0;  ///< WindowAudit::index of the window.
  SimTime window_begin = 0;
  SimTime window_end = 0;
  std::size_t events = 0;        ///< Control events modeled in the window.
  bool alarmed = false;          ///< False: all unknowns were suppressed.
  std::string verdict;           ///< The audit decision string, verbatim.
  std::size_t changes = 0;
  std::size_t known = 0;
  std::size_t unknown = 0;
  std::size_t suppressed = 0;
  std::vector<FamilyContribution> families;
  ingest::StreamQuality quality;
  StageLatency latency;
};

/// A window whose diff produced unknown or suppressed changes: the
/// provenance record explaining its verdict and, when it alarmed, its diff
/// report. The monitor commits each once, shared and immutable.
struct ExplainedWindow {
  ProvenanceRecord provenance;
  /// Engaged exactly when provenance.alarmed.
  std::optional<DiffReport> report;
};

/// Derives the deterministic part of a record from a diff report: family
/// contributions (unknown first, then suppressed; score desc, name asc),
/// top-K contributors per family, quality, and the change counts. Window
/// identity, verdict, and latency are the monitor's to fill.
[[nodiscard]] ProvenanceRecord build_provenance(const DiffReport& report,
                                                std::size_t top_k = 5);

/// Human-readable rendering, shared verbatim by the run report's "Why this
/// alarm fired" section, `flowdiff explain`, and the provenance golden
/// transcripts. `with_latency` appends the wall-clock stage breakdown and
/// must stay off for any byte-pinned output.
[[nodiscard]] std::string render_provenance_text(const ProvenanceRecord& rec,
                                                 bool with_latency);

/// One record as a JSON object (stable keys; includes the latency
/// breakdown). parse_provenance_json() inverts it losslessly.
[[nodiscard]] std::string render_provenance_json(const ProvenanceRecord& rec);

/// {"provenance_dropped": N, "records": [...]} — the /provenance route's
/// list form and the provenance.json artifact.
[[nodiscard]] std::string render_provenance_collection_json(
    std::span<const std::shared_ptr<const ExplainedWindow>> entries,
    std::uint64_t dropped);

/// Inverse of the collection (or a single record object wrapped in a
/// one-element result). nullopt on malformed input.
[[nodiscard]] std::optional<std::vector<ProvenanceRecord>>
parse_provenance_json(std::string_view text);

}  // namespace flowdiff::core
