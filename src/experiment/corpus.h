// Golden-trace regression corpus: self-describing capture files whose
// monitor transcripts are committed alongside them.
//
// A corpus case is one control-log file with a `# corpus ...` header line
// encoding the replay options (window length, whether the ingest
// sanitizer is on, the deployment's service IPs), followed by ordinary
// log_io event lines *in arrival order* — corrupted captures keep their
// deliberate disorder across the disk round-trip. Replaying a case feeds
// the events through a SlidingMonitor built from the header and renders
// the deterministic transcript (render_monitor_transcript); the
// regression test byte-compares that text against the committed
// `.golden` file, so any drift in modeling, diffing, diagnosis wording,
// sanitizer behavior, or report rendering is caught as a one-line diff.
//
// tools/gen_corpus.cc regenerates the committed cases when a change is
// intentional.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "flowdiff/monitor_options.h"
#include "openflow/control_log.h"

namespace flowdiff::exp {

/// One parsed corpus file: the monitor options its header encodes plus
/// the capture's events in file (arrival) order.
struct CorpusCase {
  core::MonitorOptions options;
  std::vector<of::ControlEvent> events;
};

/// The `# corpus ...` header line (with trailing newline) describing how
/// to replay a capture: window and lateness horizon in microseconds (the
/// horizon the options lower to, so the SanitizerConfig default when
/// unset, sanitized or not), sanitize and rolling flags, and the
/// comma-separated service IPs.
[[nodiscard]] std::string corpus_header(const core::MonitorOptions& options);

/// Serializes a full corpus case: header + events in the order given.
[[nodiscard]] std::string serialize_corpus_case(
    const core::MonitorOptions& options,
    const std::vector<of::ControlEvent>& events);

/// Parses a corpus file; nullopt if the header is missing or malformed,
/// encodes options MonitorOptions::validate() rejects, or any event line
/// fails to parse. A `lateness_us` equal to the SanitizerConfig default
/// reads as unset (what corpus_header writes for unset); any other value
/// sets MonitorOptions::lateness, so validate() rejects it without
/// `sanitize=1` and when it is not shorter than the window.
[[nodiscard]] std::optional<CorpusCase> parse_corpus_case(
    std::string_view text);

/// Replays a case through a SlidingMonitor (feed in arrival order, then
/// flush) and returns the deterministic transcript the golden files pin.
[[nodiscard]] std::string replay_corpus_case(const CorpusCase& corpus_case);

/// Same replay, but renders the provenance transcript
/// (render_provenance_transcript, latency lines omitted) — the text the
/// committed `.provenance` golden files pin for alarming cases.
[[nodiscard]] std::string replay_corpus_provenance(
    const CorpusCase& corpus_case);

}  // namespace flowdiff::exp
