// Text serialization for control logs and flow sequences.
//
// FlowDiff's workflow is inherently offline-friendly: capture a control log
// while the data center is healthy, keep it, diff later logs against it.
// The format is line-oriented and stable:
//
//   PIN  <ts> <ctrl> <sw> <in_port> <src_ip> <sport> <dst_ip> <dport> <proto> <uid>
//   FMOD <ts> <ctrl> <sw> <out_port> <idle> <hard> <match:6 fields, '-'=any> <key:5> <uid>
//   POUT <ts> <ctrl> <sw> <out_port> <key:5> <uid>
//   FREM <ts> <ctrl> <sw> <reason> <duration> <bytes> <pkts> <match:6> <key:5>
//   STAT <ts> <ctrl> <sw> <age> <bytes> <pkts> <match:6> <key:5>
//   ECHO <ts> <ctrl> <sw>
//
// Tokenization: lines end at '\n'; fields are separated by runs of
// ' ', '\t', '\r', '\v' or '\f' (so a record's CRLF '\r' is field space).
// Empty lines and lines whose first byte is '#' are skipped; a line of
// field space only is malformed. Every field must decode in full as its
// type (decimal, at least one digit, no '+', '-' only on signed fields,
// in range), and a lone '-' means "any" in match slots only. Tokens
// after a record's last field are ignored. Live sources reject any line
// longer than 64 KiB (ingest::kMaxPendingLine) without buffering it.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "openflow/control_log.h"
#include "openflow/timed_flow.h"

namespace flowdiff::of {

[[nodiscard]] std::string serialize(const ControlLog& log);
[[nodiscard]] std::optional<ControlLog> parse_control_log(
    std::string_view text);

/// One event as its log line (no trailing newline). Also serves as the
/// ingest sanitizer's duplicate-suppression identity: two events are the
/// same capture record iff their lines match.
[[nodiscard]] std::string serialize_event(const ControlEvent& event);

/// Serializes events in the order given — NOT time-sorted, unlike
/// serialize(ControlLog). This is how corrupted captures (whose arrival
/// order deliberately disagrees with their timestamps) survive a
/// round-trip to disk, e.g. the golden-trace corpus.
[[nodiscard]] std::string serialize(const std::vector<ControlEvent>& events);

/// True for the lines every parser skips: empty, or starting with '#'.
[[nodiscard]] constexpr bool is_comment_or_blank(std::string_view line) {
  return line.empty() || line.front() == '#';
}

/// Parses one record line (no '\n', not a comment or blank) into `event`,
/// replacing its timestamp, controller and message. False when the line
/// is malformed; `event` then holds a partial decode to discard.
[[nodiscard]] bool parse_event_line(std::string_view line,
                                    ControlEvent& event);

/// Parses log lines preserving file order (parse_control_log wraps this
/// and hands back a lazily self-sorting ControlLog; use this form when
/// arrival order matters, e.g. feeding the ingest sanitizer).
[[nodiscard]] std::optional<std::vector<ControlEvent>> parse_control_events(
    std::string_view text);

/// Appending form of parse_control_events: parses `text` onto the end of
/// the caller's (typically reused) vector, reserving nothing itself. On a
/// malformed line `out` is rolled back to its size on entry and false is
/// returned; comment and blank lines append nothing.
[[nodiscard]] bool parse_control_events(std::string_view text,
                          std::vector<ControlEvent>& out);

/// Flow sequences (e.g. single-VM tcpdump-style captures) serialize as
///   FLOW <ts> <src_ip> <sport> <dst_ip> <dport> <proto>
[[nodiscard]] std::string serialize(const FlowSequence& flows);
[[nodiscard]] std::optional<FlowSequence> parse_flow_sequence(
    std::string_view text);

/// Convenience file helpers; return false / nullopt on I/O errors.
/// read_file loads a regular file with one fstat and one sized read (plus
/// the read that meets EOF); it also returns nullopt for a directory or
/// any other non-regular file, so such a path never loads as an empty
/// capture.
bool write_file(const std::string& path, std::string_view content);
[[nodiscard]] std::optional<std::string> read_file(const std::string& path);

}  // namespace flowdiff::of
