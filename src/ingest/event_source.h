// Live control-log sources: the ingest edge of the `flowdiff serve`
// daemon.
//
// The batch pipeline reads one finished capture file; a daemon instead
// tails sources that are still being written. EventSource is that
// abstraction: a non-blocking, line-buffered producer of parsed
// of::ControlEvents the serve loop polls and demultiplexes into per-tenant
// monitor shards. Two implementations:
//
//   * FileTailSource — follows a log file the way `tail -F` does: reads
//     appended bytes, survives log rotation (the file is renamed and a new
//     one created at the same path: the old fd is drained to EOF before
//     switching, so no event written before the rotation is lost) and
//     in-place truncation (copytruncate-style rotation: the offset resets
//     to the new, shorter file), and waits politely for a path that does
//     not exist yet.
//
//   * SocketSource — accepts line-oriented control-log text over a TCP or
//     unix-domain listening socket. Multiple producers may connect; each
//     connection gets its own partial-line buffer, disconnects flush the
//     final unterminated line, and reconnects are counted rather than
//     fatal. Events lost while a producer was disconnected never reach the
//     daemon at all — that gap is exactly what the ingest sanitizer's
//     PacketIn/FlowMod orphan reconciliation estimates downstream.
//
// Malformed lines are counted (SourceStats::lines_rejected) and skipped —
// a daemon must outlive a corrupted producer, so per-line rejection
// replaces the parse-the-whole-file-or-fail contract of log_io. Comment
// ('#') and blank lines are ignored exactly like the file parser does,
// which is what lets serve tail a golden-corpus capture verbatim. A line
// longer than kMaxPendingLine is one malformed line too: its bytes are
// dropped as they arrive instead of being buffered, so a producer that
// never sends '\n' cannot grow the daemon's memory.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

#include "openflow/control_log.h"

namespace flowdiff::ingest {

/// Longest line a source buffers while it waits for the line's '\n'; far
/// above the longest record (a FREM line is under 200 bytes).
inline constexpr std::size_t kMaxPendingLine = 64 * 1024;

/// Counters every source accumulates; surfaced per source in the serve
/// summary and on the telemetry plane.
struct SourceStats {
  std::uint64_t events = 0;          ///< Parsed events delivered.
  std::uint64_t lines_rejected = 0;  ///< Malformed lines skipped.
  std::uint64_t bytes = 0;           ///< Raw bytes consumed.
  std::uint64_t rotations = 0;       ///< File replaced under the tail.
  std::uint64_t truncations = 0;     ///< File shrank in place.
  std::uint64_t accepts = 0;         ///< Socket connections accepted.
  std::uint64_t disconnects = 0;     ///< Socket connections closed.
};

/// One live source feeding one tenant (the serve loop may also route a
/// source's events per event by controller id — the tenant label is the
/// source's default attribution, not a per-event truth).
class EventSource {
 public:
  virtual ~EventSource() = default;

  EventSource(const EventSource&) = delete;
  EventSource& operator=(const EventSource&) = delete;

  /// Drains everything the source has available right now, appending
  /// parsed events to `out` in arrival order. Never blocks; returns the
  /// number of events appended.
  virtual std::size_t poll(std::vector<of::ControlEvent>& out) = 0;

  /// True when the source cannot currently produce more without external
  /// input (file at EOF, no socket bytes pending) — the serve loop's
  /// exit-after-idle test.
  [[nodiscard]] virtual bool idle() const = 0;

  /// Human-readable identity for announcements and the serve summary.
  [[nodiscard]] virtual std::string describe() const = 0;

  [[nodiscard]] const SourceStats& stats() const { return stats_; }
  [[nodiscard]] const std::string& tenant() const { return tenant_; }

 protected:
  explicit EventSource(std::string tenant) : tenant_(std::move(tenant)) {}

  /// A stream's carry-over between reads: the unterminated tail of the
  /// last chunk, or, once that tail outgrew kMaxPendingLine, the state of
  /// dropping bytes up to the next '\n'.
  struct PendingLine {
    std::string text;
    bool discarding = false;

    void clear() {
      text.clear();
      discarding = false;
    }
  };

  /// Splits `chunk` into lines against the stream's carry-over and parses
  /// each complete line (comments/blanks ignored, malformed lines counted
  /// and skipped). Returns events appended to `out`.
  std::size_t consume_text(PendingLine& pending, std::string_view chunk,
                           std::vector<of::ControlEvent>& out);
  /// Parses whatever is pending as a final, unterminated line (stream
  /// ended without a trailing newline) and clears the carry-over.
  std::size_t finish_partial(PendingLine& pending,
                             std::vector<of::ControlEvent>& out);

  SourceStats stats_;

 private:
  std::size_t parse_line(std::string_view line,
                         std::vector<of::ControlEvent>& out);

  std::string tenant_;
};

// --- file follow ----------------------------------------------------------

struct FileTailConfig {
  std::string path;
  /// Read content that already exists at open time (a replayed capture)
  /// instead of seeking to the end (live attachment to a growing log).
  bool from_start = true;
};

class FileTailSource : public EventSource {
 public:
  FileTailSource(std::string tenant, FileTailConfig config);
  ~FileTailSource() override;

  std::size_t poll(std::vector<of::ControlEvent>& out) override;
  [[nodiscard]] bool idle() const override { return at_eof_; }
  [[nodiscard]] std::string describe() const override;

 private:
  /// Opens config_.path if not already open; false while it is absent.
  bool ensure_open();
  /// Reads fd_ to EOF, consuming lines into `out`.
  std::size_t drain_fd(std::vector<of::ControlEvent>& out);

  FileTailConfig config_;
  int fd_ = -1;
  dev_t dev_ = 0;
  ino_t ino_ = 0;
  off_t offset_ = 0;     ///< Bytes of the current file consumed.
  bool at_eof_ = true;   ///< Last poll ended at EOF with no rotation due.
  PendingLine partial_;  ///< Trailing incomplete line carried over.
};

// --- socket accept --------------------------------------------------------

struct SocketSourceConfig {
  /// TCP listen address (used when unix_path is empty); "0.0.0.0" binds
  /// every interface, port 0 picks an ephemeral one.
  std::string address = "127.0.0.1";
  std::uint16_t port = 0;
  /// Non-empty selects an AF_UNIX listening socket at this path instead
  /// (the path is unlinked on bind and on shutdown).
  std::string unix_path;
};

class SocketSource : public EventSource {
 public:
  /// Concurrent producer connections; extras are accepted and immediately
  /// closed (counted as disconnects).
  static constexpr std::size_t kMaxClients = 16;

  SocketSource(std::string tenant, SocketSourceConfig config);
  ~SocketSource() override;

  /// Binds and listens. False (with last_error()) on socket errors.
  [[nodiscard]] bool start();

  std::size_t poll(std::vector<of::ControlEvent>& out) override;
  [[nodiscard]] bool idle() const override { return clients_.empty(); }
  [[nodiscard]] std::string describe() const override;

  /// TCP port actually bound (resolves an ephemeral port 0 request).
  [[nodiscard]] std::uint16_t port() const { return bound_port_; }
  [[nodiscard]] const std::string& last_error() const { return error_; }
  [[nodiscard]] std::size_t clients() const { return clients_.size(); }

 private:
  struct Client {
    int fd = -1;
    PendingLine partial;
  };

  std::size_t drain_client(Client& client, std::vector<of::ControlEvent>& out,
                           bool* closed);

  SocketSourceConfig config_;
  int listen_fd_ = -1;
  std::uint16_t bound_port_ = 0;
  std::string error_;
  std::vector<Client> clients_;
};

}  // namespace flowdiff::ingest
