// Shared flag parsing and run plumbing for the flowdiff CLI.
//
// Every subcommand used to hand-roll its own copies of the global flags
// (--artifacts, --stats/--trace/--series) and the monitor knob set
// (--window, --sanitize, --lateness, --listen, ...), and
// the copies drifted: `monitor` accepted --listen=ADDR while `report` only
// took the two-token form, and inconsistent knob combinations were clamped
// wherever each parser felt like it. This module is the single source of
// both flag sets — `monitor`, `report`, and `serve` all parse through
// parse_monitor_flags() into one validated core::MonitorOptions, so a flag
// means the same thing (and rejects the same way) everywhere.
#pragma once

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "flowdiff/monitor_options.h"
#include "flowdiff/telemetry.h"
#include "openflow/control_log.h"
#include "util/ipv4.h"

namespace flowdiff::cli {

/// Prints "flowdiff: <message>" to stderr and returns the usage/I-O exit
/// status (2), so call sites read `return fail(...)`.
int fail(const std::string& message);

/// True when `str` ends with `suffix` (artifact formats go by extension).
bool has_suffix(const std::string& str, const char* suffix);

/// Matches `--NAME VALUE` and `--NAME=VALUE` at args[*i]; advances *i past
/// a consumed two-token form. False when args[*i] is not this flag.
bool flag_value(const std::vector<std::string>& args, std::size_t* i,
                const char* name, std::string* value);

/// True (after printing why) when `arg` is a `--flag` no parser consumed.
bool reject_unknown_flag(const std::string& arg);

// --- checked numeric flag values --------------------------------------------

/// Largest seconds value a flag takes: about 31 years, past any capture
/// and far inside SimTime's range.
inline constexpr double kMaxFlagSeconds = 1e9;

/// Parses the whole of `text` as a finite number of seconds in
/// [0, kMaxFlagSeconds]. Otherwise nullopt, with *error naming `flag`.
std::optional<double> parse_seconds(const char* flag, const std::string& text,
                                    std::string* error);

/// Parses the whole of `text` as a plain decimal integer in [lo, hi].
/// Otherwise nullopt, with *error naming `flag`.
std::optional<long> parse_integer(const char* flag, const std::string& text,
                                  long lo, long hi, std::string* error);

// --- global flags (--artifacts / --stats / --trace / --series) ------------

struct GlobalOptions {
  bool stats = false;
  bool trace = false;
  bool series = false;
  std::string stats_path;     ///< empty => stderr
  std::string trace_path;     ///< empty => stderr
  std::string series_path;    ///< empty => stderr
  std::string artifacts_dir;  ///< empty => no artifact directory
};

/// Strips the global flags wherever they appear (both --flag VALUE and
/// --flag=VALUE forms) and enables the obs layer if any artifact was
/// requested. --artifacts=DIR is sugar for --stats=DIR/stats.txt
/// --trace=DIR/trace.json --series=DIR/series.csv (+ a default report
/// path in monitor/report); explicit per-artifact flags win over the
/// DIR-derived paths regardless of order.
GlobalOptions extract_global_options(std::vector<std::string>& args);

/// Dumps the metrics registry / span tree / series after the subcommand
/// ran, per the global flags. Failures here degrade the exit code only if
/// the run itself was clean.
int dump_observability(const GlobalOptions& opts);

// --- shared loaders -------------------------------------------------------

[[nodiscard]] std::optional<std::set<Ipv4>> load_services(
    const std::string& path);
[[nodiscard]] std::optional<of::ControlLog> load_log(const std::string& path);

// --- the monitor knob set (monitor / report / serve) -----------------------

/// Result of parse_monitor_flags(): the validated option bundle plus
/// whatever arguments the shared set did not consume (positional operands
/// and mode-specific flags, order preserved) for the caller to finish.
struct MonitorFlags {
  core::MonitorOptions options;
  std::vector<std::string> rest;
};

/// Parses the shared monitor knobs — --window SEC, --rolling, --sanitize,
/// --lateness SEC (implies --sanitize), --listen ADDR:PORT, --services
/// FILE, --task FILE — into a MonitorOptions, then runs
/// MonitorOptions::validate(). nullopt (with *error set) on unreadable
/// files, unparseable values, or a rejected combination.
std::optional<MonitorFlags> parse_monitor_flags(
    const std::vector<std::string>& args, std::string* error);

// --- graceful shutdown + telemetry plane (--listen / serve) ----------------

/// SIGINT/SIGTERM request a graceful shutdown: the main thread notices the
/// flag, flushes the final window(s), stops the plane, and writes
/// artifacts — none of which is legal in the handler itself.
void install_shutdown_signals();
[[nodiscard]] bool shutdown_requested();
/// Sleeps in 50ms ticks until a shutdown signal arrives.
void wait_for_shutdown();

/// Parses `listen`, starts the plane, installs the shutdown handlers, and
/// announces the bound endpoint on stdout (tests and scripts parse that
/// line to find an ephemeral port). Returns 0 or the failure exit status.
int start_telemetry_plane(std::optional<core::TelemetryPlane>& plane,
                          const std::string& listen);

}  // namespace flowdiff::cli
