// Flag tables and run plumbing for the flowdiff CLI.
//
// Every command declares its flags once, as a table of Flag rows: shared
// rows (the global artifact flags, --services, --task, the monitor knob
// set) followed by its own. parse_flags() reads a command line against
// that table in one pass, so every value flag takes both `--flag VALUE`
// and `--flag=VALUE`, every command rejects a bad flag the same way, and
// `flowdiff help` prints its usage and flag lines from the same rows.
#pragma once

#include <charconv>
#include <cstdio>
#include <functional>
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

/// The shortest text of `value` ("30", "0.5"): defaults in help lines.
std::string number_text(double value);

// --- flag tables -------------------------------------------------------------

/// Why a flag's value was rejected; nullopt when it was applied.
using FlagError = std::optional<std::string>;

/// One flag of one command: its spelling, whether it takes a value, how
/// `flowdiff help` shows it, and what it sets.
struct Flag {
  enum class Kind {
    kSwitch,    ///< --name
    kValue,     ///< --name VALUE or --name=VALUE
    kOptional,  ///< --name or --name=VALUE (never the next argument)
  };
  /// Applies the value ("" for a switch or a bare optional flag).
  using Setter = std::function<FlagError(const std::string& value)>;

  std::string name;     ///< "--window"
  Kind kind = Kind::kSwitch;
  std::string metavar;  ///< "SECONDS"; empty for a switch
  std::string help;     ///< Prose; print_flags() wraps it.
  Setter set;
};

/// Reads the whole of `text` as a plain decimal integer in [lo, hi] into
/// *value: no sign an unsigned type cannot hold, no leading space, no
/// trailing junk. Otherwise says so, naming `what`.
template <typename Int>
FlagError parse_integer(const char* what, const std::string& text, Int lo,
                        Int hi, Int* value) {
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  if (ec != std::errc{} || ptr != end || *value < lo || *value > hi) {
    return std::string(what) + " must be an integer from " +
           std::to_string(lo) + " to " + std::to_string(hi) + " (got '" +
           text + "')";
  }
  return std::nullopt;
}

Flag switch_flag(std::string name, bool* on, std::string help);
Flag value_flag(std::string name, std::string metavar, std::string help,
                Flag::Setter set);
Flag text_flag(std::string name, std::string metavar, std::string* out,
               std::string help);
/// A value flag whose whole text is a finite number of seconds from 0 to
/// 1e9 (about 31 years); anything else is rejected naming the flag.
Flag seconds_flag(std::string name, std::string metavar, std::string help,
                  std::function<void(double)> set);
/// A value flag read by parse_integer() in [lo, hi].
Flag integer_flag(std::string name, std::string metavar, long lo, long hi,
                  std::string help, std::function<void(long)> set);

/// Reads `args` against `flags` in one pass and returns the operands (the
/// arguments not starting with "--"), in order. Any other argument must
/// name a row; a switch takes no "=VALUE", a value flag takes the next
/// argument or "=VALUE", an optional one only "=VALUE". On an unknown
/// argument, a missing value or a value its setter rejects, prints why and
/// returns nullopt (exit 2).
std::optional<std::vector<std::string>> parse_flags(
    const std::vector<std::string>& args, const std::vector<Flag>& flags);

/// Prints "  HEAD [--flag METAVAR]...", wrapped to 79 columns.
void print_usage_line(std::FILE* out, const std::string& head,
                      const std::vector<Flag>& flags);
/// Prints one aligned help block per row.
void print_flags(std::FILE* out, const std::vector<Flag>& flags);

// --- shared rows -------------------------------------------------------------

/// The artifact dumps: nullopt, off; "", stderr; otherwise a file whose
/// extension picks the format.
struct GlobalOptions {
  std::optional<std::string> stats;
  std::optional<std::string> trace;
  std::optional<std::string> series;
  std::string artifacts_dir;  ///< empty => no artifact directory
};

/// --artifacts DIR, --stats[=FILE], --trace[=FILE], --series[=FILE]: the
/// rows every command but explain takes.
std::vector<Flag> global_flags(GlobalOptions* opts);

/// After parsing: --artifacts=DIR fills every artifact path no explicit
/// FILE set and creates DIR; any artifact turns the obs layer on. Returns
/// 0 or the failure exit status.
int prepare_artifacts(GlobalOptions& opts);

/// Dumps the metrics registry / span tree / series after the subcommand
/// ran, per the global flags. Failures here degrade the exit code only if
/// the run itself was clean.
int dump_observability(const GlobalOptions& opts);

/// --services FILE: loads the special-purpose node IPs into *services.
Flag services_flag(std::set<Ipv4>* services);
/// --task FILE (repeatable): loads one task automaton into *tasks.
Flag task_flag(std::vector<core::TaskAutomaton>* tasks);
/// The monitor knob set of monitor, report and serve: --window, --services,
/// --task, --rolling, --sanitize, --lateness (implies --sanitize) and
/// --listen. The caller runs MonitorOptions::validate() after parsing.
std::vector<Flag> monitor_flags(core::MonitorOptions* options);

// --- shared loaders ----------------------------------------------------------

[[nodiscard]] std::optional<of::ControlLog> load_log(const std::string& path);
/// Reads and parses one automaton and appends it to *automata.
FlagError load_automaton(const std::string& path,
                         std::vector<core::TaskAutomaton>* automata);

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
