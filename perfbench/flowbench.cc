// flowbench: end-to-end and per-layer benchmark of FlowDiff.
//
//   flowbench gen --workload W --seed N --dir DIR
//       Simulates the workload's inputs into DIR (see inputs.h).
//   flowbench run --workload W --dir DIR --seconds S --trace 0|1
//                 [--spans FILE] [--poll-ms MS] [--workers N]
//       Measures the workload on the inputs in DIR. The last stdout line
//       is one JSON object: {"correct", "attempted", "failed", "metrics"}.
//       --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
//       ledger (and writes the span table to --spans).
//
// perfbench/run.py builds this binary, generates inputs per seed and runs
// it; perfbench/README.md defines every metric.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "flowdiff/flowdiff.h"
#include "flowdiff/monitor.h"
#include "flowdiff/monitor_manager.h"
#include "flowdiff/monitor_options.h"
#include "heap.h"
#include "ingest/event_source.h"
#include "ingest/sanitizer.h"
#include "inputs.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "openflow/log_io.h"

namespace perfbench {
namespace {

using namespace flowdiff;
using Clock = std::chrono::steady_clock;

/// How the serve workloads' captures reach the daemon. A controller writes
/// its log as events happen and `flowdiff serve` polls every 50 ms (its
/// --poll-ms default), so each poll finds the lines stamped within the last
/// 50 ms of capture time: one chunk. The benchmark appends those chunks as
/// fast as the program takes them, so capture time runs faster than real
/// time but every poll sees what a live tail would.
constexpr SimDuration kPollInterval = 50 * kMillisecond;
constexpr SimDuration kWindow = 40 * kSecond;
/// Verdict latency samples a run must collect (p95 then has >= 10 beyond).
constexpr std::size_t kMinVerdicts = 200;
/// Set-ups timed per set-up sample. A fixed count keeps the heap history,
/// and so the peak RSS, the same from run to run.
constexpr int kSetupReps = 200;

[[noreturn]] void die(const std::string& message) {
  throw std::runtime_error(message);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS.
bool reset_peak_rss() {
  const int fd = open("/proc/self/clear_refs", O_WRONLY);
  if (fd < 0) return false;
  const bool ok = write(fd, "5", 1) == 1;
  close(fd);
  return ok;
}

double peak_rss_mb() {
  if (const auto status = of::read_file("/proc/self/status")) {
    const auto at = status->find("VmHWM:");
    if (at != std::string::npos) {
      return std::strtod(status->c_str() + at + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// --- spans -----------------------------------------------------------------

/// Span recorder for the traced run: name, start, end and parent of every
/// call the benchmark makes into a layer, kept in memory and written out
/// at the end. Main thread only.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::int32_t parent;  ///< Index of the enclosing span, -1 for none.
  };

  class Span {
   public:
    Span(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ == nullptr || !tracer_->on_) {
        tracer_ = nullptr;
        return;
      }
      index_ = static_cast<std::int32_t>(tracer_->records_.size());
      tracer_->records_.push_back({name, tracer_->now_ns(), 0, tracer_->open_});
      tracer_->open_ = index_;
    }
    ~Span() {
      if (tracer_ == nullptr) return;
      tracer_->records_[static_cast<std::size_t>(index_)].end_ns =
          tracer_->now_ns();
      tracer_->open_ = tracer_->records_[static_cast<std::size_t>(index_)].parent;
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::int32_t index_ = -1;
  };

  Tracer() : epoch_(Clock::now()) { records_.reserve(1 << 16); }

  void set_on(bool on) { on_ = on; }

  /// Total duration of spans named `name` recorded since index `from`.
  [[nodiscard]] double total_s(const char* name, std::size_t from = 0) const {
    double total = 0.0;
    for (std::size_t i = from; i < records_.size(); ++i) {
      if (std::strcmp(records_[i].name, name) == 0) {
        total += static_cast<double>(records_[i].end_ns - records_[i].start_ns);
      }
    }
    return total * 1e-9;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Per-record table (name, start, end, parent, self time) plus a per-name
  /// summary; self time is a span's duration minus its children's.
  [[nodiscard]] std::string render() const {
    std::vector<std::int64_t> child(records_.size(), 0);
    for (const Record& r : records_) {
      if (r.parent >= 0) {
        child[static_cast<std::size_t>(r.parent)] += r.end_ns - r.start_ns;
      }
    }
    struct Sum {
      std::size_t count = 0;
      std::int64_t total = 0;
      std::int64_t self = 0;
    };
    std::map<std::string, Sum> sums;
    std::string rows = "# index\tname\tstart_ns\tend_ns\tparent\tself_ns\n";
    char line[256];
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      const std::int64_t self = r.end_ns - r.start_ns - child[i];
      std::snprintf(line, sizeof(line), "%zu\t%s\t%lld\t%lld\t%d\t%lld\n", i,
                    r.name, static_cast<long long>(r.start_ns),
                    static_cast<long long>(r.end_ns), r.parent,
                    static_cast<long long>(self));
      rows += line;
      Sum& s = sums[r.name];
      ++s.count;
      s.total += r.end_ns - r.start_ns;
      s.self += self;
    }
    std::string summary = "# span\tcount\ttotal_ms\tself_ms\n";
    for (const auto& [name, s] : sums) {
      std::snprintf(line, sizeof(line), "# %s\t%zu\t%.3f\t%.3f\n",
                    name.c_str(), s.count, static_cast<double>(s.total) * 1e-6,
                    static_cast<double>(s.self) * 1e-6);
      summary += line;
    }
    return summary + rows;
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_;
  bool on_ = false;
  std::int32_t open_ = -1;
  std::vector<Record> records_;
};

using Span = Tracer::Span;

// --- inputs ----------------------------------------------------------------

struct Manifest {
  std::string workload;
  std::uint64_t seed = 0;
  std::string input_hash;
  std::vector<std::string> files;
};

/// Reads DIR/manifest.txt and re-hashes every file it lists.
Manifest load_manifest(const std::string& dir) {
  const auto text = of::read_file(dir + "/manifest.txt");
  if (!text) die("no manifest in " + dir);
  Manifest m;
  std::istringstream in(*text);
  std::string key;
  while (in >> key) {
    if (key == "workload") {
      in >> m.workload;
    } else if (key == "seed") {
      in >> m.seed;
    } else if (key == "input_hash") {
      in >> m.input_hash;
    } else if (key == "file") {
      std::string name;
      std::size_t size = 0;
      std::string hash;
      in >> name >> size >> hash;
      const auto bytes = of::read_file(dir + "/" + name);
      char hex[32];
      std::snprintf(hex, sizeof(hex), "%016llx",
                    static_cast<unsigned long long>(
                        bytes ? fnv1a(*bytes) : 0));
      if (!bytes || bytes->size() != size || hash != hex) {
        die("input file " + name + " does not match the manifest");
      }
      m.files.push_back(name);
    } else {
      die("malformed manifest line: " + key);
    }
  }
  return m;
}

/// One tenant's capture: the input file and the byte range of each chunk.
struct TenantInput {
  std::string name;
  std::string path;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;  ///< offset, size
  std::size_t max_chunk = 0;
};

/// Timestamp of a capture line (`KIND <ts> <controller> ...`), or nullopt
/// for a blank, comment or malformed line.
std::optional<SimTime> line_time(std::string_view line) {
  const auto space = line.find(' ');
  if (line.empty() || line[0] == '#' || space == std::string_view::npos) {
    return std::nullopt;
  }
  SimTime ts = 0;
  const char* first = line.data() + space + 1;
  const auto [end, ec] = std::from_chars(first, line.data() + line.size(), ts);
  if (ec != std::errc() || end == first) return std::nullopt;
  return ts;
}

/// Splits a capture into the chunks a tail polled every `poll` of capture
/// time finds: a chunk ends before the first line stamped at or after the
/// next poll. Lines stamped earlier than the newest one so far (a reordered
/// capture) stay in the chunk that is open; polls that would find nothing
/// are skipped.
TenantInput chunk_file(std::string name, const std::string& path,
                       SimDuration poll) {
  const auto text = of::read_file(path);
  if (!text) die("cannot read " + path);
  TenantInput t{std::move(name), path, {}, 0};
  std::optional<SimTime> first;
  SimTime next_poll = 0;
  std::size_t begin = 0;
  for (std::size_t at = 0; at < text->size();) {
    std::size_t end = text->find('\n', at);
    end = end == std::string::npos ? text->size() : end + 1;
    if (const auto ts = line_time(std::string_view(*text).substr(at, end - at))) {
      if (!first) {
        first = *ts;
        next_poll = *ts + poll;
      } else if (*ts >= next_poll) {
        t.chunks.emplace_back(begin, at - begin);
        begin = at;
        next_poll = *first + ((*ts - *first) / poll + 1) * poll;
      }
    }
    at = end;
  }
  if (begin < text->size()) t.chunks.emplace_back(begin, text->size() - begin);
  for (const auto& c : t.chunks) t.max_chunk = std::max(t.max_chunk, c.second);
  return t;
}

/// Everything a run needs to know about its workload.
struct Workload {
  std::string name;
  std::string dir;
  Manifest manifest;
  SimDuration poll = kPollInterval;  ///< Capture time per appended chunk.
  bool offline = false;
  core::MonitorOptions options;  ///< Serve shard template (sanitize etc.).
  int workers = 0;               ///< Manager workers in the timed passes.
  bool obs = false;              ///< obs enabled in the timed passes.
  std::vector<TenantInput> tenants;
  std::string baseline;               ///< offline_diff only.
  std::vector<std::string> currents;  ///< offline_diff only.
};

Workload describe(const std::string& name, const std::string& dir,
                  SimDuration poll) {
  Workload w;
  w.name = name;
  w.dir = dir;
  w.poll = poll;
  w.manifest = load_manifest(dir);
  if (w.manifest.workload != name) {
    die(dir + " holds inputs of " + w.manifest.workload + ", not " + name);
  }
  w.options.window = kWindow;
  w.options.sanitize = true;
  if (name == "serve_fleet") {
    // The production daemon: sanitize on, rolling baseline, obs on as
    // under `serve --listen`, tenants fed inline (the `serve` default).
    // With worker threads the pass rate measures how many vCPUs the host
    // grants at once rather than the program, so the 2-worker schedule is
    // measured only in the traced run's A/B and backlog passes.
    w.options.rolling_baseline = true;
    w.obs = true;
  } else if (name == "incident_storm") {
    // One tenant, inline (the `serve` default), obs off, fixed baseline.
    w.options.rolling_baseline = false;
  } else if (name == "offline_diff") {
    w.offline = true;
  } else {
    die("unknown workload " + name);
  }
  for (const std::string& file : w.manifest.files) {
    if (file.rfind("tenant_", 0) == 0) {
      w.tenants.push_back(chunk_file(file.substr(0, file.size() - 4),
                                     dir + "/" + file, poll));
    } else if (file.rfind("current_", 0) == 0) {
      w.currents.push_back(dir + "/" + file);
    } else if (file == "baseline.log") {
      w.baseline = dir + "/" + file;
    }
  }
  std::sort(w.tenants.begin(), w.tenants.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  std::sort(w.currents.begin(), w.currents.end());
  if (w.offline ? (w.baseline.empty() || w.currents.empty())
                : w.tenants.empty()) {
    die("incomplete inputs in " + dir);
  }
  return w;
}

// --- set-up ----------------------------------------------------------------

/// Loads the service catalog and the task automata into `options` and
/// validates the bundle: the part of set-up every workload shares.
core::MonitorOptions load_options(const Workload& w,
                                  core::MonitorOptions options) {
  const auto services = of::read_file(w.dir + "/services.txt");
  if (!services) die("cannot read services.txt");
  std::size_t pos = 0;
  while (pos < services->size()) {
    std::size_t end = services->find('\n', pos);
    if (end == std::string::npos) end = services->size();
    if (const auto ip = Ipv4::parse(services->substr(pos, end - pos))) {
      options.services.insert(*ip);
    }
    pos = end + 1;
  }
  for (const std::string& file : w.manifest.files) {
    if (file.rfind("task_", 0) != 0) continue;
    const auto text = of::read_file(w.dir + "/" + file);
    auto automaton = text ? core::TaskAutomaton::parse(*text) : std::nullopt;
    if (!automaton) die("malformed automaton " + file);
    options.tasks.push_back(std::move(*automaton));
  }
  if (const auto error = options.validate()) die("options: " + *error);
  return options;
}

struct ServeRig {
  std::vector<std::unique_ptr<ingest::FileTailSource>> sources;
  std::unique_ptr<core::MonitorManager> manager;
};

struct ServeMode {
  int workers = 0;
  bool obs = false;
};

std::string tail_path(const Workload& w, const TenantInput& t) {
  return w.dir + "/tail_" + t.name + ".log";
}


using FeedHook =
    std::function<void(const std::string&, const of::ControlEvent&)>;

/// The serve set-up: options, catalog, automata, sources, manager, tenants.
ServeRig build_serve_rig(const Workload& w, const ServeMode& mode,
                         FeedHook hook = {}) {
  core::ManagerConfig config;
  config.options = load_options(w, w.options);
  config.workers = mode.workers;
  config.feed_hook = std::move(hook);
  ServeRig rig;
  for (const TenantInput& t : w.tenants) {
    ingest::FileTailConfig source;
    source.path = tail_path(w, t);
    source.from_start = true;
    rig.sources.push_back(
        std::make_unique<ingest::FileTailSource>(t.name, std::move(source)));
  }
  rig.manager = std::make_unique<core::MonitorManager>(std::move(config));
  for (const TenantInput& t : w.tenants) rig.manager->register_tenant(t.name);
  return rig;
}

/// The offline set-up: options, catalog, automata and the FlowDiff facade.
struct OfflineRig {
  core::FlowDiff flowdiff;
  std::vector<core::TaskAutomaton> tasks;
};

OfflineRig build_offline_rig(const Workload& w) {
  core::MonitorOptions options = load_options(w, w.options);
  return OfflineRig{core::FlowDiff(options.monitor_config().flowdiff),
                    std::move(options.tasks)};
}

/// One set-up sample: seconds per set-up over kSetupReps set-ups. Tearing
/// a rig down is not set-up and stays outside the timing.
template <typename Build>
double setup_sample(const Build& build) {
  double total = 0.0;
  for (int i = 0; i < kSetupReps; ++i) {
    const auto t0 = Clock::now();
    const auto rig = build();
    total += seconds_since(t0);
  }
  return total / kSetupReps;
}

// --- oracle ----------------------------------------------------------------

struct TenantOracle {
  std::string transcript;
  /// Chunk whose events closed window k (windows closed by the final
  /// flush are not listed).
  std::vector<std::size_t> closing_chunk;
  std::size_t windows = 0;
  std::uint64_t events = 0;
};

bool accounting_holds(const ingest::StreamQuality& q) {
  return q.fed == q.kept + q.duplicates + q.late_dropped + q.truncated;
}

std::string read_range(const std::string& text,
                       const std::pair<std::size_t, std::size_t>& chunk) {
  return text.substr(chunk.first, chunk.second);
}

/// Replays each tenant's capture, chunk by chunk, through one
/// single-threaded SlidingMonitor that models every window from scratch.
std::vector<TenantOracle> serve_oracle(const Workload& w) {
  core::MonitorOptions options = load_options(w, w.options);
  options.incremental = false;
  options.workers = 0;
  std::vector<TenantOracle> out;
  for (const TenantInput& t : w.tenants) {
    const auto text = of::read_file(t.path);
    if (!text) die("cannot read " + t.path);
    TenantOracle o;
    core::SlidingMonitor monitor(options);
    for (std::size_t c = 0; c < t.chunks.size(); ++c) {
      const auto events =
          of::parse_control_events(read_range(*text, t.chunks[c]));
      if (!events) die("oracle cannot parse " + t.path);
      o.events += events->size();
      monitor.feed(*events);
      while (o.closing_chunk.size() < monitor.windows_processed()) {
        o.closing_chunk.push_back(c);
      }
    }
    monitor.flush();
    o.windows = monitor.windows_processed();
    if (!accounting_holds(monitor.stream_quality()) ||
        monitor.stream_quality().fed != o.events) {
      die("oracle accounting identity fails for " + t.name);
    }
    o.transcript = core::render_monitor_transcript(monitor);
    out.push_back(std::move(o));
  }
  return out;
}

/// Per-window transcript lines ("[k] ...") that differ or are missing;
/// at least 1 when the transcripts differ at all.
std::uint64_t wrong_windows(const std::string& got, const std::string& want) {
  const auto window_lines = [](const std::string& text) {
    std::vector<std::string> lines;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty() && line[0] == '[') lines.push_back(line);
    }
    return lines;
  };
  const auto a = window_lines(got);
  const auto b = window_lines(want);
  std::uint64_t wrong = 0;
  for (std::size_t i = 0; i < b.size(); ++i) {
    if (i >= a.size() || a[i] != b[i]) ++wrong;
  }
  return std::max<std::uint64_t>(wrong, got == want ? 0 : 1);
}

// --- timed passes ----------------------------------------------------------

struct PassResult {
  double wall_s = 0.0;
  double cpu_s = 0.0;       ///< Process CPU, all threads.
  double main_cpu_s = 0.0;  ///< CPU of the polling (main) thread.
  std::uint64_t events = 0;
  std::vector<double> verdict_ms;
  std::uint64_t attempted = 0;  ///< Verdicts compared with the oracle.
  std::uint64_t failed = 0;
  std::uint64_t backlog_peak = 0;
  std::vector<core::WindowAudit> audits;
};

class Fd {
 public:
  explicit Fd(const std::string& path) : fd_(open(path.c_str(), O_RDONLY)) {
    if (fd_ < 0) die("cannot open " + path);
  }
  ~Fd() { close(fd_); }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  int fd_;
};

/// The file a tail source follows during one pass: created fresh and
/// removed when the pass ends. ext4 writes a file that was truncated to
/// zero and rewritten out to disk when it is closed, and the kernel writes
/// out pages that stay dirty for 30 s; a new file removed after its pass
/// keeps the appends in the page cache, so disk writes do not set the
/// pass's speed.
class TailFile {
 public:
  explicit TailFile(std::string path) : path_(std::move(path)) {
    unlink(path_.c_str());
    fd_ = open(path_.c_str(), O_WRONLY | O_CREAT | O_EXCL, 0644);
    if (fd_ < 0) die("cannot create " + path_);
  }
  ~TailFile() {
    close(fd_);
    unlink(path_.c_str());
  }
  TailFile(const TailFile&) = delete;
  TailFile& operator=(const TailFile&) = delete;
  [[nodiscard]] int get() const { return fd_; }

 private:
  std::string path_;
  int fd_;
};

/// One pass of the serve path: for every tenant in turn, append the next
/// chunk of its capture to the file its FileTailSource follows, poll the
/// source and feed the batch to the manager; then stop_all(). A tenant's
/// next chunk is appended only once the manager has taken the previous
/// one (a closed loop per tenant), so the backlog stays bounded by one
/// chunk per tenant. `backlog` counts events queued but not yet fed to a
/// shard's monitor (a feed hook; traced passes only).
PassResult serve_pass(const Workload& w, const std::vector<TenantOracle>& oracle,
                      const ServeMode& mode, Tracer* tracer, bool backlog) {
  const std::size_t n = w.tenants.size();
  std::vector<std::unique_ptr<Fd>> in;
  std::vector<std::unique_ptr<TailFile>> out;
  std::size_t rounds = 0;
  std::size_t max_chunk = 0;
  for (const TenantInput& t : w.tenants) {
    in.push_back(std::make_unique<Fd>(t.path));
    out.push_back(std::make_unique<TailFile>(tail_path(w, t)));
    rounds = std::max(rounds, t.chunks.size());
    max_chunk = std::max(max_chunk, t.max_chunk);
  }
  std::unique_ptr<std::atomic<std::uint64_t>[]> processed(
      new std::atomic<std::uint64_t>[n]);
  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < n; ++i) {
    processed[i] = 0;
    index[w.tenants[i].name] = i;
  }
  FeedHook hook;
  if (backlog) {
    hook = [&processed, &index](const std::string& tenant,
                                const of::ControlEvent&) {
      processed[index.at(tenant)].fetch_add(1, std::memory_order_relaxed);
    };
  }
  obs::set_enabled(mode.obs);
  ServeRig rig = build_serve_rig(w, mode, hook);

  PassResult r;
  std::string buf(max_chunk, '\0');
  std::vector<of::ControlEvent> batch;
  std::vector<std::vector<Clock::time_point>> readable(n);
  std::vector<std::size_t> seen(n, 0);
  std::uint64_t accepted = 0;
  // A tenant's next window is due once the chunk that closes it (known
  // from the oracle) is out; only then is its status asked for.
  const auto due = [&](std::size_t u) {
    const auto& closing = oracle[u].closing_chunk;
    return seen[u] < closing.size() && closing[seen[u]] < readable[u].size();
  };
  const auto collect = [&] {
    for (std::size_t u = 0; u < n; ++u) {
      if (!due(u)) continue;
      std::size_t windows = 0;
      {
        Span span(tracer, "manager.status");
        windows = rig.manager->status(w.tenants[u].name)->windows;
      }
      const auto now = Clock::now();
      for (; seen[u] < windows && due(u); ++seen[u]) {
        r.verdict_ms.push_back(
            std::chrono::duration<double, std::milli>(
                now - readable[u][oracle[u].closing_chunk[seen[u]]])
                .count());
      }
    }
  };

  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  const double main0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  for (std::size_t c = 0; c < rounds; ++c) {
    for (std::size_t i = 0; i < n; ++i) {
      const TenantInput& t = w.tenants[i];
      if (c >= t.chunks.size()) continue;
      if (mode.workers > 0) {
        Span span(tracer, "manager.drain");
        rig.manager->drain(t.name);
      }
      const auto [offset, size] = t.chunks[c];
      if (pread(in[i]->get(), buf.data(), size, static_cast<off_t>(offset)) !=
              static_cast<ssize_t>(size) ||
          write(out[i]->get(), buf.data(), size) !=
              static_cast<ssize_t>(size)) {
        die("cannot append chunk of " + t.name);
      }
      readable[i].push_back(Clock::now());
      batch.clear();
      {
        Span span(tracer, "source.poll");
        heap::Scope scope(heap::kSource);
        rig.sources[i]->poll(batch);
      }
      {
        Span span(tracer, "manager.feed");
        heap::Scope scope(heap::kManager);
        rig.manager->feed(t.name, batch);
      }
      accepted += batch.size();
      if (backlog) {
        std::uint64_t done = 0;
        for (std::size_t u = 0; u < n; ++u) done += processed[u].load();
        r.backlog_peak = std::max(r.backlog_peak, accepted - done);
      }
      collect();
    }
  }
  {
    Span span(tracer, "manager.stop_all");
    rig.manager->stop_all();
  }
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  r.main_cpu_s = cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - main0;
  collect();

  for (std::size_t u = 0; u < n; ++u) {
    const std::string& name = w.tenants[u].name;
    const std::uint64_t delivered = rig.sources[u]->stats().events;
    r.events += delivered;
    r.attempted += oracle[u].windows;
    const auto snap = rig.manager->snapshot(name);
    const auto health = rig.manager->health(name);
    if (!snap || !health) {
      r.failed += oracle[u].windows;
      continue;
    }
    r.failed += wrong_windows(core::render_monitor_transcript(*snap),
                              oracle[u].transcript);
    if (!accounting_holds(health->quality) || health->quality.fed != delivered ||
        delivered != oracle[u].events) {
      ++r.failed;
    }
    r.audits.insert(r.audits.end(), snap->audits.begin(), snap->audits.end());
  }
  return r;
}

/// One pass of offline_diff: every job reads and parses the baseline and
/// one current capture, models both from scratch and diffs them with the
/// task automata; its verdict is the rendered report.
PassResult offline_pass(const Workload& w, const OfflineRig& rig,
                        const std::vector<std::string>& oracle,
                        Tracer* tracer) {
  PassResult r;
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID);
  for (std::size_t j = 0; j < w.currents.size(); ++j) {
    const auto job0 = Clock::now();
    std::optional<of::ControlLog> base;
    std::optional<of::ControlLog> cur;
    core::DiffReport report;
    {
      Span job(tracer, "job");
      std::optional<std::string> base_text;
      std::optional<std::string> cur_text;
      {
        Span span(tracer, "log_io.read");
        base_text = of::read_file(w.baseline);
        cur_text = of::read_file(w.currents[j]);
      }
      if (!base_text || !cur_text) die("cannot read offline captures");
      {
        Span span(tracer, "log_io.parse");
        heap::Scope scope(heap::kParse);
        base = of::parse_control_log(*base_text);
        cur = of::parse_control_log(*cur_text);
      }
      if (!base || !cur) die("cannot parse offline captures");
      core::BehaviorModel base_model;
      core::BehaviorModel cur_model;
      {
        Span span(tracer, "model");
        heap::Scope scope(heap::kModel);
        base_model = rig.flowdiff.model(*base);
        cur_model = rig.flowdiff.model(*cur);
      }
      {
        Span span(tracer, "diff");
        heap::Scope scope(heap::kDiff);
        report = rig.flowdiff.diff(base_model, cur_model, rig.tasks);
      }
    }
    r.verdict_ms.push_back(
        std::chrono::duration<double, std::milli>(Clock::now() - job0).count());
    r.events += base->size() + cur->size();
    ++r.attempted;
    if (report.render() != oracle[j]) ++r.failed;
  }
  r.wall_s = seconds_since(t0);
  r.cpu_s = cpu_seconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
  return r;
}

std::vector<std::string> offline_oracle(const Workload& w) {
  const OfflineRig rig = build_offline_rig(w);
  const auto base_text = of::read_file(w.baseline);
  const auto base = base_text ? of::parse_control_log(*base_text) : std::nullopt;
  if (!base) die("cannot load " + w.baseline);
  const auto base_model = rig.flowdiff.model(*base);
  std::vector<std::string> out;
  for (const std::string& path : w.currents) {
    const auto text = of::read_file(path);
    const auto cur = text ? of::parse_control_log(*text) : std::nullopt;
    if (!cur) die("cannot load " + path);
    out.push_back(
        rig.flowdiff.diff(base_model, rig.flowdiff.model(*cur), rig.tasks)
            .render());
  }
  return out;
}

// --- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const PassResult& p) {
    attempted += p.attempted;
    failed += p.failed;
  }
  void put(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  [[nodiscard]] std::string json() const {
    std::string out = "{\"correct\": ";
    out += failed == 0 && attempted > 0 ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted) +
           ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    char buf[160];
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                    metrics[i].unit.c_str());
      out += buf;
    }
    return out + "}}";
  }
};

/// Host-speed probe: a fixed mix of integer, sort, hash-table and
/// number-formatting work that uses nothing from the library and allocates
/// nothing (its buffers are static), so neither the program nor the heap a
/// pass leaves behind changes its time. Its wall time tracks how fast the
/// machine runs at the moment: hypervisor steal and contention from
/// neighbours slow it as they slow a pass (over one 40 s run of
/// incident_storm, probe speed and pass rate correlated at r = 0.90).
struct Probe {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;  ///< Thread CPU time: excludes hypervisor steal.
};

constexpr std::size_t kProbeWords = std::size_t{1} << 17;
constexpr std::size_t kProbeSlots = std::size_t{1} << 16;
constexpr std::size_t kProbeNumbers = 20000;
std::uint64_t g_probe_words[kProbeWords];
std::uint64_t g_probe_keys[kProbeSlots];
std::uint64_t g_probe_sums[kProbeSlots];
char g_probe_text[kProbeNumbers * 21 + 1];

/// Touches the probe's buffers once, untimed, so that no probe pays for
/// the first use of their pages.
void warm_probe() {
  std::memset(g_probe_words, 1, sizeof(g_probe_words));
  std::memset(g_probe_keys, 1, sizeof(g_probe_keys));
  std::memset(g_probe_sums, 1, sizeof(g_probe_sums));
  std::memset(g_probe_text, 1, sizeof(g_probe_text));
}

Probe probe() {
  const auto t0 = Clock::now();
  const double cpu0 = cpu_seconds(CLOCK_THREAD_CPUTIME_ID);
  std::uint64_t x = 88172645463325252ull;
  for (auto& e : g_probe_words) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    e = x;
  }
  std::sort(std::begin(g_probe_words), std::end(g_probe_words));
  // Open addressing, linear probing; key 0 marks a free slot.
  std::memset(g_probe_keys, 0, sizeof(g_probe_keys));
  std::memset(g_probe_sums, 0, sizeof(g_probe_sums));
  for (std::size_t i = 0; i < kProbeWords; i += 4) {
    const std::uint64_t key = (g_probe_words[i] >> 7) | 1;
    std::size_t slot = (key * 0x9e3779b97f4a7c15ull) >> 48;
    while (g_probe_keys[slot] != 0 && g_probe_keys[slot] != key) {
      slot = (slot + 1) & (kProbeSlots - 1);
    }
    g_probe_keys[slot] = key;
    g_probe_sums[slot] += i;
  }
  std::size_t length = 0;
  for (std::size_t i = 0; i < kProbeNumbers; ++i) {
    length += static_cast<std::size_t>(std::snprintf(
        g_probe_text + length, sizeof(g_probe_text) - length, "%llu ",
        static_cast<unsigned long long>(g_probe_words[i])));
  }
  if (length == 0 || g_probe_sums[0] == ~0ull) die("probe");
  return {seconds_since(t0) * 1e3,
          (cpu_seconds(CLOCK_THREAD_CPUTIME_ID) - cpu0) * 1e3};
}

/// Probe time on the reference machine, a 4-vCPU 2.1 GHz Xeon VM, when
/// nothing else runs on it (run medians of 13.8-15.7 ms). Timings are
/// reported at that speed.
constexpr double kProbeRefMs = 15.0;
/// Probes on each side of a pass. One 15 ms probe catches the machine's
/// millisecond-scale jitter as much as its speed; the median of six
/// steadied the scaled rate of repeated runs of the same input.
constexpr int kProbesPerSide = 3;

/// What a forked pass sends back to the parent.
struct ChildResult {
  PassResult pass;
  double setup_s = 0.0;
  double rss_mb = 0.0;
  Probe probe;  ///< Median of the probes before and after the pass.
};

void put_raw(std::string& out, const void* p, std::size_t n) {
  out.append(static_cast<const char*>(p), n);
}

bool get_raw(std::string_view& in, void* p, std::size_t n) {
  if (in.size() < n) return false;
  std::memcpy(p, in.data(), n);
  in.remove_prefix(n);
  return true;
}

std::string encode(const ChildResult& c) {
  std::string out;
  const PassResult& p = c.pass;
  for (const double v : {p.wall_s, p.cpu_s, c.setup_s, c.rss_mb, c.probe.wall_ms,
                        c.probe.cpu_ms}) {
    put_raw(out, &v, sizeof(v));
  }
  const std::uint64_t counts[] = {p.events, p.attempted, p.failed,
                                  p.verdict_ms.size()};
  put_raw(out, counts, sizeof(counts));
  put_raw(out, p.verdict_ms.data(), p.verdict_ms.size() * sizeof(double));
  return out;
}

std::optional<ChildResult> decode(std::string_view in) {
  ChildResult c;
  PassResult& p = c.pass;
  std::uint64_t counts[4] = {};
  if (!get_raw(in, &p.wall_s, sizeof(double)) ||
      !get_raw(in, &p.cpu_s, sizeof(double)) ||
      !get_raw(in, &c.setup_s, sizeof(double)) ||
      !get_raw(in, &c.rss_mb, sizeof(double)) ||
      !get_raw(in, &c.probe.wall_ms, sizeof(double)) ||
      !get_raw(in, &c.probe.cpu_ms, sizeof(double)) ||
      !get_raw(in, counts, sizeof(counts)) ||
      in.size() != counts[3] * sizeof(double)) {
    return std::nullopt;
  }
  p.events = counts[0];
  p.attempted = counts[1];
  p.failed = counts[2];
  p.verdict_ms.resize(counts[3]);
  get_raw(in, p.verdict_ms.data(), in.size());
  return c;
}

/// Runs `fn` in a child forked from this (single-threaded) process and
/// returns what it sent back, or nullopt if the child failed. Every pass
/// thus starts from the same heap, and the child's peak RSS is that one
/// pass's.
template <typename Fn>
std::optional<ChildResult> in_child(const Fn& fn) {
  int fds[2];
  if (pipe(fds) != 0) die("pipe failed");
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) die("fork failed");
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    try {
      reset_peak_rss();
      const std::string blob = encode(fn());
      for (std::size_t done = 0; done < blob.size();) {
        const ssize_t n = write(fds[1], blob.data() + done, blob.size() - done);
        if (n <= 0) {
          code = 1;
          break;
        }
        done += static_cast<std::size_t>(n);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "flowbench: pass failed: %s\n", e.what());
      code = 1;
    }
    close(fds[1]);
    _exit(code);
  }
  close(fds[1]);
  std::string blob;
  char buf[1 << 16];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) != 0;) {
    if (n < 0) {
      if (errno == EINTR) continue;
      break;
    }
    blob.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) return std::nullopt;
  return decode(blob);
}

/// The end-to-end run. Each pass runs in its own child process: host
/// probes, one set-up sample, the pass, more probes. Passes continue until
/// `seconds` elapsed and kMinVerdicts verdicts were timed. Every timing of
/// a pass is scaled to the reference machine speed by the pass's probe
/// time (the median of its probes; wall timings by the probe's wall time,
/// CPU timings by its CPU time) over kProbeRefMs: the machine this
/// was tuned on changes speed by up to 2x within seconds and between
/// minutes, and the scaling divides that out while a slower program still
/// shows in full. The metrics are medians over passes (rates, set-up time,
/// peak RSS) and percentiles over all verdicts.
Result measure_e2e(const Workload& w, double seconds) {
  std::vector<TenantOracle> serve_truth;
  std::vector<std::string> offline_truth;
  std::optional<OfflineRig> offline_rig;
  if (w.offline) {
    offline_truth = offline_oracle(w);
    offline_rig.emplace(build_offline_rig(w));
  } else {
    serve_truth = serve_oracle(w);
  }
  const ServeMode mode{w.workers, w.obs};
  malloc_trim(0);
  const auto pass = [&] {
    ChildResult c;
    warm_probe();
    std::array<Probe, 2 * kProbesPerSide> taken;
    std::size_t next = 0;
    const auto probes = [&] {
      for (int i = 0; i < kProbesPerSide; ++i) taken[next++] = probe();
    };
    probes();
    if (w.offline) {
      c.setup_s = setup_sample([&] { return build_offline_rig(w); });
      c.pass = offline_pass(w, *offline_rig, offline_truth, nullptr);
    } else {
      c.setup_s = setup_sample([&] { return build_serve_rig(w, mode); });
      c.pass = serve_pass(w, serve_truth, mode, nullptr, false);
    }
    c.rss_mb = peak_rss_mb();
    probes();
    std::vector<double> wall_ms;
    std::vector<double> cpu_ms;
    for (const Probe& p : taken) {
      wall_ms.push_back(p.wall_ms);
      cpu_ms.push_back(p.cpu_ms);
    }
    c.probe = {median(wall_ms), median(cpu_ms)};
    return c;
  };
  const auto rate = [](const ChildResult& c) {
    return static_cast<double>(c.pass.events) / c.pass.wall_s;
  };

  Result result;
  std::vector<double> rates;
  std::vector<double> cpu_ns;
  std::vector<double> setups;
  std::vector<double> rss;
  std::vector<double> latencies;
  std::vector<double> probes;
  // The same figures before scaling, printed for checking.
  std::vector<double> raw_rates;
  std::vector<double> raw_cpu_ns;
  std::vector<double> raw_setups;
  std::vector<double> raw_latencies;
  const auto start = Clock::now();
  for (;;) {
    const auto child = in_child(pass);
    if (!child) die("a timed pass failed");
    const PassResult& p = child->pass;
    result.add(p);
    // > 1 when the machine ran slower than the reference: wall timings
    // scale by the probe's wall time, CPU timings by its CPU time.
    const double slow = child->probe.wall_ms / kProbeRefMs;
    const double slow_cpu = child->probe.cpu_ms / kProbeRefMs;
    probes.push_back(child->probe.wall_ms);
    raw_rates.push_back(rate(*child));
    raw_cpu_ns.push_back(p.cpu_s * 1e9 / static_cast<double>(p.events));
    raw_setups.push_back(child->setup_s);
    rates.push_back(raw_rates.back() * slow);
    cpu_ns.push_back(raw_cpu_ns.back() / slow_cpu);
    setups.push_back(child->setup_s / slow);
    rss.push_back(child->rss_mb);
    for (const double ms : p.verdict_ms) {
      raw_latencies.push_back(ms);
      latencies.push_back(ms / slow);
    }
    const double elapsed = seconds_since(start);
    if ((elapsed >= seconds && latencies.size() >= kMinVerdicts &&
         rates.size() >= 4) ||
        elapsed >= 4 * seconds) {
      break;
    }
  }
  std::printf(
      "flowbench: %zu timed passes, %zu verdicts, host probe %.2f ms "
      "(median; %.2f ms at reference speed); unscaled: events_per_s %.6g "
      "cpu_ns_per_event %.6g verdict_ms_p50 %.6g verdict_ms_p95 %.6g "
      "setup_s %.6g\n",
      rates.size(), latencies.size(), median(probes), kProbeRefMs,
      median(raw_rates), median(raw_cpu_ns), quantile(raw_latencies, 0.5),
      quantile(raw_latencies, 0.95), median(raw_setups));
  if (latencies.size() < kMinVerdicts) ++result.failed;
  result.put("events_per_s", median(rates), "ev/s");
  result.put("cpu_ns_per_event", median(cpu_ns), "ns");
  result.put("verdict_ms_p50", quantile(latencies, 0.5), "ms");
  result.put("verdict_ms_p95", quantile(latencies, 0.95), "ms");
  result.put("rss_peak_mb", median(rss), "MB");
  result.put("setup_s", median(setups), "s");
  return result;
}

// --- per-layer ledger ------------------------------------------------------

/// The workload as the serve-path ledger sees it. offline_diff's captures
/// are consecutive windows of one lab, so they concatenate into one
/// tenant's stream.
Workload ledger_workload(const Workload& w) {
  if (!w.offline) return w;
  Workload lw = w;
  std::string stream = of::read_file(w.baseline).value_or("");
  for (const std::string& path : w.currents) {
    stream += of::read_file(path).value_or("");
  }
  const std::string path = w.dir + "/ledger_tenant_0.log";
  if (!of::write_file(path, stream)) die("cannot write " + path);
  lw.tenants = {chunk_file("tenant_0", path, w.poll)};
  return lw;
}

using Allocs = std::array<std::uint64_t, heap::kLayerCount>;

Allocs alloc_counts() {
  Allocs out{};
  for (int l = 0; l < heap::kLayerCount; ++l) {
    out[static_cast<std::size_t>(l)] =
        heap::allocs(static_cast<heap::Layer>(l));
  }
  return out;
}

/// Allocation accounting on for its lifetime. Only single-threaded passes
/// and the heap-peak pass run under it: with worker threads, every
/// allocation would contend on the shared counters and skew the timings.
class Accounting {
 public:
  Accounting() { heap::set_enabled(true); }
  ~Accounting() { heap::set_enabled(false); }
  Accounting(const Accounting&) = delete;
  Accounting& operator=(const Accounting&) = delete;
};

struct LayerTotals {
  Allocs allocs{};
  double source_s = 0.0;
  std::uint64_t source_events = 0;
  double parse_s = 0.0;
  std::uint64_t parse_events = 0;
  double sanitize_s = 0.0;
  std::uint64_t fed = 0;
  std::uint64_t kept = 0;
  std::size_t buffered_peak = 0;
  double monitor_s = 0.0;
  double monitor_close_s = 0.0;
  std::uint64_t monitor_events = 0;
  double retained_per_event = 0.0;
  std::uint64_t fallbacks = 0;
  std::uint64_t incremental_windows = 0;
  std::vector<double> model_ms;
  std::uint64_t model_events = 0;
  std::vector<double> diff_ms;
  std::uint64_t alarms = 0;
};

std::uint64_t counter(const obs::Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

/// Isolated single-threaded passes over one tenant's capture, one layer at
/// a time, each fed the previous layer's output: source (tail + poll),
/// parse, sanitize, monitor (sanitizer off, fed the restored stream),
/// model and diff (from scratch, per window of the restored stream).
/// Adds into `acc` and returns the allocations each layer made.
Allocs isolated_layers(const Workload& lw, const TenantInput& t,
                       LayerTotals& acc, Tracer* tracer) {
  const Accounting accounting;
  const Allocs before = alloc_counts();
  const core::MonitorOptions options = load_options(lw, lw.options);
  const auto timed = [](double* total, auto&& fn) {
    const auto t0 = Clock::now();
    fn();
    *total += seconds_since(t0);
  };

  {
    const std::string tail = tail_path(lw, t);
    Fd in(t.path);
    TailFile out(tail);
    ingest::FileTailSource source(t.name, ingest::FileTailConfig{tail, true});
    std::string buf(t.max_chunk, '\0');
    std::vector<of::ControlEvent> batch;
    for (const auto& [offset, size] : t.chunks) {
      if (pread(in.get(), buf.data(), size, static_cast<off_t>(offset)) !=
              static_cast<ssize_t>(size) ||
          write(out.get(), buf.data(), size) != static_cast<ssize_t>(size)) {
        die("cannot append chunk of " + t.name);
      }
      batch.clear();
      timed(&acc.source_s, [&] {
        Span span(tracer, "source.poll");
        heap::Scope scope(heap::kSource);
        source.poll(batch);
      });
    }
    acc.source_events += source.stats().events;
  }

  const auto text = of::read_file(t.path);
  if (!text) die("cannot read " + t.path);
  std::vector<std::vector<of::ControlEvent>> arrivals;
  std::size_t total = 0;
  for (const auto& [offset, size] : t.chunks) {
    std::optional<std::vector<of::ControlEvent>> events;
    timed(&acc.parse_s, [&] {
      Span span(tracer, "log_io.parse");
      heap::Scope scope(heap::kParse);
      events = of::parse_control_events(
          std::string_view(*text).substr(offset, size));
    });
    if (!events) die("cannot parse " + t.path);
    total += events->size();
    arrivals.push_back(std::move(*events));
  }
  acc.parse_events += total;

  std::vector<of::ControlEvent> restored;
  restored.reserve(total);
  std::vector<std::size_t> cuts;
  {
    ingest::StreamSanitizer sanitizer(options.monitor_config().ingest);
    const ingest::StreamSanitizer::Sink sink =
        [&restored](const of::ControlEvent& e) { restored.push_back(e); };
    for (const auto& chunk : arrivals) {
      timed(&acc.sanitize_s, [&] {
        Span span(tracer, "sanitizer.push");
        heap::Scope scope(heap::kSanitize);
        sanitizer.push(chunk, sink);
      });
      acc.buffered_peak = std::max(acc.buffered_peak, sanitizer.buffered());
      cuts.push_back(restored.size());
    }
    timed(&acc.sanitize_s, [&] {
      Span span(tracer, "sanitizer.flush");
      heap::Scope scope(heap::kSanitize);
      sanitizer.flush(sink);
    });
    cuts.push_back(restored.size());
    acc.fed += sanitizer.total().fed;
    acc.kept += sanitizer.total().kept;
  }
  arrivals.clear();
  std::vector<std::vector<of::ControlEvent>> batches;
  for (std::size_t i = 0, from = 0; i < cuts.size(); from = cuts[i++]) {
    batches.emplace_back(restored.begin() + static_cast<std::ptrdiff_t>(from),
                         restored.begin() + static_cast<std::ptrdiff_t>(cuts[i]));
  }

  core::MonitorOptions plain = options;
  plain.sanitize = false;
  plain.lateness.reset();
  {
    const std::int64_t live0 = heap::live_bytes();
    std::int64_t retained = 0;
    core::SlidingMonitor monitor(plain);
    for (const auto& batch : batches) {
      timed(&acc.monitor_s, [&] {
        Span span(tracer, "monitor.feed");
        heap::Scope scope(heap::kMonitor);
        monitor.feed(batch);
      });
      retained = std::max(retained, heap::live_bytes() - live0);
    }
    timed(&acc.monitor_s, [&] {
      Span span(tracer, "monitor.flush");
      heap::Scope scope(heap::kMonitor);
      monitor.flush();
    });
    std::size_t largest = 1;
    for (const auto& audit : monitor.audits()) {
      acc.monitor_close_s += audit.wall_ms * 1e-3;
      largest = std::max(largest, audit.events);
    }
    acc.monitor_events += restored.size();
    acc.retained_per_event =
        std::max(acc.retained_per_event,
                 static_cast<double>(retained) / static_cast<double>(largest));
  }
  {
    // The incremental modeler's fallback counter lives in obs.
    obs::Registry::global().reset();
    obs::set_enabled(true);
    {
      core::SlidingMonitor monitor(plain);
      for (const auto& batch : batches) monitor.feed(batch);
      monitor.flush();
    }
    obs::set_enabled(false);
    const obs::Snapshot snap = obs::Registry::global().snapshot();
    acc.fallbacks += counter(snap, "monitor.incremental.fallbacks");
    acc.incremental_windows += counter(snap, "monitor.incremental.windows");
  }

  const core::FlowDiff flowdiff(plain.monitor_config().flowdiff);
  std::optional<core::BehaviorModel> baseline;
  SimTime window_start = restored.empty() ? 0 : restored.front().ts;
  for (std::size_t i = 0; i < restored.size(); window_start += kWindow) {
    of::ControlLog log;
    while (i < restored.size() && restored[i].ts < window_start + kWindow) {
      log.append(restored[i++]);
    }
    if (log.empty()) continue;
    core::BehaviorModel model;
    double ms = 0.0;
    timed(&ms, [&] {
      Span span(tracer, "model");
      heap::Scope scope(heap::kModel);
      model = flowdiff.model(log);
    });
    acc.model_ms.push_back(ms * 1e3);
    acc.model_events += log.size();
    if (!baseline) {
      baseline = std::move(model);
      continue;
    }
    core::DiffReport report;
    ms = 0.0;
    timed(&ms, [&] {
      Span span(tracer, "diff");
      heap::Scope scope(heap::kDiff);
      report = flowdiff.diff(*baseline, model, plain.tasks);
    });
    acc.diff_ms.push_back(ms * 1e3);
    if (!report.clean()) ++acc.alarms;
  }

  Allocs delta = alloc_counts();
  for (std::size_t l = 0; l < delta.size(); ++l) delta[l] -= before[l];
  for (std::size_t l = 0; l < delta.size(); ++l) acc.allocs[l] += delta[l];
  return delta;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// The traced run: the per-layer ledger.
Result measure_ledger(const Workload& w, double seconds,
                      const std::string& spans_path) {
  Tracer tracer;
  Result result;
  const Workload lw = ledger_workload(w);
  const auto truth = serve_oracle(lw);
  const ServeMode mode{lw.workers, lw.obs};
  std::vector<std::string> offline_truth;
  std::optional<OfflineRig> offline_rig;
  if (w.offline) {
    offline_truth = offline_oracle(w);
    offline_rig.emplace(build_offline_rig(w));
  }
  const auto e2e_pass = [&](bool traced) {
    tracer.set_on(traced);
    PassResult p = w.offline
                       ? offline_pass(w, *offline_rig, offline_truth, &tracer)
                       : serve_pass(lw, truth, mode, &tracer, false);
    tracer.set_on(false);
    result.add(p);
    return p;
  };
  const auto start = Clock::now();

  // The live-heap peak: one untraced pass of the workload's own mode under
  // allocation accounting, measured above the heap it starts from. Its
  // timing is not used.
  double live_peak = 0.0;
  {
    const Accounting accounting;
    const std::int64_t live0 = heap::live_bytes();
    heap::reset_peak();
    e2e_pass(false);
    live_peak = static_cast<double>(heap::peak_bytes() - live0);
  }

  // Tracing overhead: pairs of the workload's own timed pass, untraced and
  // traced, in alternating order. A/B costs here and below are medians of
  // per-pair time ratios: the two passes of a pair run back to back, so a
  // change in the machine's speed between pairs cancels out.
  std::vector<double> trace_ratio;
  for (int i = 0; i < 8 && (i < 3 || seconds_since(start) < seconds / 3); ++i) {
    double wall[2] = {};
    for (int side = 0; side < 2; ++side) {
      const bool traced = (i + side) % 2 == 1;
      wall[traced ? 1 : 0] = e2e_pass(traced).wall_s;
    }
    trace_ratio.push_back(wall[1] / wall[0]);
  }

  // Manager and window closes, on the serve path (offline_diff: its
  // captures as one tenant): one traced pass in the workload's own mode.
  tracer.set_on(true);
  const std::size_t from = tracer.size();
  const PassResult traced = serve_pass(lw, truth, mode, &tracer, false);
  tracer.set_on(false);
  result.add(traced);
  // The shard backlog: one untraced pass on 2 workers counting the events
  // queued but not yet fed to a shard's monitor. Its timing is not used.
  const PassResult queued = serve_pass(lw, truth, {2, lw.obs}, nullptr, true);
  result.add(queued);
  const double feed_ns =
      tracer.total_s("manager.feed", from) * 1e9 / static_cast<double>(traced.events);
  std::vector<double> close_clean;
  std::vector<double> close_alarm;
  std::vector<double> close_all;
  for (const auto& audit : traced.audits) {
    (audit.alarmed ? close_alarm : close_clean).push_back(audit.wall_ms);
    close_all.push_back(audit.wall_ms);
  }

  // Parallel speed-up and obs cost: pairs of untraced passes.
  std::vector<double> speedup;
  std::vector<double> busy;
  std::vector<double> obs_ratio;
  std::vector<double> scrape_ms;
  for (int i = 0; i < 5; ++i) {
    const PassResult par =
        serve_pass(lw, truth, {2, lw.obs}, nullptr, false);
    const PassResult inl =
        serve_pass(lw, truth, {0, lw.obs}, nullptr, false);
    const PassResult off =
        serve_pass(lw, truth, {lw.workers, false}, nullptr, false);
    const PassResult on =
        serve_pass(lw, truth, {lw.workers, true}, nullptr, false);
    for (int k = 0; k < 12; ++k) {
      const auto t0 = Clock::now();
      obs::update_process_gauges();
      const std::string page = obs::render_prometheus(obs::snapshot());
      scrape_ms.push_back(seconds_since(t0) * 1e3);
      if (page.empty()) ++result.failed;
    }
    obs::set_enabled(false);
    for (const PassResult* p : {&par, &inl, &off, &on}) result.add(*p);
    speedup.push_back(inl.wall_s / par.wall_s);
    busy.push_back((par.cpu_s - par.main_cpu_s) / (2.0 * par.wall_s));
    obs_ratio.push_back(on.wall_s / off.wall_s);
  }

  // Isolated layer passes over up to four tenants, then the first tenant
  // again: its allocation counts must repeat exactly.
  LayerTotals acc;
  Allocs first{};
  const std::size_t tenants = std::min<std::size_t>(lw.tenants.size(), 4);
  tracer.set_on(true);
  for (std::size_t i = 0; i < tenants; ++i) {
    const Allocs a = isolated_layers(lw, lw.tenants[i], acc, &tracer);
    if (i == 0) first = a;
  }
  tracer.set_on(false);
  LayerTotals again;
  const Allocs repeat = isolated_layers(lw, lw.tenants[0], again, nullptr);
  for (const heap::Layer layer : {heap::kSource, heap::kParse, heap::kSanitize,
                                  heap::kMonitor, heap::kModel, heap::kDiff}) {
    if (first[layer] != repeat[layer]) {
      std::fprintf(stderr,
                   "flowbench: allocation counts of layer %d differ between "
                   "two passes over the same input (%llu vs %llu)\n",
                   static_cast<int>(layer),
                   static_cast<unsigned long long>(first[layer]),
                   static_cast<unsigned long long>(repeat[layer]));
      ++result.failed;
    }
  }

  if (!spans_path.empty() && !of::write_file(spans_path, tracer.render())) {
    die("cannot write " + spans_path);
  }
  const auto per_event = [](std::uint64_t allocs, std::uint64_t events) {
    return ratio(static_cast<double>(allocs), static_cast<double>(events));
  };
  const auto ns_per = [](double s, std::uint64_t events) {
    return ratio(s * 1e9, static_cast<double>(events));
  };
  const auto pct = [](const std::vector<double>& ratios) {
    return (median(ratios) - 1.0) * 100.0;
  };
  result.put("source.ns_per_event", ns_per(acc.source_s, acc.source_events), "ns");
  result.put("source.allocs_per_event",
             per_event(acc.allocs[heap::kSource], acc.source_events), "allocs/ev");
  result.put("parse.ns_per_event", ns_per(acc.parse_s, acc.parse_events), "ns");
  result.put("parse.allocs_per_event",
             per_event(acc.allocs[heap::kParse], acc.parse_events), "allocs/ev");
  result.put("sanitize.ns_per_event", ns_per(acc.sanitize_s, acc.fed), "ns");
  result.put("sanitize.allocs_per_event",
             per_event(acc.allocs[heap::kSanitize], acc.fed), "allocs/ev");
  result.put("sanitize.buffered_peak_events",
             static_cast<double>(acc.buffered_peak), "events");
  result.put("sanitize.kept_share",
             ratio(static_cast<double>(acc.kept), static_cast<double>(acc.fed)),
             "ratio");
  result.put("manager.feed_ns_per_event", feed_ns, "ns");
  result.put("manager.backlog_peak_events",
             static_cast<double>(queued.backlog_peak), "events");
  result.put("manager.worker_busy_share", median(busy), "ratio");
  result.put("manager.speedup_vs_inline",
             median(speedup), "x");
  result.put("monitor.feed_ns_per_event",
             ns_per(acc.monitor_s - acc.monitor_close_s, acc.monitor_events),
             "ns");
  result.put("monitor.allocs_per_event",
             per_event(acc.allocs[heap::kMonitor], acc.monitor_events),
             "allocs/ev");
  result.put("monitor.close_ms_clean_p50", median(close_clean), "ms");
  result.put("monitor.close_ms_alarm_p50", median(close_alarm), "ms");
  result.put("monitor.close_ms_p95", quantile(close_all, 0.95), "ms");
  result.put("monitor.retained_bytes_per_event", acc.retained_per_event, "B/ev");
  result.put("monitor.fallback_share",
             ratio(static_cast<double>(acc.fallbacks),
                   static_cast<double>(acc.incremental_windows)),
             "ratio");
  result.put("model.ms_per_capture", median(acc.model_ms), "ms");
  result.put("model.allocs_per_event",
             per_event(acc.allocs[heap::kModel], acc.model_events), "allocs/ev");
  result.put("diff.ms_p50", median(acc.diff_ms), "ms");
  result.put("diff.alarm_share",
             ratio(static_cast<double>(acc.alarms),
                   static_cast<double>(acc.diff_ms.size())),
             "ratio");
  result.put("obs.overhead_pct", pct(obs_ratio), "%");
  result.put("obs.scrape_ms", median(scrape_ms), "ms");
  result.put("heap.live_peak_mb", live_peak / (1024.0 * 1024.0), "MB");
  result.put("trace.overhead_pct", pct(trace_ratio), "%");
  std::printf("flowbench: ledger: %zu untraced/traced pass pairs, %zu closes "
              "(%zu alarmed), %zu spans\n",
              trace_ratio.size(), close_all.size(), close_alarm.size(),
              tracer.size());
  return result;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: flowbench gen --workload W --seed N --dir DIR\n"
                 "       flowbench run --workload W --dir DIR --seconds S "
                 "--trace 0|1 [--spans FILE] [--poll-ms MS] [--workers N]\n");
    return 2;
  }
  const std::string command = argv[1];
  std::map<std::string, std::string> args;
  for (int i = 2; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  const auto arg = [&args](const std::string& key) -> std::string {
    const auto it = args.find(key);
    if (it == args.end()) die("missing " + key);
    return it->second;
  };
  try {
    if (command == "gen") {
      const std::string error = generate(
          arg("--workload"), std::stoull(arg("--seed")), arg("--dir"));
      if (!error.empty()) die(error);
      return 0;
    }
    if (command != "run") die("unknown command " + command);
    // glibc raises its mmap and trim thresholds after each large free, so
    // where large buffers land, and so the peak RSS, would depend on what
    // the process did before. Pin both where a long-running process ends
    // up: the mmap threshold at glibc's 32 MiB ceiling, trimming at twice
    // that.
    mallopt(M_MMAP_THRESHOLD, 32 << 20);
    mallopt(M_TRIM_THRESHOLD, 64 << 20);
    const bool trace = arg("--trace") == "1";
    const double seconds = std::stod(arg("--seconds"));
    // --poll-ms changes the capture time per appended chunk, to see how
    // much the poll interval decides the serve figures.
    const SimDuration poll = args.count("--poll-ms") != 0
                                 ? std::stoll(args["--poll-ms"]) * kMillisecond
                                 : kPollInterval;
    if (poll <= 0) die("--poll-ms must be positive");
    Workload w = describe(arg("--workload"), arg("--dir"), poll);
    // --workers changes the manager's worker count in the timed serve
    // passes, to see how much the thread count decides the figures.
    if (args.count("--workers") != 0) w.workers = std::stoi(args["--workers"]);
    if (w.workers < 0) die("--workers must not be negative");
    std::printf("flowbench: workload=%s seed=%llu input_hash=%s\n",
                w.name.c_str(), static_cast<unsigned long long>(w.manifest.seed),
                w.manifest.input_hash.c_str());
    const Result result =
        trace ? measure_ledger(w, seconds,
                               args.count("--spans") ? args["--spans"] : "")
              : measure_e2e(w, seconds);
    std::printf("%s\n", result.json().c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "flowbench: %s\n", e.what());
    return 1;
  }
}
