// `flowdiff serve` end to end: fork/exec of the real binary tailing live
// sources. Pins the acceptance bar for the daemon: a single-tenant serve
// over a corpus capture is byte-identical to `flowdiff monitor` (the
// committed golden transcript); two concurrent sources (file-follow +
// socket) demux into independent tenants served over /tenants; SIGTERM
// flushes every shard's final window.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "experiment/corpus.h"
#include "flowdiff/monitor.h"
#include "flowdiff/monitor_manager.h"
#include "openflow/log_io.h"
#include "http_test_util.h"

namespace flowdiff {
namespace {

namespace fs = std::filesystem;
using flowdiff::testing::HttpResult;
using flowdiff::testing::http_get;

struct Corpus {
  explicit Corpus(const std::string& stem) {
    log_path = fs::path(FLOWDIFF_CORPUS_DIR) / (stem + ".log");
    const auto text = of::read_file(log_path.string());
    if (!text) ADD_FAILURE() << "unreadable: " << log_path;
    raw = *text;
    const auto parsed = exp::parse_corpus_case(raw);
    if (!parsed) ADD_FAILURE() << "unparseable: " << log_path;
    corpus_case = *parsed;
    fs::path golden_path = log_path;
    golden_path.replace_extension(".golden");
    const auto golden_text = of::read_file(golden_path.string());
    if (!golden_text) ADD_FAILURE() << "unreadable: " << golden_path;
    golden = *golden_text;
  }

  /// Writes the header's service IPs one per line for --services.
  [[nodiscard]] std::string write_services(const fs::path& path) const {
    std::string text;
    for (const Ipv4 ip : corpus_case.options.services) {
      text += ip.to_string() + "\n";
    }
    EXPECT_TRUE(of::write_file(path.string(), text));
    return path.string();
  }

  [[nodiscard]] std::string window_seconds() const {
    return std::to_string(
        static_cast<long long>(to_seconds(corpus_case.options.window)));
  }

  fs::path log_path;
  std::string raw;
  exp::CorpusCase corpus_case;
  std::string golden;
};

struct Child {
  pid_t pid = -1;
  int out_fd = -1;
  std::string seen;  ///< stdout consumed so far.

  ~Child() {
    if (out_fd >= 0) ::close(out_fd);
    if (pid > 0) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }

  /// Reads stdout until `needle` appears (timeout -> empty). Returns the
  /// full line containing it.
  std::string wait_for_line(const std::string& needle) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (std::chrono::steady_clock::now() < deadline) {
      const std::size_t at = seen.find(needle);
      if (at != std::string::npos) {
        const std::size_t eol = seen.find('\n', at);
        if (eol != std::string::npos) {
          const std::size_t bol = seen.rfind('\n', at);
          const std::size_t begin = bol == std::string::npos ? 0 : bol + 1;
          return seen.substr(begin, eol - begin);
        }
      }
      char buf[512];
      const ssize_t n = ::read(out_fd, buf, sizeof(buf));
      if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) return {};
      if (n <= 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
      if (n > 0) seen.append(buf, static_cast<std::size_t>(n));
    }
    return {};
  }

  /// Reaps the child; -1 if it never exits.
  int wait_exit(int timeout_s = 90) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(timeout_s);
    int status = 0;
    while (std::chrono::steady_clock::now() < deadline) {
      // Keep draining stdout so the child never blocks on a full pipe.
      char buf[512];
      const ssize_t n = ::read(out_fd, buf, sizeof(buf));
      if (n > 0) seen.append(buf, static_cast<std::size_t>(n));
      const pid_t waited = ::waitpid(pid, &status, WNOHANG);
      if (waited == pid) {
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -2;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return -1;
  }
};

/// fork/execs `flowdiff <args>` with stdout piped back (non-blocking so
/// wait_for_line can poll) and, given `stderr_path`, stderr written there.
Child spawn_cli(const std::vector<std::string>& args,
                const std::string& stderr_path = {}) {
  Child child;
  int out_pipe[2];
  if (::pipe(out_pipe) != 0) return child;
  const pid_t pid = ::fork();
  if (pid < 0) return child;
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    if (!stderr_path.empty()) {
      const int err_fd =
          ::open(stderr_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (err_fd >= 0) ::dup2(err_fd, STDERR_FILENO);
    }
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    std::vector<char*> argv;
    std::vector<std::string> strings;
    strings.emplace_back("flowdiff");
    for (const auto& arg : args) strings.push_back(arg);
    argv.reserve(strings.size() + 1);
    for (auto& s : strings) argv.push_back(s.data());
    argv.push_back(nullptr);
    ::execv(FLOWDIFF_CLI_PATH, argv.data());
    _exit(127);
  }
  ::close(out_pipe[1]);
  child.pid = pid;
  child.out_fd = out_pipe[0];
  // Non-blocking stdout: wait_for_line polls.
  ::fcntl(child.out_fd, F_SETFL, O_NONBLOCK);
  return child;
}

Child spawn_serve(std::vector<std::string> args,
                  const std::string& stderr_path = {}) {
  args.insert(args.begin(), "serve");
  return spawn_cli(args, stderr_path);
}

std::uint16_t parse_trailing_port(const std::string& line) {
  const std::size_t colon = line.rfind(':');
  if (colon == std::string::npos) return 0;
  return static_cast<std::uint16_t>(std::atoi(line.c_str() + colon + 1));
}

void send_text(std::uint16_t port, const std::string& text) {
  const int fd = flowdiff::testing::http_connect(port);
  ASSERT_GE(fd, 0);
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::send(fd, text.data() + off, text.size() - off, 0);
    ASSERT_GT(n, 0);
    off += static_cast<std::size_t>(n);
  }
  ::close(fd);
}

std::optional<HttpResult> get_with_retry(std::uint16_t port,
                                         const std::string& target) {
  for (int attempt = 0; attempt < 150; ++attempt) {
    auto result = http_get(port, target);
    if (result) return result;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  return std::nullopt;
}

TEST(ServeCli, SingleTenantFollowIsByteIdenticalToMonitorGolden) {
  const Corpus corpus("steady");
  const fs::path dir =
      fs::path(::testing::TempDir()) / "serve_single_tenant";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");
  const fs::path transcripts = dir / "transcripts";

  // The corpus capture tails verbatim: its '#' header lines are comments
  // to the file parser and to the tail source alike.
  Child child = spawn_serve({"--follow", corpus.log_path.string() + "@t0",
                             "--window", corpus.window_seconds(),
                             "--services", services, "--transcripts",
                             transcripts.string(), "--poll-ms", "20",
                             "--exit-after-idle", "0.5"});
  ASSERT_GT(child.pid, 0);
  ASSERT_FALSE(child.wait_for_line("-> tenant t0").empty());
  EXPECT_EQ(child.wait_exit(), 0) << "steady corpus must serve cleanly";

  const auto transcript =
      of::read_file((transcripts / "t0.transcript").string());
  ASSERT_TRUE(transcript.has_value());
  EXPECT_EQ(*transcript, corpus.golden)
      << "serve over a followed file drifted from `flowdiff monitor`";
}

TEST(ServeCli, AlarmedTenantExitsNonZero) {
  const Corpus corpus("slowdown");
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_alarmed";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");

  Child child = spawn_serve({"--follow", corpus.log_path.string() + "@t0",
                             "--window", corpus.window_seconds(),
                             "--services", services, "--poll-ms", "20",
                             "--exit-after-idle", "0.5"});
  ASSERT_GT(child.pid, 0);
  EXPECT_EQ(child.wait_exit(), 1);
  EXPECT_NE(child.seen.find("alarms"), std::string::npos);
}

TEST(ServeCli, FileAndSocketTenantsDemuxServeTelemetryAndFlushOnSigterm) {
  const Corpus corpus("steady");
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_two_tenant";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");
  const fs::path transcripts = dir / "transcripts";

  // Tenant "filet" follows a file that grows after startup; tenant
  // "sockt" receives the same capture over TCP. Two concurrent live
  // sources, one daemon.
  const fs::path grown = dir / "grown.log";
  ASSERT_TRUE(of::write_file(grown.string(), ""));

  Child child = spawn_serve(
      {"--follow", grown.string() + "@filet", "--socket",
       "127.0.0.1:0@sockt", "--window", corpus.window_seconds(),
       "--services", services, "--transcripts", transcripts.string(),
       "--poll-ms", "20", "--listen", "127.0.0.1:0"});
  ASSERT_GT(child.pid, 0);

  const std::string plane_line = child.wait_for_line("listening on http://");
  ASSERT_FALSE(plane_line.empty()) << "no telemetry announcement";
  const std::uint16_t plane_port = parse_trailing_port(plane_line);
  ASSERT_NE(plane_port, 0);
  const std::string sock_line = child.wait_for_line("-> tenant sockt");
  ASSERT_FALSE(sock_line.empty()) << "no socket source announcement";
  const std::size_t arrow = sock_line.find(" -> ");
  ASSERT_NE(arrow, std::string::npos);
  const std::uint16_t sock_port =
      parse_trailing_port(sock_line.substr(0, arrow));
  ASSERT_NE(sock_port, 0);

  // Feed both tenants the full capture concurrently.
  ASSERT_TRUE(of::write_file(grown.string(), corpus.raw));
  send_text(sock_port, corpus.raw);

  // Wait until both shards ingested everything (the registry reports
  // accepted-event counts).
  const std::string want =
      "\"events\":" + std::to_string(corpus.corpus_case.events.size());
  bool both_fed = false;
  for (int attempt = 0; attempt < 500 && !both_fed; ++attempt) {
    const auto tenants = get_with_retry(plane_port, "/tenants");
    ASSERT_TRUE(tenants.has_value());
    std::size_t count = 0;
    for (std::size_t at = tenants->body.find(want);
         at != std::string::npos; at = tenants->body.find(want, at + 1)) {
      ++count;
    }
    both_fed = count >= 2;
    if (!both_fed) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
  ASSERT_TRUE(both_fed) << "shards never ingested the full capture";

  // Per-tenant routes answer while the daemon is live.
  const auto health = get_with_retry(plane_port, "/tenants/filet/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  const auto aggregate = get_with_retry(plane_port, "/healthz");
  ASSERT_TRUE(aggregate.has_value());
  EXPECT_EQ(aggregate->status, 200) << "clean shards, aggregate must be ok";
  const auto missing = get_with_retry(plane_port, "/tenants/nosuch/healthz");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  // SIGTERM: flush both final windows, write both transcripts, exit clean.
  ASSERT_EQ(::kill(child.pid, SIGTERM), 0);
  EXPECT_EQ(child.wait_exit(), 0);
  for (const char* tenant : {"filet", "sockt"}) {
    const auto transcript = of::read_file(
        (transcripts / (std::string(tenant) + ".transcript")).string());
    ASSERT_TRUE(transcript.has_value()) << tenant;
    EXPECT_EQ(*transcript, corpus.golden)
        << tenant << " transcript drifted from the single-tenant golden";
  }
}

TEST(ServeCli, ByControllerTenantsMatchPerEventDemux) {
  // --by-controller splits every poll's batch into per-controller runs and
  // feeds each controller's tenant once per poll. The transcripts must be
  // byte-identical to the demux that fed the manager one event at a time.
  const Corpus corpus("corrupted_slowdown");
  const fs::path dir = fs::path(::testing::TempDir()) / "serve_by_controller";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string services = corpus.write_services(dir / "services.txt");
  const fs::path transcripts = dir / "transcripts";

  // The capture spread over three controllers in short interleaved runs.
  std::vector<of::ControlEvent> events = corpus.corpus_case.events;
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].controller = ControllerId{static_cast<std::uint32_t>(i / 3 % 3)};
  }
  const std::string text = of::serialize(events);
  const fs::path log = dir / "mixed.log";
  ASSERT_TRUE(of::write_file(log.string(), ""));

  Child child = spawn_serve(
      {"--follow", log.string() + "@mixed", "--by-controller", "--window",
       corpus.window_seconds(), "--sanitize", "--services", services,
       "--transcripts", transcripts.string(), "--poll-ms", "20",
       "--exit-after-idle", "0.5"});
  ASSERT_GT(child.pid, 0);
  ASSERT_FALSE(child.wait_for_line("-> tenant mixed").empty());
  // Append in pieces so polls see batches of different sizes.
  {
    std::ofstream out(log, std::ios::binary | std::ios::app);
    constexpr std::size_t kPieces = 8;
    for (std::size_t p = 0; p < kPieces; ++p) {
      const std::size_t from = text.size() * p / kPieces;
      const std::size_t to = text.size() * (p + 1) / kPieces;
      out.write(text.data() + from, static_cast<std::streamsize>(to - from));
      out.flush();
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
    }
  }
  EXPECT_GE(child.wait_exit(), 0);

  core::ManagerConfig config;
  config.options.window = corpus.corpus_case.options.window;
  config.options.sanitize = true;
  config.options.services = corpus.corpus_case.options.services;
  core::MonitorManager reference(config);
  for (const auto& event : events) {
    reference.feed("ctrl" + std::to_string(event.controller.value), event);
  }
  reference.stop_all();
  ASSERT_EQ(reference.tenants().size(), 3u);
  for (const std::string& tenant : reference.tenants()) {
    const auto transcript =
        of::read_file((transcripts / (tenant + ".transcript")).string());
    ASSERT_TRUE(transcript.has_value()) << tenant;
    EXPECT_EQ(*transcript,
              core::render_monitor_transcript(*reference.snapshot(tenant)))
        << tenant;
  }
}

TEST(ServeCli, RejectsIncoherentKnobsInsteadOfClamping) {
  // The MonitorOptions contract surfaces through serve exactly as through
  // monitor: lateness without sanitize is an error, not a silent fix-up.
  Child child = spawn_serve({"--follow", "/dev/null@t0", "--window", "10",
                             "--lateness", "20", "--sanitize"});
  ASSERT_GT(child.pid, 0);
  EXPECT_EQ(child.wait_exit(), 2);
}

TEST(ServeCli, RejectsMalformedWorkerCountsBeforeStartingAPool) {
  // --workers sizes serve's cross-tenant pool: a plain decimal in [0, 64].
  // Anything else is a usage error, raised before any thread starts.
  for (const char* value : {"abc", "-1", "65", "99999999999", ""}) {
    SCOPED_TRACE(std::string("--workers=") + value);
    Child child = spawn_serve({"--follow", "/dev/null@t0",
                               std::string("--workers=") + value,
                               "--exit-after-idle", "0.2"});
    ASSERT_GT(child.pid, 0);
    EXPECT_EQ(child.wait_exit(), 2);
  }
  Child accepted = spawn_serve({"--follow", "/dev/null@t0", "--workers", "2",
                                "--exit-after-idle", "0.2"});
  ASSERT_GT(accepted.pid, 0);
  EXPECT_EQ(accepted.wait_exit(), 0);
}

TEST(ServeCli, RejectsMalformedNumericFlagsNamingTheFlag) {
  // A numeric flag is read whole: a finite value in range with no trailing
  // junk, or exit 2 naming the flag. Never a parsed prefix ("5x" as 5), a
  // silent 0 that switches a feature off, or an out-of-range double cast
  // to an integer. The valid --exit-after-idle comes first, so a bad value
  // that slipped through would run (or, for --exit-after-idle itself,
  // never exit) instead of failing.
  const std::pair<const char*, const char*> bad[] = {
      {"--poll-ms", "5x"},
      {"--poll-ms", "0"},
      {"--poll-ms", "1e3"},
      {"--evict-idle", "abc"},
      {"--evict-idle", "1e300"},
      {"--evict-idle", "-1"},
      {"--exit-after-idle", "bogus"},
      {"--exit-after-idle", "nan"},
      {"--window", "nan"},
      {"--window", "1e300"},
      {"--window", "10s"},
      {"--lateness", "inf"},
  };
  const fs::path err = fs::path(::testing::TempDir()) / "serve_numeric.err";
  for (const auto& [flag, value] : bad) {
    SCOPED_TRACE(std::string(flag) + " " + value);
    Child child = spawn_serve({"--follow", "/dev/null@t0", "--exit-after-idle",
                               "0.2", flag, value},
                              err.string());
    ASSERT_GT(child.pid, 0);
    EXPECT_EQ(child.wait_exit(10), 2);
    const auto message = of::read_file(err.string());
    ASSERT_TRUE(message.has_value());
    EXPECT_NE(message->find(std::string(flag) + " must be"),
              std::string::npos)
        << *message;
  }
  fs::remove(err);
  Child accepted =
      spawn_serve({"--follow", "/dev/null@t0", "--poll-ms", "5",
                   "--evict-idle", "1.5", "--exit-after-idle", "0.2"});
  ASSERT_GT(accepted.pid, 0);
  EXPECT_EQ(accepted.wait_exit(), 0);
}

TEST(ServeCli, WorkersIsUnknownOutsideServe) {
  // Windows are modeled serially; only serve has a pool to size.
  const Corpus corpus("steady");
  Child plain = spawn_cli({"summary", corpus.log_path.string()});
  ASSERT_GT(plain.pid, 0);
  EXPECT_EQ(plain.wait_exit(), 0);
  Child child = spawn_cli({"summary", corpus.log_path.string(),
                           "--workers=4"});
  ASSERT_GT(child.pid, 0);
  EXPECT_EQ(child.wait_exit(), 2);
}

TEST(ServeCli, MalformedAutomatonIsAUsageErrorNotAnAbort) {
  // A non-numeric variable index, port or successor, a port past 65535, a
  // token-less state, an unknown state flag, a protocol other than 1, 6 or
  // 17 and a trailing field all fail parsing, so `detect` and
  // `monitor --task` exit with "malformed automaton" (2) instead of dying
  // on an exception or running an automaton that never matches.
  const Corpus corpus("steady");
  const fs::path dir = fs::path(::testing::TempDir()) / "malformed_automaton";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const std::string state = "TASK bad\nSTATE 0 start accept\n";
  const std::vector<std::string> automata = {
      state + "TOKEN #x * 10.0.10.1 2049 6\nTRANS\n",
      state + "TOKEN #0 * 10.0.10.1 http 6\nTRANS\n",
      state + "TOKEN #0 * 10.0.10.1 70000 6\nTRANS\n",
      "TASK bad\nSTATE 0 start\nTOKEN #0 * 10.0.10.1 2049 6\nTRANS 1\n"
      "STATE 1 accept\nTRANS\n",
      "TASK bad\nSTATE 0 start\nTOKEN #0 * 10.0.10.1 2049 6\nTRANS 1 x 0\n"
      "STATE 1 accept\nTOKEN #0 * 10.0.10.1 111 6\nTRANS\n",
      "TASK bad\nSTATE 0 start strat\nTOKEN #0 * 10.0.10.1 2049 6\n"
      "TRANS\n",
      state + "TOKEN #0 * 10.0.10.1 2049 99\nTRANS\n",
      state + "TOKEN #0 * 10.0.10.1 2049 6 extra\nTRANS\n",
  };
  for (std::size_t i = 0; i < automata.size(); ++i) {
    SCOPED_TRACE(automata[i]);
    const std::string path =
        (dir / ("bad" + std::to_string(i) + ".automaton")).string();
    ASSERT_TRUE(of::write_file(path, automata[i]));
    Child detect =
        spawn_cli({"detect", path, "--in", corpus.log_path.string()});
    ASSERT_GT(detect.pid, 0);
    EXPECT_EQ(detect.wait_exit(), 2);
    Child monitor =
        spawn_cli({"monitor", corpus.log_path.string(), "--task", path});
    ASSERT_GT(monitor.pid, 0);
    EXPECT_EQ(monitor.wait_exit(), 2);
  }
}

}  // namespace
}  // namespace flowdiff
