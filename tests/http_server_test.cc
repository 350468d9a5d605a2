// Live telemetry plane (obs/http_server.* + flowdiff/telemetry.*): server
// smoke and protocol edges (404/405/400/431, connection cap, request
// timeout), the six endpoints over a real monitor run, the /healthz 503
// flips (induced watchdog warning; degraded capture stream), and the CLI's
// --listen graceful-shutdown path via fork/exec of the real binary.
#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "experiment/scalability.h"
#include "flowdiff/monitor.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"
#include "obs/http_server.h"
#include "obs/obs.h"
#include "openflow/log_io.h"

namespace flowdiff {
namespace {

using flowdiff::testing::HttpResult;
using flowdiff::testing::http_connect;
using flowdiff::testing::http_get;
using flowdiff::testing::http_raw;

/// A small captured control log, built once (the simulation dominates the
/// suite's runtime).
const of::ControlLog& capture() {
  static const of::ControlLog log = [] {
    exp::ScalabilityConfig config;
    config.app_count = 2;
    config.duration = 4 * kSecond;
    config.seed = 7;
    return exp::capture_scalability_log(config);
  }();
  return log;
}

core::MonitorOptions small_monitor_options() {
  core::MonitorOptions options;
  options.window = kSecond;
  options.rolling_baseline = true;
  return options;
}

// --- obs::HttpServer protocol edges ----------------------------------------

TEST(HttpServer, ParseListenAddress) {
  const auto full = obs::parse_listen_address("127.0.0.1:9091");
  ASSERT_TRUE(full.has_value());
  EXPECT_EQ(full->first, "127.0.0.1");
  EXPECT_EQ(full->second, 9091);

  const auto all = obs::parse_listen_address(":8080");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->first, "0.0.0.0");
  EXPECT_EQ(all->second, 8080);

  const auto bare = obs::parse_listen_address("8080");
  ASSERT_TRUE(bare.has_value());
  EXPECT_EQ(bare->first, "127.0.0.1");
  EXPECT_EQ(bare->second, 8080);

  EXPECT_FALSE(obs::parse_listen_address("").has_value());
  EXPECT_FALSE(obs::parse_listen_address("127.0.0.1:").has_value());
  EXPECT_FALSE(obs::parse_listen_address("127.0.0.1:notaport").has_value());
  EXPECT_FALSE(obs::parse_listen_address("127.0.0.1:99999").has_value());
}

TEST(HttpServer, RoutesMethodsAndMalformedRequests) {
  obs::HttpServer server;
  server.handle("/hello", [](const obs::HttpRequest& request) {
    obs::HttpResponse response;
    response.body = "hi " + request.param("name").value_or("anon");
    return response;
  });
  ASSERT_TRUE(server.start()) << server.last_error();

  const auto ok = http_get(server.port(), "/hello?name=ops");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->status, 200);
  EXPECT_EQ(ok->body, "hi ops");

  const auto head = http_get(server.port(), "/hello", "HEAD");
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->status, 200);
  EXPECT_TRUE(head->body.empty());

  const auto missing = http_get(server.port(), "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);

  const auto post = http_raw(server.port(),
                             "POST /hello HTTP/1.1\r\nHost: t\r\n"
                             "Content-Length: 0\r\n\r\n");
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->status, 405);

  const auto garbage = http_raw(server.port(), "not an http request\r\n\r\n");
  ASSERT_TRUE(garbage.has_value());
  EXPECT_EQ(garbage->status, 400);

  // Only the two /hello hits reached a handler; 404/405/400 are dispatch
  // rejections, not served requests.
  EXPECT_GE(server.requests_served(), 2u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(HttpServer, OversizedRequestHeadRejected) {
  obs::HttpServerConfig config;
  config.max_request_bytes = 256;
  obs::HttpServer server(config);
  server.handle("/", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start()) << server.last_error();
  const std::string huge(1024, 'x');
  const auto result =
      http_raw(server.port(), "GET /?q=" + huge + " HTTP/1.1\r\n\r\n");
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, 431);
}

TEST(HttpServer, ConnectionCapAnswers503) {
  obs::HttpServerConfig config;
  config.max_connections = 1;
  obs::HttpServer server(config);
  server.handle("/", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start()) << server.last_error();

  // Occupy the single slot with an idle connection, then request through a
  // second one: the server must turn it away immediately rather than queue
  // it behind the stalled slot.
  const int idle = http_connect(server.port());
  ASSERT_GE(idle, 0);
  // The idle connection is admitted asynchronously; poll until the rejected
  // counter proves a second connection went over the cap.
  std::optional<HttpResult> capped;
  for (int attempt = 0; attempt < 50; ++attempt) {
    capped = http_get(server.port(), "/");
    if (capped && capped->status == 503) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(capped.has_value());
  EXPECT_EQ(capped->status, 503);
  EXPECT_GE(server.requests_rejected(), 1u);
  ::close(idle);

  // With the slot free again the same request succeeds.
  std::optional<HttpResult> after;
  for (int attempt = 0; attempt < 50; ++attempt) {
    after = http_get(server.port(), "/");
    if (after && after->status == 200) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->status, 200);
}

TEST(HttpServer, IdleConnectionHitsRequestTimeout) {
  obs::HttpServerConfig config;
  config.request_timeout_s = 0.2;
  obs::HttpServer server(config);
  server.handle("/", [](const obs::HttpRequest&) {
    return obs::HttpResponse{};
  });
  ASSERT_TRUE(server.start()) << server.last_error();

  const int fd = http_connect(server.port());
  ASSERT_GE(fd, 0);
  // Send nothing; the server must close the connection once the deadline
  // passes (blocking read returns EOF).
  char byte;
  const ssize_t n = ::read(fd, &byte, 1);
  EXPECT_EQ(n, 0);
  ::close(fd);
}

// --- TelemetryPlane endpoints over a monitor run ---------------------------

class TelemetryPlaneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
    obs::Sampler::global().clear();
    obs::FlightRecorder::global().clear();
  }
  void TearDown() override { SetUp(); }
};

TEST_F(TelemetryPlaneTest, EndpointsServeAttachedMonitorRun) {
  obs::set_enabled(true);
  core::SlidingMonitor monitor(small_monitor_options());
  core::TelemetryPlane plane;
  plane.attach(&monitor);
  ASSERT_TRUE(plane.start()) << plane.last_error();

  monitor.feed(capture());
  monitor.flush();

  const auto metrics = http_get(plane.port(), "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);
  EXPECT_NE(metrics->body.find("flowdiff_monitor_windows"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("flowdiff_process_uptime_s"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("flowdiff_process_peak_rss_bytes"),
            std::string::npos);
  EXPECT_NE(metrics->body.find("flowdiff_process_open_fds"),
            std::string::npos);

  const auto health = http_get(plane.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);
  EXPECT_NE(health->body.find("\"healthy\":true"), std::string::npos);

  const auto series_csv = http_get(plane.port(), "/series");
  ASSERT_TRUE(series_csv.has_value());
  EXPECT_EQ(series_csv->status, 200);
  EXPECT_NE(series_csv->body.find("series,t_begin,t_end"),
            std::string::npos);
  const auto series_json = http_get(plane.port(), "/series?format=json");
  ASSERT_TRUE(series_json.has_value());
  EXPECT_EQ(series_json->status, 200);
  EXPECT_NE(series_json->body.find("\"series\""), std::string::npos);

  const auto recorder = http_get(plane.port(), "/recorder");
  ASSERT_TRUE(recorder.has_value());
  EXPECT_EQ(recorder->status, 200);

  const auto audits = http_get(plane.port(), "/audits");
  ASSERT_TRUE(audits.has_value());
  EXPECT_EQ(audits->status, 200);
  EXPECT_NE(audits->body.find("index,window_begin_s"), std::string::npos);
  EXPECT_NE(audits->body.find("suppressed,degraded,quality"),
            std::string::npos);
  const auto audits_json = http_get(plane.port(), "/audits?format=json");
  ASSERT_TRUE(audits_json.has_value());
  EXPECT_EQ(audits_json->status, 200);
  EXPECT_NE(audits_json->body.find("\"audits\":["), std::string::npos);

  const auto report = http_get(plane.port(), "/report");
  ASSERT_TRUE(report.has_value());
  EXPECT_EQ(report->status, 200);
  EXPECT_NE(report->body.find("# FlowDiff run report"), std::string::npos);
  const auto html = http_get(plane.port(), "/report?format=html");
  ASSERT_TRUE(html.has_value());
  EXPECT_EQ(html->status, 200);
  EXPECT_NE(html->body.find("<!DOCTYPE html>"), std::string::npos);

  const auto bad_format = http_get(plane.port(), "/audits?format=xml");
  ASSERT_TRUE(bad_format.has_value());
  EXPECT_EQ(bad_format->status, 400);
}

TEST_F(TelemetryPlaneTest, SeriesAndAuditsAcceptTimeRangeFilters) {
  obs::set_enabled(true);
  core::SlidingMonitor monitor(small_monitor_options());
  core::TelemetryPlane plane;
  plane.attach(&monitor);
  ASSERT_TRUE(plane.start()) << plane.last_error();
  monitor.feed(capture());
  monitor.flush();

  // A range covering the whole run returns the usual payloads.
  const auto series = http_get(plane.port(), "/series?from=0&to=1e9");
  ASSERT_TRUE(series.has_value());
  EXPECT_EQ(series->status, 200);
  EXPECT_NE(series->body.find("series,t_begin,t_end"), std::string::npos);
  const auto audits = http_get(plane.port(), "/audits?from=0&to=1e9");
  ASSERT_TRUE(audits.has_value());
  EXPECT_EQ(audits->status, 200);
  EXPECT_NE(audits->body.find("index,window_begin_s"), std::string::npos);

  // A range past the run keeps the shape but drops every row: the CSV
  // comes back as its header line and nothing else.
  const auto empty = http_get(plane.port(), "/audits?from=1e8&to=1e9");
  ASSERT_TRUE(empty.has_value());
  EXPECT_EQ(empty->status, 200);
  EXPECT_NE(empty->body.find("index,window_begin_s"), std::string::npos);
  EXPECT_EQ(std::count(empty->body.begin(), empty->body.end(), '\n'), 1)
      << empty->body;

  // Unparseable bounds are a 400 with a JSON error body, not a silent
  // full dump.
  for (const char* target : {"/series?from=abc", "/series?to=12..5",
                             "/audits?from=notanumber", "/audits?to="}) {
    const auto bad = http_get(plane.port(), target);
    ASSERT_TRUE(bad.has_value()) << target;
    EXPECT_EQ(bad->status, 400) << target;
    EXPECT_NE(bad->body.find("\"error\""), std::string::npos) << target;
  }
  plane.stop();
}

TEST_F(TelemetryPlaneTest, MonitorlessPlaneAnswers503OnMonitorEndpoints) {
  core::TelemetryPlane plane;
  ASSERT_TRUE(plane.start()) << plane.last_error();
  const auto health = http_get(plane.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 200);  // Alive but idle.
  EXPECT_NE(health->body.find("\"monitor_attached\":false"),
            std::string::npos);
  for (const char* target : {"/audits", "/report"}) {
    const auto result = http_get(plane.port(), target);
    ASSERT_TRUE(result.has_value()) << target;
    EXPECT_EQ(result->status, 503) << target;
    EXPECT_NE(result->body.find("no monitor attached"), std::string::npos)
        << target;
  }
}

TEST_F(TelemetryPlaneTest, HealthzFlipsTo503OnWatchdogWarning) {
  obs::set_enabled(true);
  const of::ControlLog& log = capture();  // Simulate before pinning depth.
  core::SlidingMonitor monitor(small_monitor_options());
  core::TelemetryPlane plane;
  plane.attach(&monitor);
  ASSERT_TRUE(plane.start()) << plane.last_error();

  // Three windows at a steady event-queue depth warm the sampler's
  // watchdog up; a 50x jump before the fourth window closes files the
  // deterministic warning that is the /healthz contract's "diagnoser
  // degraded" condition.
  obs::Gauge& depth = obs::Registry::global().gauge("sim.queue.depth");
  const SimTime split = log.events().front().ts + 3 * kSecond + kSecond / 2;
  std::vector<of::ControlEvent> head;
  std::vector<of::ControlEvent> tail;
  for (const auto& event : log.events()) {
    (event.ts < split ? head : tail).push_back(event);
  }
  depth.set(100);
  monitor.feed(head);
  ASSERT_EQ(monitor.windows_processed(), 3u);
  depth.set(5000);
  monitor.feed(tail);
  monitor.flush();
  ASSERT_GT(obs::Sampler::global().watchdog_alerts(), 0u);

  const auto health = http_get(plane.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 503);
  EXPECT_NE(health->body.find("\"healthy\":false"), std::string::npos);
  EXPECT_NE(health->body.find("watchdog filed"), std::string::npos);
  EXPECT_NE(health->body.find("\"watchdog_alerts\":"), std::string::npos);
}

TEST_F(TelemetryPlaneTest, HealthzFlipsTo503OnDegradedStream) {
  core::MonitorOptions options = small_monitor_options();
  options.sanitize = true;
  options.lateness = 500 * kMillisecond;
  core::SlidingMonitor monitor(options);
  core::TelemetryPlane plane;
  plane.attach(&monitor);
  ASSERT_TRUE(plane.start()) << plane.last_error();

  // Duplicate every event: hard corruption evidence the sanitizer counts,
  // independent of the obs registry.
  std::vector<of::ControlEvent> corrupted;
  for (const auto& event : capture().events()) {
    corrupted.push_back(event);
    corrupted.push_back(event);
  }
  monitor.feed(corrupted);
  monitor.flush();

  const auto health = http_get(plane.port(), "/healthz");
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(health->status, 503);
  EXPECT_NE(health->body.find("\"stream_degraded\":true"),
            std::string::npos);
  EXPECT_NE(health->body.find("capture stream degraded"),
            std::string::npos);

  // The audit trail carries the same evidence in its quality column.
  const auto audits = http_get(plane.port(), "/audits");
  ASSERT_TRUE(audits.has_value());
  EXPECT_NE(audits->body.find("dup "), std::string::npos);
}

// --- CLI --listen graceful shutdown (fork/exec of the real binary) ---------

#ifdef FLOWDIFF_CLI_PATH

/// Reads the child's stdout until the telemetry-plane announcement appears
/// and returns the bound port; 0 on timeout/EOF.
std::uint16_t read_announced_port(int fd) {
  std::string seen;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    char buf[512];
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0) return 0;
    if (n == 0) break;
    seen.append(buf, static_cast<std::size_t>(n));
    const std::size_t at = seen.find("listening on http://127.0.0.1:");
    if (at == std::string::npos) continue;
    const std::size_t eol = seen.find('\n', at);
    if (eol == std::string::npos) continue;  // Port digits still in flight.
    const std::size_t colon = seen.rfind(':', eol);
    return static_cast<std::uint16_t>(std::atoi(seen.c_str() + colon + 1));
  }
  return 0;
}

TEST(HttpServerCli, ListenRunServesAndShutsDownGracefully) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "flowdiff_listen_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  const fs::path log_path = dir / "capture.log";
  const fs::path artifacts = dir / "artifacts";
  ASSERT_TRUE(of::write_file(log_path.string(), of::serialize(capture())));

  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  const pid_t pid = ::fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::close(out_pipe[0]);
    ::close(out_pipe[1]);
    const std::string artifacts_flag = "--artifacts=" + artifacts.string();
    ::execl(FLOWDIFF_CLI_PATH, "flowdiff", "monitor", log_path.c_str(),
            "--window", "1", "--rolling", "--listen=127.0.0.1:0",
            artifacts_flag.c_str(), static_cast<char*>(nullptr));
    _exit(127);  // exec failed
  }
  ::close(out_pipe[1]);

  const std::uint16_t port = read_announced_port(out_pipe[0]);
  ASSERT_NE(port, 0) << "child never announced its telemetry endpoint";

  // The plane must be serving while the run is live.
  std::optional<HttpResult> health;
  for (int attempt = 0; attempt < 100; ++attempt) {
    health = http_get(port, "/healthz");
    if (health) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(health.has_value());
  EXPECT_TRUE(health->status == 200 || health->status == 503);
  const auto metrics = http_get(port, "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status, 200);

  // Graceful shutdown: SIGTERM -> final flush -> artifacts on disk ->
  // clean exit (0 clean / 1 alarms, never a crash code).
  ASSERT_EQ(::kill(pid, SIGTERM), 0);
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  pid_t waited = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    waited = ::waitpid(pid, &status, WNOHANG);
    if (waited == pid) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  if (waited != pid) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
    FAIL() << "child did not exit after SIGTERM";
  }
  ::close(out_pipe[0]);
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_LE(WEXITSTATUS(status), 1);

  for (const char* name : {"report.md", "stats.txt", "series.csv",
                           "trace.json", "provenance.json"}) {
    const fs::path artifact = artifacts / name;
    EXPECT_TRUE(fs::exists(artifact)) << artifact;
    EXPECT_GT(fs::file_size(artifact), 0u) << artifact;
  }
  fs::remove_all(dir);
}

#endif  // FLOWDIFF_CLI_PATH

}  // namespace
}  // namespace flowdiff
