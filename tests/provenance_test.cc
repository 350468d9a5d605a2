// Alarm provenance plane: corpus-pinned golden transcripts, record
// completeness (every diverging family carries ranked contributors and a
// full stage-latency breakdown), JSON round-trips, provenance-ring bounds,
// the /provenance endpoint, and both `flowdiff explain` paths (artifacts
// on disk and a live telemetry plane) rendering the same record.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "flowdiff/monitor.h"
#include "flowdiff/provenance.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"
#include "openflow/log_io.h"

namespace flowdiff {
namespace {

std::string corpus_path(const std::string& file) {
  return std::string(FLOWDIFF_CORPUS_DIR) + "/" + file;
}

std::optional<exp::CorpusCase> load_case(const std::string& name) {
  const auto text = of::read_file(corpus_path(name + ".log"));
  if (!text) return std::nullopt;
  return exp::parse_corpus_case(*text);
}

/// The retained record with the given id; nullopt if unknown or rotated
/// out.
std::optional<core::ProvenanceRecord> find_record(
    const core::SlidingMonitor& monitor, std::uint64_t id) {
  for (const auto& record : monitor.provenance()) {
    if (record.id == id) return record;
  }
  return std::nullopt;
}

constexpr const char* kCases[] = {"steady", "slowdown", "unauthorized",
                                 "corrupted_slowdown"};

TEST(Provenance, CorpusTranscriptsMatchGoldens) {
  for (const char* name : kCases) {
    const auto parsed = load_case(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    const auto golden = of::read_file(corpus_path(std::string(name) +
                                                  ".provenance"));
    ASSERT_TRUE(golden.has_value())
        << name << ": missing .provenance golden (run tools/gen_corpus)";
    EXPECT_EQ(exp::replay_corpus_provenance(*parsed), *golden)
        << name << ": provenance transcript drifted from the golden";
  }
}

TEST(Provenance, EveryCorpusAlarmHasRankedContributorsAndFullLatency) {
  bool any_alarm = false;
  for (const char* name : kCases) {
    const auto parsed = load_case(name);
    ASSERT_TRUE(parsed.has_value()) << name;
    core::SlidingMonitor monitor(parsed->config);
    monitor.feed(parsed->events);
    monitor.flush();
    for (const auto& alarm : monitor.alarms()) {
      any_alarm = true;
      ASSERT_NE(alarm.provenance_id, 0u)
          << name << ": alarm without a provenance record";
      const auto record = find_record(monitor, alarm.provenance_id);
      ASSERT_TRUE(record.has_value()) << name;
      EXPECT_TRUE(record->alarmed) << name;
      EXPECT_EQ(record->window_begin, alarm.window_begin) << name;
      EXPECT_EQ(record->window_end, alarm.window_end) << name;
      EXPECT_FALSE(record->verdict.empty()) << name;
      EXPECT_FALSE(record->families.empty())
          << name << ": alarm explained by zero families";
      for (const auto& family : record->families) {
        EXPECT_FALSE(family.top.empty())
            << name << ": family " << to_string(family.kind)
            << " has no ranked contributors";
        EXPECT_GT(family.changes, 0u) << name;
      }
      EXPECT_TRUE(record->latency.complete())
          << name << ": incomplete stage latencies (ingest="
          << record->latency.ingest_ms << " model="
          << record->latency.model_ms << " diff=" << record->latency.diff_ms
          << " decide=" << record->latency.decide_ms
          << " total=" << record->latency.total_ms << ")";
    }
  }
  EXPECT_TRUE(any_alarm) << "corpus produced no alarms; the test lost its "
                            "point";
}

TEST(Provenance, CollectionJsonRoundTripsLosslessly) {
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->config);
  monitor.feed(parsed->events);
  monitor.flush();
  const core::MonitorSnapshot snap = monitor.snapshot();
  ASSERT_FALSE(snap.provenance.empty());

  const std::string json = core::render_provenance_collection_json(
      snap.provenance, snap.provenance_dropped);
  const auto back = core::parse_provenance_json(json);
  ASSERT_TRUE(back.has_value()) << json;
  ASSERT_EQ(back->size(), snap.provenance.size());
  for (std::size_t i = 0; i < back->size(); ++i) {
    // Text renders (latency included) must survive the JSON round trip
    // byte for byte: the shortest-round-trip number format guarantees the
    // parsed doubles are the originals.
    EXPECT_EQ(core::render_provenance_text((*back)[i], true),
              core::render_provenance_text(snap.provenance[i], true));
  }
  EXPECT_EQ(core::render_provenance_collection_json(*back,
                                                    snap.provenance_dropped),
            json);
}

TEST(Provenance, ControlBytesAreEscapedAndReadBack) {
  // Verdicts and labels are free text: every control byte must leave as a
  // JSON escape (raw ones make the document invalid) and come back intact.
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->config);
  monitor.feed(parsed->events);
  monitor.flush();
  ASSERT_FALSE(monitor.provenance().empty());
  core::ProvenanceRecord rec = monitor.provenance().front();
  ASSERT_FALSE(rec.families.empty());
  ASSERT_FALSE(rec.families[0].top.empty());
  rec.verdict = std::string("bell\x07 quote\" tab\t nul") + '\0';
  rec.families[0].top[0].label = "unit\x1fsep\\back\nline";

  const std::string json = core::render_provenance_collection_json({rec}, 0);
  EXPECT_NE(json.find("bell\\u0007 quote\\\" tab\\t nul\\u0000"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("unit\\u001fsep\\\\back\\nline"), std::string::npos)
      << json;
  for (const char c : json) {
    EXPECT_FALSE(static_cast<unsigned char>(c) < 0x20 && c != '\n')
        << "raw control byte " << static_cast<int>(c);
  }
  const auto back = core::parse_provenance_json(json);
  ASSERT_TRUE(back.has_value()) << json;
  ASSERT_EQ(back->size(), 1u);
  EXPECT_EQ((*back)[0].verdict, rec.verdict);
  EXPECT_EQ((*back)[0].families[0].top[0].label,
            rec.families[0].top[0].label);
  EXPECT_EQ(core::render_provenance_collection_json(*back, 0), json);
  // Only the escapes json_string writes are read: \u00XX below 0x80.
  std::string wide = json;
  wide.replace(wide.find("\\u0007"), 6, "\\u00e9");
  EXPECT_FALSE(core::parse_provenance_json(wide).has_value());
}

TEST(Provenance, RingRotationDropsOldestRecords) {
  // corrupted_slowdown yields one suppressed-family record per degraded
  // window — several records, enough to exercise rotation.
  const auto parsed = load_case("corrupted_slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor unbounded(parsed->config);
  unbounded.feed(parsed->events);
  unbounded.flush();
  const std::size_t total = unbounded.provenance().size();
  if (total < 2) {
    GTEST_SKIP() << "slowdown produced " << total
                 << " record(s); rotation needs at least 2";
  }

  core::MonitorConfig bounded_config = parsed->config;
  bounded_config.max_provenance = total - 1;
  core::SlidingMonitor bounded(bounded_config);
  bounded.feed(parsed->events);
  bounded.flush();
  EXPECT_EQ(bounded.provenance().size(), total - 1);
  EXPECT_EQ(bounded.provenance_dropped(), 1u);
  EXPECT_FALSE(find_record(bounded, 1).has_value())
      << "oldest record must rotate out";
  EXPECT_TRUE(
      find_record(bounded, bounded.provenance().back().id).has_value());
}

TEST(Provenance, TelemetryPlaneServesRecordsAndErrors) {
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->config);
  monitor.feed(parsed->events);
  monitor.flush();
  ASSERT_FALSE(monitor.provenance().empty());

  core::TelemetryPlane plane;
  plane.attach(&monitor);
  ASSERT_TRUE(plane.start()) << plane.last_error();

  const auto all = testing::http_get(plane.port(), "/provenance");
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->status, 200);
  EXPECT_NE(all->body.find("\"provenance_dropped\""), std::string::npos);
  EXPECT_NE(all->body.find("\"records\""), std::string::npos);

  const auto one = testing::http_get(plane.port(), "/provenance?id=1");
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->status, 200);
  const auto record = core::parse_provenance_json(one->body);
  ASSERT_TRUE(record.has_value()) << one->body;
  ASSERT_EQ(record->size(), 1u);
  EXPECT_EQ((*record)[0].id, 1u);

  const auto missing =
      testing::http_get(plane.port(), "/provenance?id=999999");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status, 404);
  EXPECT_NE(missing->body.find("\"error\""), std::string::npos);

  const auto malformed =
      testing::http_get(plane.port(), "/provenance?id=abc");
  ASSERT_TRUE(malformed.has_value());
  EXPECT_EQ(malformed->status, 400);

  const auto limited =
      testing::http_get(plane.port(), "/provenance?limit=1");
  ASSERT_TRUE(limited.has_value());
  EXPECT_EQ(limited->status, 200);
  const auto limited_records = core::parse_provenance_json(limited->body);
  ASSERT_TRUE(limited_records.has_value());
  EXPECT_EQ(limited_records->size(), 1u);
  plane.stop();
}

#ifdef FLOWDIFF_CLI_PATH

struct CliResult {
  int exit_code = -1;
  std::string out;
};

/// fork/execs the real CLI with `args`, captures stdout, reaps the child.
std::optional<CliResult> run_cli(const std::vector<std::string>& args) {
  int fds[2];
  if (::pipe(fds) != 0) return std::nullopt;
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    return std::nullopt;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>("flowdiff"));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    ::execv(FLOWDIFF_CLI_PATH, argv.data());
    _exit(127);
  }
  ::close(fds[1]);
  CliResult result;
  char buf[4096];
  ssize_t n;
  while ((n = ::read(fds[0], buf, sizeof(buf))) > 0) {
    result.out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid || !WIFEXITED(status)) {
    return std::nullopt;
  }
  result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(Provenance, ExplainCliRoundTripsArtifacts) {
  namespace fs = std::filesystem;
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->config);
  monitor.feed(parsed->events);
  monitor.flush();
  const core::MonitorSnapshot snap = monitor.snapshot();
  ASSERT_FALSE(snap.provenance.empty());

  const fs::path dir =
      fs::path(::testing::TempDir()) / "flowdiff_explain_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(of::write_file(
      (dir / "provenance.json").string(),
      core::render_provenance_collection_json(snap.provenance,
                                              snap.provenance_dropped)));

  // What explain must print: the record as the JSON carries it, rendered
  // with its latency breakdown. Shortest-round-trip numbers make this
  // byte-identical to rendering the in-memory record.
  const std::string expected =
      core::render_provenance_text(snap.provenance.front(),
                                   /*with_latency=*/true);
  const auto result = run_cli({"explain",
                               std::to_string(snap.provenance.front().id),
                               "--artifacts=" + dir.string()});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 0) << result->out;
  EXPECT_EQ(result->out, expected);

  // Unknown ids are a usage error, loudly distinct from success.
  const auto missing =
      run_cli({"explain", "999999", "--artifacts=" + dir.string()});
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->exit_code, 2);
  fs::remove_all(dir);
}

TEST(Provenance, ExplainCliReadsLivePlane) {
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->config);
  monitor.feed(parsed->events);
  monitor.flush();
  ASSERT_FALSE(monitor.provenance().empty());
  const std::uint64_t id = monitor.provenance().front().id;
  const auto record = find_record(monitor, id);
  ASSERT_TRUE(record.has_value());

  core::TelemetryPlane plane;
  plane.attach(&monitor);
  ASSERT_TRUE(plane.start()) << plane.last_error();

  const auto result =
      run_cli({"explain", std::to_string(id),
               "--from", "127.0.0.1:" + std::to_string(plane.port())});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->exit_code, 0) << result->out;
  EXPECT_EQ(result->out,
            core::render_provenance_text(*record, /*with_latency=*/true));
  plane.stop();
}

#endif  // FLOWDIFF_CLI_PATH

}  // namespace
}  // namespace flowdiff
