// Alarm provenance plane: corpus-pinned golden transcripts, record
// completeness (every diverging family carries ranked contributors and a
// full stage-latency breakdown), JSON round-trips, provenance-ring bounds
// (also under concurrent scrapes), the /provenance endpoint, and both
// `flowdiff explain` paths (artifacts on disk and a live telemetry plane)
// rendering the same record.
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "experiment/corpus.h"
#include "flowdiff/monitor.h"
#include "flowdiff/monitor_manager.h"
#include "flowdiff/provenance.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"
#include "openflow/log_io.h"
#include "retention_stream.h"

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
  for (const auto& entry : monitor.snapshot().explained) {
    if (entry->provenance.id == id) return entry->provenance;
  }
  return std::nullopt;
}

/// Each record shared as an explained window without a report: the form
/// the collection renderer reads.
std::vector<std::shared_ptr<const core::ExplainedWindow>> as_entries(
    const std::vector<core::ProvenanceRecord>& records) {
  std::vector<std::shared_ptr<const core::ExplainedWindow>> entries;
  for (const core::ProvenanceRecord& record : records) {
    entries.push_back(std::make_shared<const core::ExplainedWindow>(
        core::ExplainedWindow{record, std::nullopt}));
  }
  return entries;
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
    core::SlidingMonitor monitor(parsed->options);
    monitor.feed(parsed->events);
    monitor.flush();
    const core::MonitorSnapshot snap = monitor.snapshot();
    std::size_t reports = 0;
    for (const auto& entry : snap.explained) {
      // A report is kept exactly for the alarmed windows.
      EXPECT_EQ(entry->report.has_value(), entry->provenance.alarmed)
          << name;
      if (!entry->report) continue;
      ++reports;
      any_alarm = true;
      const core::ProvenanceRecord* record = &entry->provenance;
      EXPECT_EQ(record->unknown, entry->report->unknown.size()) << name;
      const auto audit = std::find_if(
          snap.audits.begin(), snap.audits.end(), [&](const auto& a) {
            return a.index == record->window_index;
          });
      ASSERT_NE(audit, snap.audits.end()) << name;
      EXPECT_TRUE(audit->alarmed) << name;
      EXPECT_EQ(record->window_begin, audit->window_begin) << name;
      EXPECT_EQ(record->window_end, audit->window_end) << name;
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
    EXPECT_EQ(reports, snap.alarms)
        << name << ": an alarm without its explained window";
  }
  EXPECT_TRUE(any_alarm) << "corpus produced no alarms; the test lost its "
                            "point";
}

TEST(Provenance, CollectionJsonRoundTripsLosslessly) {
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->options);
  monitor.feed(parsed->events);
  monitor.flush();
  const core::MonitorSnapshot snap = monitor.snapshot();
  const auto& entries = snap.explained;
  ASSERT_FALSE(entries.empty());
  const std::uint64_t dropped = snap.provenance_dropped;

  const std::string json =
      core::render_provenance_collection_json(entries, dropped);
  const auto back = core::parse_provenance_json(json);
  ASSERT_TRUE(back.has_value()) << json;
  ASSERT_EQ(back->size(), entries.size());
  for (std::size_t i = 0; i < back->size(); ++i) {
    // Text renders (latency included) must survive the JSON round trip
    // byte for byte: the shortest-round-trip number format guarantees the
    // parsed doubles are the originals.
    EXPECT_EQ(core::render_provenance_text((*back)[i], true),
              core::render_provenance_text(entries[i]->provenance, true));
  }
  EXPECT_EQ(core::render_provenance_collection_json(as_entries(*back),
                                                    dropped),
            json);
}

TEST(Provenance, ControlBytesAreEscapedAndReadBack) {
  // Verdicts and labels are free text: every control byte must leave as a
  // JSON escape (raw ones make the document invalid) and come back intact.
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->options);
  monitor.feed(parsed->events);
  monitor.flush();
  const core::MonitorSnapshot snap = monitor.snapshot();
  ASSERT_FALSE(snap.explained.empty());
  core::ProvenanceRecord rec = snap.explained.front()->provenance;
  ASSERT_FALSE(rec.families.empty());
  ASSERT_FALSE(rec.families[0].top.empty());
  rec.verdict = std::string("bell\x07 quote\" tab\t nul") + '\0';
  rec.families[0].top[0].label = "unit\x1fsep\\back\nline";

  const std::string json =
      core::render_provenance_collection_json(as_entries({rec}), 0);
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
  EXPECT_EQ(core::render_provenance_collection_json(as_entries(*back), 0),
            json);
  // Only the escapes json_string writes are read: \u00XX below 0x80.
  std::string wide = json;
  wide.replace(wide.find("\\u0007"), 6, "\\u00e9");
  EXPECT_FALSE(core::parse_provenance_json(wide).has_value());
}

TEST(Provenance, RingRotationDropsOldestRecords) {
  // 300 alarmed windows after the baseline: the oldest 44 explained
  // windows rotate out, each taking its alarm report along.
  constexpr std::size_t kAlarmed = 300;
  constexpr std::size_t kKept = core::SlidingMonitor::kMaxExplained;
  core::MonitorOptions options;
  options.window = core::kRetentionWindow;
  core::SlidingMonitor monitor(options);
  for (std::size_t w = 0; w <= kAlarmed; ++w) {
    monitor.feed(core::retention_window(w, /*alarmed=*/w > 0));
  }
  monitor.flush();

  const core::MonitorSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.alarms, kAlarmed);
  ASSERT_EQ(snap.explained.size(), kKept);
  EXPECT_EQ(snap.provenance_dropped, kAlarmed - kKept);
  EXPECT_FALSE(find_record(monitor, 1).has_value())
      << "oldest record must rotate out";
  EXPECT_FALSE(find_record(monitor, kAlarmed - kKept).has_value());
  EXPECT_TRUE(find_record(monitor, kAlarmed - kKept + 1).has_value());
  EXPECT_TRUE(find_record(monitor, kAlarmed).has_value());
  EXPECT_EQ(core::render_provenance_transcript(monitor).rfind(
                "=== provenance transcript ===\nrecords=256 dropped=44\n", 0),
            0u);
}

/// The value after `key` in `text` (e.g. "alarms=" -> 275); nullopt when
/// the key is missing.
std::optional<std::uint64_t> field_after(const std::string& text,
                                         const std::string& key) {
  const auto at = text.find(key);
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(text.c_str() + at + key.size(), nullptr, 10);
}

std::size_t count_of(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  for (auto at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++n;
  }
  return n;
}

/// One scrape of the tenant's transcript, audit trail and newest
/// provenance record; each must show one whole committed state. Returns
/// false (after recording a failure) on a response that does not.
bool scrape_is_coherent(std::uint16_t port) {
  const auto transcript = testing::http_get(port, "/tenants/t/transcript");
  const auto audits = testing::http_get(port, "/tenants/t/audits");
  if (!transcript || !audits || transcript->status != 200 ||
      audits->status != 200) {
    ADD_FAILURE() << "scrape failed";
    return false;
  }
  const std::string& text = transcript->body;
  const auto windows = field_after(text, "windows=");
  const auto alarms = field_after(text, " alarms=");
  const auto dropped = field_after(text, " audits_dropped=");
  if (!windows || !alarms || !dropped) {
    ADD_FAILURE() << "transcript header missing: " << text.substr(0, 80);
    return false;
  }
  const std::size_t audit_lines = count_of(text, " events=");
  const std::size_t alarm_sections = count_of(text, "\n--- alarm ");
  EXPECT_EQ(audit_lines, *windows - *dropped);
  EXPECT_LE(audit_lines, core::SlidingMonitor::kMaxAudits);
  EXPECT_EQ(alarm_sections,
            std::min<std::uint64_t>(*alarms,
                                    core::SlidingMonitor::kMaxExplained));
  if (*alarms > 0) {
    // The newest alarm keeps its run-wide number.
    EXPECT_NE(text.find("\n--- alarm " + std::to_string(*alarms) + ":"),
              std::string::npos);
    const auto newest = testing::http_get(
        port, "/tenants/t/provenance?id=" + std::to_string(*alarms));
    if (!newest || (newest->status != 200 && newest->status != 404)) {
      ADD_FAILURE() << "provenance scrape failed";
      return false;
    }
    if (newest->status == 200) {
      const auto records = core::parse_provenance_json(newest->body);
      EXPECT_TRUE(records && records->size() == 1 &&
                  (*records)[0].id == *alarms)
          << newest->body;
    }
  }
  // The audit trail is contiguous from the first retained index.
  const std::string& json = audits->body;
  const auto audits_dropped = field_after(json, "\"audits_dropped\":");
  const std::size_t entries = count_of(json, "{\"index\":");
  EXPECT_LE(entries, core::SlidingMonitor::kMaxAudits);
  if (audits_dropped && entries > 0) {
    EXPECT_EQ(field_after(json, "{\"index\":"), *audits_dropped);
    EXPECT_NE(json.find("{\"index\":" +
                        std::to_string(*audits_dropped + entries - 1) + ","),
              std::string::npos);
  }
  return !::testing::Test::HasFailure();
}

TEST(Provenance, ScrapesStayCoherentWhileBothRingsRotate) {
  // A served tenant is fed past both retention caps while another thread
  // scrapes it; every scrape must see whole windows. The feeder waits for
  // one scrape per 100 windows, so scrapes span the whole rotation.
  constexpr std::size_t kWindows = 4400;
  constexpr std::size_t kChunk = 100;
  core::ManagerConfig config;
  config.options.window = core::kRetentionWindow;
  core::MonitorManager manager(config);
  ASSERT_TRUE(manager.register_tenant("t"));
  core::TelemetryPlane plane;
  plane.attach_manager(&manager);
  ASSERT_TRUE(plane.start()) << plane.last_error();

  std::atomic<std::size_t> scrapes{0};
  std::atomic<bool> fed{false};
  std::thread feeder([&] {
    for (std::size_t w = 0; w < kWindows; ++w) {
      manager.feed("t", core::retention_window(w, core::retention_alarms(w)));
      if ((w + 1) % kChunk != 0) continue;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (scrapes.load() < (w + 1) / kChunk &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    fed = true;
  });
  std::size_t rounds = 0;
  while (!fed.load()) {
    if (!scrape_is_coherent(plane.port())) {
      scrapes = kWindows;  // Stop pacing the feeder; the test has failed.
      break;
    }
    ++rounds;
    ++scrapes;
  }
  feeder.join();
  EXPECT_GE(rounds, kWindows / kChunk);

  manager.stop("t");
  EXPECT_TRUE(scrape_is_coherent(plane.port()));
  const auto final_transcript =
      testing::http_get(plane.port(), "/tenants/t/transcript");
  ASSERT_TRUE(final_transcript.has_value());
  EXPECT_EQ(final_transcript->body.rfind(
                "=== monitor transcript ===\n"
                "windows=4400 alarms=275 audits_dropped=304\n",
                0),
            0u);
  const auto rotated =
      testing::http_get(plane.port(), "/tenants/t/provenance?id=19");
  ASSERT_TRUE(rotated.has_value());
  EXPECT_EQ(rotated->status, 404);
  const auto kept =
      testing::http_get(plane.port(), "/tenants/t/provenance?id=20");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->status, 200);

  // The lookup indexes the ring by id - provenance_dropped - 1: ids at or
  // below the dropped count, past the newest, or at the top of the range
  // must answer 404 without leaving the ring, and the retained ends must
  // answer with their record.
  const core::MonitorSnapshot snap = manager.snapshot("t").value();
  ASSERT_EQ(snap.provenance_dropped, 19u);
  ASSERT_EQ(snap.explained.size(), core::SlidingMonitor::kMaxExplained);
  const core::ProvenanceRecord& oldest = snap.explained.front()->provenance;
  const core::ProvenanceRecord& newest = snap.explained.back()->provenance;
  EXPECT_EQ(oldest.id, 20u);
  EXPECT_EQ(newest.id, 275u);
  for (const core::ProvenanceRecord* record : {&oldest, &newest}) {
    const auto got = testing::http_get(
        plane.port(),
        "/tenants/t/provenance?id=" + std::to_string(record->id));
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->status, 200) << record->id;
    EXPECT_EQ(got->body, core::render_provenance_json(*record) + "\n");
  }
  for (const std::string& id :
       {std::string("0"), std::to_string(newest.id + 1),
        std::string("18446744073709551615")}) {
    const auto got =
        testing::http_get(plane.port(), "/tenants/t/provenance?id=" + id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->status, 404) << id;
  }
  plane.stop();
}

TEST(Provenance, HeldSnapshotOutlivesRotationAndEviction) {
  // A snapshot shares the monitor's explained windows rather than copying
  // them. Rotating every one of them out of the ring, then evicting the
  // tenant (which frees its monitor), must leave what the held snapshot
  // renders byte for byte as it was.
  core::ManagerConfig config;
  config.options.window = core::kRetentionWindow;
  core::MonitorManager manager(config);
  std::size_t w = 0;
  for (; w < 600; ++w) {
    manager.feed("t", core::retention_window(w, core::retention_alarms(w)));
  }
  const core::MonitorSnapshot held = manager.snapshot("t").value();
  ASSERT_FALSE(held.explained.empty());
  const std::string transcript = core::render_monitor_transcript(held);
  const std::string records = core::render_provenance_collection_json(
      held.explained, held.provenance_dropped);

  const std::uint64_t newest_held = held.explained.back()->provenance.id;
  while (manager.snapshot("t")->provenance_dropped < newest_held) {
    for (const std::size_t end = w + 100; w < end; ++w) {
      manager.feed("t", core::retention_window(w, core::retention_alarms(w)));
    }
  }
  manager.tick();
  ASSERT_EQ(manager.evict_idle(1), std::vector<std::string>{"t"});
  ASSERT_EQ(manager.status("t")->state, core::ShardState::kEvicted);

  EXPECT_EQ(core::render_monitor_transcript(held), transcript);
  EXPECT_EQ(core::render_provenance_collection_json(held.explained,
                                                    held.provenance_dropped),
            records);
}

TEST(Provenance, TelemetryPlaneServesRecordsAndErrors) {
  const auto parsed = load_case("slowdown");
  ASSERT_TRUE(parsed.has_value());
  core::SlidingMonitor monitor(parsed->options);
  monitor.feed(parsed->events);
  monitor.flush();
  ASSERT_FALSE(monitor.snapshot().explained.empty());

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
  core::SlidingMonitor monitor(parsed->options);
  monitor.feed(parsed->events);
  monitor.flush();
  const core::MonitorSnapshot snap = monitor.snapshot();
  ASSERT_FALSE(snap.explained.empty());
  const core::ProvenanceRecord& first = snap.explained.front()->provenance;

  const fs::path dir =
      fs::path(::testing::TempDir()) / "flowdiff_explain_test";
  fs::remove_all(dir);
  fs::create_directories(dir);
  ASSERT_TRUE(of::write_file(
      (dir / "provenance.json").string(),
      core::render_provenance_collection_json(snap.explained,
                                              snap.provenance_dropped)));

  // What explain must print: the record as the JSON carries it, rendered
  // with its latency breakdown. Shortest-round-trip numbers make this
  // byte-identical to rendering the in-memory record.
  const std::string expected =
      core::render_provenance_text(first, /*with_latency=*/true);
  const auto result = run_cli({"explain", std::to_string(first.id),
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
  core::SlidingMonitor monitor(parsed->options);
  monitor.feed(parsed->events);
  monitor.flush();
  const core::MonitorSnapshot snap = monitor.snapshot();
  ASSERT_FALSE(snap.explained.empty());
  const std::uint64_t id = snap.explained.front()->provenance.id;
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
