// Golden-trace regression corpus: every committed capture under
// tests/corpus/ replays to a byte-identical monitor transcript. Any
// drift in modeling, diffing, diagnosis wording, sanitizer behavior, or
// report rendering fails here as a plain text diff; intentional changes
// regenerate the corpus with tools/gen_corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "experiment/lab_experiment.h"
#include "openflow/log_io.h"
#include "workload/fingerprint.h"
#include "workload/flood.h"
#include "workload/incast.h"

namespace flowdiff::exp {
namespace {

namespace fs = std::filesystem;

std::vector<fs::path> corpus_logs() {
  std::vector<fs::path> logs;
  for (const auto& entry : fs::directory_iterator(FLOWDIFF_CORPUS_DIR)) {
    if (entry.path().extension() == ".log") logs.push_back(entry.path());
  }
  std::sort(logs.begin(), logs.end());
  return logs;
}

TEST(CorpusRegression, CorpusIsPresent) {
  // The committed corpus must cover at least the seven canonical cases
  // (steady / slowdown / unauthorized / corrupted_slowdown plus the
  // fingerprint / flood / incast attack scenarios); an empty or partially
  // deleted corpus would make every other test here pass vacuously.
  const auto logs = corpus_logs();
  ASSERT_GE(logs.size(), 7u)
      << "expected >= 7 corpus cases in " << FLOWDIFF_CORPUS_DIR
      << "; regenerate with tools/gen_corpus";
  for (const auto& log : logs) {
    fs::path golden = log;
    golden.replace_extension(".golden");
    EXPECT_TRUE(fs::exists(golden)) << golden << " missing for " << log;
    fs::path provenance = log;
    provenance.replace_extension(".provenance");
    EXPECT_TRUE(fs::exists(provenance)) << provenance << " missing for "
                                        << log;
  }
}

TEST(CorpusRegression, EveryCaseReplaysToItsGolden) {
  for (const auto& log_path : corpus_logs()) {
    SCOPED_TRACE(log_path.filename().string());
    const auto text = of::read_file(log_path.string());
    ASSERT_TRUE(text.has_value()) << "unreadable: " << log_path;
    const auto corpus_case = parse_corpus_case(*text);
    ASSERT_TRUE(corpus_case.has_value()) << "unparseable: " << log_path;
    ASSERT_FALSE(corpus_case->events.empty());

    fs::path golden_path = log_path;
    golden_path.replace_extension(".golden");
    const auto golden = of::read_file(golden_path.string());
    ASSERT_TRUE(golden.has_value()) << "unreadable: " << golden_path;

    const std::string transcript = replay_corpus_case(*corpus_case);
    EXPECT_EQ(transcript, *golden)
        << "transcript drifted from " << golden_path.filename()
        << "; if the change is intentional, regenerate with "
           "tools/gen_corpus and commit the diff";

    // The oracle mode (every window rebuilt from its raw events) is pinned
    // to the same golden, so the corpus holds both modeling paths to one
    // spec rather than only to each other.
    auto oracle_case = *corpus_case;
    oracle_case.options.incremental = false;
    EXPECT_EQ(replay_corpus_case(oracle_case), *golden)
        << "oracle-mode transcript drifted from " << golden_path.filename();
  }
}

TEST(CorpusRegression, ReplayIsDeterministic) {
  // The property the whole corpus rests on: replaying the same case twice
  // (fresh monitor each time) yields identical text.
  const auto logs = corpus_logs();
  ASSERT_FALSE(logs.empty());
  const auto text = of::read_file(logs.front().string());
  ASSERT_TRUE(text.has_value());
  const auto corpus_case = parse_corpus_case(*text);
  ASSERT_TRUE(corpus_case.has_value());
  EXPECT_EQ(replay_corpus_case(*corpus_case),
            replay_corpus_case(*corpus_case));
}

TEST(CorpusRegression, SerializationRoundTripsLosslessly) {
  // serialize(parse(file)) == file for every committed case — arrival
  // order (including the corrupted case's deliberate disorder) must
  // survive the disk round trip, or the corpus silently re-sorts itself.
  // The header alone round-trips through MonitorOptions too, including
  // the default lateness_us the unsanitized cases carry.
  std::string body;
  for (const auto& log_path : corpus_logs()) {
    SCOPED_TRACE(log_path.filename().string());
    const auto text = of::read_file(log_path.string());
    ASSERT_TRUE(text.has_value());
    const auto corpus_case = parse_corpus_case(*text);
    ASSERT_TRUE(corpus_case.has_value());
    EXPECT_EQ(serialize_corpus_case(corpus_case->options,
                                    corpus_case->events),
              *text);
    const std::size_t eol = text->find('\n');
    ASSERT_NE(eol, std::string::npos);
    EXPECT_EQ(corpus_header(corpus_case->options), text->substr(0, eol + 1));
    body = text->substr(eol + 1);
  }

  // A header encodes options, so one that MonitorOptions::validate()
  // rejects does not parse; the same events under a coherent header do.
  const std::string sanitized =
      "# corpus window_us=40000000 sanitize=1 rolling=0 services=-";
  EXPECT_TRUE(parse_corpus_case(sanitized + " lateness_us=39999999\n" + body)
                  .has_value());
  for (const std::string& header :
       {sanitized + " lateness_us=40000000",  // Horizon == window.
        sanitized + " lateness_us=0",
        std::string("# corpus window_us=0 sanitize=0 services=-"),
        // A non-default horizon without the sanitizer it applies to.
        std::string("# corpus window_us=40000000 sanitize=0 "
                    "lateness_us=2000000 services=-")}) {
    SCOPED_TRACE(header);
    EXPECT_FALSE(parse_corpus_case(header + "\n" + body).has_value());
  }
}

TEST(CorpusRegression, CorruptedCaseMarksDegradedWindows) {
  // The sanitize=1 case exists to pin degraded-mode output; its transcript
  // must actually exercise it.
  bool found = false;
  for (const auto& log_path : corpus_logs()) {
    if (log_path.stem() != "corrupted_slowdown") continue;
    found = true;
    fs::path golden_path = log_path;
    golden_path.replace_extension(".golden");
    const auto golden = of::read_file(golden_path.string());
    ASSERT_TRUE(golden.has_value());
    EXPECT_NE(golden->find("DEGRADED"), std::string::npos)
        << "corrupted corpus case never entered degraded mode";
  }
  EXPECT_TRUE(found) << "corrupted_slowdown.log missing from corpus";
}

TEST(CorpusRegression, AttackCasesDiagnoseTheirOwnFamily) {
  // Each committed attack scenario must alarm, and the diagnosis must rank
  // the matching adversarial class first — not just report generic
  // divergence. The full transcript bytes are pinned by
  // EveryCaseReplaysToItsGolden; this spells out the behavioral claim so a
  // regeneration that demotes a class fails with a readable message.
  const struct {
    const char* name;
    const char* top_class;
  } kAttacks[] = {
      {"fingerprint", "controller fingerprinting (timing probes)"},
      {"flood", "volumetric packet-in flood"},
      {"incast", "incast (many-to-one burst)"},
  };
  for (const auto& attack : kAttacks) {
    SCOPED_TRACE(attack.name);
    const auto golden = of::read_file(std::string(FLOWDIFF_CORPUS_DIR) +
                                      "/" + attack.name + ".golden");
    ASSERT_TRUE(golden.has_value())
        << attack.name << ".golden missing (run tools/gen_corpus)";
    EXPECT_NE(golden->find("ALARM"), std::string::npos)
        << attack.name << " corpus case never alarmed";
    const std::string expected_top =
        std::string("likely problem types:\n  ") + attack.top_class;
    EXPECT_NE(golden->find(expected_top), std::string::npos)
        << attack.name << " did not rank '" << attack.top_class
        << "' as the most likely problem class";
  }
}

TEST(CorpusRegression, ZeroIntensityAttacksAreInvisible) {
  // Negative control: every attack generator at intensity 0, interleaved
  // with the steady scenario, must schedule nothing — the resulting
  // capture, transcript, and provenance are byte-identical to the steady
  // case (zero alarms, zero suppressed changes, zero perturbation of the
  // shared event stream).
  const std::string dir = FLOWDIFF_CORPUS_DIR;
  const auto steady_text = of::read_file(dir + "/steady.log");
  ASSERT_TRUE(steady_text.has_value());
  const auto steady_case = parse_corpus_case(*steady_text);
  ASSERT_TRUE(steady_case.has_value());

  LabExperiment lab{LabExperimentConfig{}};
  const auto& scenario = lab.lab();
  std::vector<of::ControlEvent> stream;
  for (int window = 0; window < 3; ++window) {
    const SimTime begin = lab.now();
    wl::FingerprintSpec probe_spec;
    probe_spec.intensity = 0.0;
    wl::FingerprintProber prober(lab.net(), scenario.host("S16"),
                                 scenario.services.ntp, probe_spec, Rng(901));
    prober.start(begin + 3 * kSecond, begin + 27 * kSecond);

    wl::FloodSpec flood_spec;
    flood_spec.intensity = 0.0;
    wl::VolumetricFlood flood(lab.net(),
                              {scenario.host("S1"), scenario.host("S5")},
                              scenario.ip("S7"), flood_spec, Rng(902));
    flood.start(begin + 3 * kSecond, begin + 27 * kSecond);

    wl::IncastSpec incast_spec;
    incast_spec.intensity = 0.0;
    wl::IncastTraffic incast(lab.net(),
                             {scenario.host("S1"), scenario.host("S2")},
                             scenario.host("S10"), incast_spec, Rng(903));
    incast.start(begin + 3 * kSecond, begin + 27 * kSecond);

    const auto capture = lab.run_window();
    stream.insert(stream.end(), capture.events().begin(),
                  capture.events().end());
    EXPECT_EQ(prober.probes_sent(), 0u);
    EXPECT_EQ(flood.flows_sent(), 0u);
    EXPECT_EQ(incast.flows_sent(), 0u);
  }

  EXPECT_EQ(serialize_corpus_case(steady_case->options, stream),
            *steady_text)
      << "zero-intensity generators perturbed the steady capture";
  const CorpusCase control{steady_case->options, std::move(stream)};
  const std::string transcript = replay_corpus_case(control);
  EXPECT_NE(transcript.find("alarms=0"), std::string::npos);
  const auto steady_golden = of::read_file(dir + "/steady.golden");
  ASSERT_TRUE(steady_golden.has_value());
  EXPECT_EQ(transcript, *steady_golden);
  const auto steady_provenance = of::read_file(dir + "/steady.provenance");
  ASSERT_TRUE(steady_provenance.has_value());
  EXPECT_EQ(replay_corpus_provenance(control), *steady_provenance);
}

}  // namespace
}  // namespace flowdiff::exp
