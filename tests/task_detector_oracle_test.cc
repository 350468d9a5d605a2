// The flat task detector against the map-based one it replaced
// (reference_detector.h). Every sweep case runs both on the same automata,
// configuration and flow stream and requires the same occurrences in the
// same order, field by field, and the same totals on every task.* counter.
// The sweeps cover learned masked and unmasked tasks under interleaved
// noise, random automata whose variables collide (injectivity conflicts,
// shared variable ids, self-loops and branching), matcher-cap saturation,
// expiry exactly at the interleaving threshold and overlapping duplicate
// runs of one task.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "flowdiff/task_automaton.h"
#include "flowdiff/task_mining.h"
#include "obs/metrics.h"
#include "reference_detector.h"
#include "util/rng.h"
#include "workload/tasks.h"

namespace flowdiff::core {
namespace {

using reference::ReferenceCounts;

wl::ServiceCatalog services() {
  wl::ServiceCatalog s;
  s.nfs = Ipv4(10, 0, 10, 1);
  s.dns = Ipv4(10, 0, 10, 2);
  s.dhcp = Ipv4(10, 0, 10, 3);
  s.ntp = Ipv4(10, 0, 10, 4);
  s.netbios = Ipv4(10, 0, 10, 5);
  s.metadata = Ipv4(10, 0, 10, 6);
  s.apt_mirror = Ipv4(10, 0, 10, 7);
  return s;
}

std::set<Ipv4> service_set() {
  const auto v = services().special_nodes();
  return {v.begin(), v.end()};
}

const std::vector<Ipv4> kVms = {Ipv4(10, 0, 1, 1), Ipv4(10, 0, 2, 1),
                                Ipv4(10, 0, 3, 1), Ipv4(10, 0, 4, 1)};

/// A uniform index in [0, n).
std::size_t pick(Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
}

ReferenceCounts registry_counts() {
  auto& r = obs::Registry::global();
  ReferenceCounts c;
  c.flows_scanned = r.counter("task.flows_scanned").value();
  c.transitions_evaluated = r.counter("task.transitions_evaluated").value();
  c.matchers_spawned = r.counter("task.matchers_spawned").value();
  c.matchers_expired = r.counter("task.matchers_expired").value();
  c.occurrences_accepted = r.counter("task.occurrences_accepted").value();
  c.occurrences_deduped = r.counter("task.occurrences_deduped").value();
  return c;
}

ReferenceCounts operator-(const ReferenceCounts& a, const ReferenceCounts& b) {
  return {a.flows_scanned - b.flows_scanned,
          a.transitions_evaluated - b.transitions_evaluated,
          a.matchers_spawned - b.matchers_spawned,
          a.matchers_expired - b.matchers_expired,
          a.occurrences_accepted - b.occurrences_accepted,
          a.occurrences_deduped - b.occurrences_deduped};
}

std::string describe(const ReferenceCounts& c) {
  return "scanned=" + std::to_string(c.flows_scanned) +
         " evaluated=" + std::to_string(c.transitions_evaluated) +
         " spawned=" + std::to_string(c.matchers_spawned) +
         " expired=" + std::to_string(c.matchers_expired) +
         " accepted=" + std::to_string(c.occurrences_accepted) +
         " deduped=" + std::to_string(c.occurrences_deduped);
}

class TaskDetectorOracle : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = obs::enabled();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(was_enabled_);
    RecordProperty("cases", static_cast<int>(cases_));
    RecordProperty("reference_counts", describe(totals_));
  }

  /// Runs both detectors and compares every occurrence field and every
  /// counter delta; returns the reference's counts for coverage checks.
  ReferenceCounts expect_same(const std::vector<TaskAutomaton>& automata,
                              const DetectorConfig& config,
                              const of::FlowSequence& flows,
                              const std::string& label) {
    ReferenceCounts want_counts;
    const auto want = reference::detect(automata, config, flows, want_counts);
    const ReferenceCounts before = registry_counts();
    const auto got = detect_tasks(automata, config, flows);
    const ReferenceCounts got_counts = registry_counts() - before;
    ++cases_;
    totals_.flows_scanned += want_counts.flows_scanned;
    totals_.transitions_evaluated += want_counts.transitions_evaluated;
    totals_.matchers_spawned += want_counts.matchers_spawned;
    totals_.matchers_expired += want_counts.matchers_expired;
    totals_.occurrences_accepted += want_counts.occurrences_accepted;
    totals_.occurrences_deduped += want_counts.occurrences_deduped;

    EXPECT_EQ(got_counts, want_counts)
        << label << "\n  got  " << describe(got_counts) << "\n  want "
        << describe(want_counts);
    EXPECT_EQ(got.size(), want.size()) << label;
    for (std::size_t i = 0; i < std::min(got.size(), want.size()); ++i) {
      EXPECT_EQ(got[i].task, want[i].task) << label << " occurrence " << i;
      EXPECT_EQ(got[i].begin, want[i].begin) << label << " occurrence " << i;
      EXPECT_EQ(got[i].end, want[i].end) << label << " occurrence " << i;
      EXPECT_EQ(got[i].involved, want[i].involved)
          << label << " occurrence " << i;
    }
    return want_counts;
  }

  ReferenceCounts totals_;
  std::size_t cases_ = 0;
  bool was_enabled_ = false;
};

TaskAutomaton learn(const wl::TaskProfile& profile, int subjects, bool masked,
                    std::uint64_t seed) {
  Rng rng(seed);
  std::vector<of::FlowSequence> runs;
  std::vector<Ipv4> hosts(kVms.begin(), kVms.begin() + subjects);
  for (int i = 0; i < 10; ++i) {
    runs.push_back(
        wl::expand_task(profile, hosts, services(), rng, 0).flows);
  }
  MiningConfig config;
  config.mask_subjects = masked;
  config.service_ips = service_set();
  return mine_task(profile.name, runs, config).automaton;
}

TEST_F(TaskDetectorOracle, LearnedTasksUnderInterleavedNoise) {
  struct Learned {
    wl::TaskProfile profile;
    int subjects;
  };
  const std::vector<Learned> profiles = {
      {wl::vm_migration_profile(), 2}, {wl::mount_nfs_profile(), 1},
      {wl::vm_stop_profile(), 1},      {wl::vm_startup_profile(0), 1},
      {wl::unmount_nfs_profile(), 1},
  };
  std::vector<TaskAutomaton> automata;
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    for (const bool masked : {false, true}) {
      automata.push_back(learn(profiles[i].profile, profiles[i].subjects,
                               masked, 100 + i));
    }
  }

  std::vector<Ipv4> noise_hosts = kVms;
  for (const Ipv4 ip : services().special_nodes()) noise_hosts.push_back(ip);

  ReferenceCounts seen;
  bool saturated = false;
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    std::vector<of::FlowSequence> parts;
    SimTime t = 0;
    const int runs = static_cast<int>(rng.uniform_int(2, 6));
    for (int r = 0; r < runs; ++r) {
      const auto& learned = profiles[pick(rng, profiles.size())];
      std::vector<Ipv4> subjects;
      const std::size_t first = pick(rng, kVms.size());
      for (int s = 0; s < learned.subjects; ++s) {
        subjects.push_back(kVms[(first + static_cast<std::size_t>(s)) %
                                kVms.size()]);
      }
      // Runs overlap often: a duplicate run of the same task on the same
      // hosts inside another's span must collapse exactly as before.
      t += static_cast<SimTime>(rng.uniform_int(0, 3000)) * kMillisecond;
      auto run = wl::expand_task(learned.profile, subjects, services(), rng, t);
      parts.push_back(std::move(run.flows));
      if (rng.bernoulli(0.3)) {
        auto again = wl::expand_task(learned.profile, subjects, services(),
                                     rng, t + 200 * kMillisecond);
        parts.push_back(std::move(again.flows));
      }
    }
    parts.push_back(wl::background_noise(
        noise_hosts, static_cast<std::size_t>(rng.uniform_int(50, 300)), 0,
        t + 5 * kSecond, rng));
    const auto flows = wl::merge_sequences(std::move(parts));

    std::uint64_t uncapped_spawns = 0;
    for (const std::size_t cap : {std::size_t{256}, std::size_t{2},
                                  std::size_t{1}}) {
      DetectorConfig config;
      config.service_ips = service_set();
      config.max_matchers_per_task = cap;
      const auto c = expect_same(
          automata, config, flows,
          "seed " + std::to_string(seed) + " cap " + std::to_string(cap));
      seen.occurrences_accepted += c.occurrences_accepted;
      seen.occurrences_deduped += c.occurrences_deduped;
      seen.matchers_expired += c.matchers_expired;
      if (cap == 256) uncapped_spawns = c.matchers_spawned;
      saturated = saturated || c.matchers_spawned < uncapped_spawns;
    }
  }
  // The sweep is not vacuous: tasks were found, duplicates collapsed,
  // matchers timed out and the small caps refused spawns.
  EXPECT_TRUE(saturated);
  EXPECT_GT(seen.occurrences_accepted, 0u);
  EXPECT_GT(seen.occurrences_deduped, 0u);
  EXPECT_GT(seen.matchers_expired, 0u);
}

/// Random automata over a tiny alphabet, so that tokens match often and
/// variables collide: a few hosts, two services, ports below and above
/// the ephemeral floor, sparse variable ids shared across automata.
class RandomAlphabet {
 public:
  explicit RandomAlphabet(Rng& rng) : rng_(rng) {}

  TokenEndpoint endpoint() {
    TokenEndpoint ep;
    if (rng_.bernoulli(0.5)) {
      ep.kind = TokenEndpoint::Kind::kVariable;
      ep.var = kVars[pick(rng_, kVars.size())];
    } else {
      ep.kind = TokenEndpoint::Kind::kLiteral;
      ep.ip = host();
    }
    if (rng_.bernoulli(0.5)) {
      ep.port_any = true;
    } else {
      ep.port = kPorts[pick(rng_, kPorts.size())];
    }
    return ep;
  }

  FlowToken token() {
    FlowToken t;
    t.src = endpoint();
    t.dst = endpoint();
    t.proto = rng_.bernoulli(0.8) ? of::Proto::kTcp : of::Proto::kUdp;
    return t;
  }

  TaskAutomaton automaton(const std::string& name) {
    TaskAutomaton a;
    a.name = name;
    const auto states = rng_.uniform_int(1, 4);
    for (std::int64_t s = 0; s < states; ++s) {
      std::vector<FlowToken> seq;
      const auto tokens = rng_.uniform_int(1, 3);
      for (std::int64_t k = 0; k < tokens; ++k) seq.push_back(token());
      a.states.push_back(std::move(seq));
      std::set<int> succ;
      const auto outs = rng_.uniform_int(0, 2);
      for (std::int64_t k = 0; k < outs; ++k) {
        succ.insert(static_cast<int>(rng_.uniform_int(0, states - 1)));
      }
      a.transitions.push_back(std::move(succ));
      if (s == 0 || rng_.bernoulli(0.3)) {
        a.start_states.insert(static_cast<int>(s));
      }
      if (s == states - 1 || rng_.bernoulli(0.2)) {
        a.accept_states.insert(static_cast<int>(s));
      }
    }
    return a;
  }

  Ipv4 host() {
    const auto i = rng_.uniform_int(0, 4);
    if (i < 3) return kVms[static_cast<std::size_t>(i)];
    return i == 3 ? services().nfs : services().dns;
  }

  /// A flow that fits `token` up to its variables, which take random
  /// hosts (so bindings agree only some of the time), with an ephemeral
  /// port now and then just below the floor.
  of::TimedFlow instance(const FlowToken& token, SimTime ts) {
    const auto ip = [this](const TokenEndpoint& ep) {
      return ep.kind == TokenEndpoint::Kind::kLiteral ? ep.ip : host();
    };
    const auto port = [this](const TokenEndpoint& ep) {
      if (!ep.port_any) return ep.port;
      return rng_.bernoulli(0.1)
                 ? std::uint16_t{9999}
                 : static_cast<std::uint16_t>(40000 + rng_.uniform_int(0, 3));
    };
    of::TimedFlow f;
    f.ts = ts;
    f.key = of::FlowKey{ip(token.src), ip(token.dst), port(token.src),
                        port(token.dst), token.proto};
    return f;
  }

  of::TimedFlow flow(SimTime ts) {
    of::TimedFlow f;
    f.ts = ts;
    f.key.src_ip = host();
    f.key.dst_ip = rng_.bernoulli(0.1) ? f.key.src_ip : host();
    f.key.src_port = kFlowPorts[pick(rng_, kFlowPorts.size())];
    f.key.dst_port = kFlowPorts[pick(rng_, kFlowPorts.size())];
    f.key.proto = rng_.bernoulli(0.85) ? of::Proto::kTcp : of::Proto::kUdp;
    return f;
  }

 private:
  static constexpr std::array<int, 3> kVars = {0, 2, 7};
  static constexpr std::array<std::uint16_t, 3> kPorts = {53, 80, 2049};
  static constexpr std::array<std::uint16_t, 6> kFlowPorts = {
      53, 80, 2049, 9999, 10000, 40000};
  Rng& rng_;
};

TEST_F(TaskDetectorOracle, RandomAutomataWithCollidingVariables) {
  ReferenceCounts seen;
  for (std::uint64_t seed = 1; seed <= 1000; ++seed) {
    Rng rng(seed);
    RandomAlphabet alphabet(rng);
    std::vector<TaskAutomaton> automata;
    const auto count = rng.uniform_int(1, 4);
    for (std::int64_t a = 0; a < count; ++a) {
      // Now and then two automata share a name, so that de-duplication
      // runs across automata too.
      automata.push_back(alphabet.automaton(
          "task" + std::to_string(rng.bernoulli(0.2) ? 0 : a)));
    }
    DetectorConfig config;
    config.service_ips = {services().nfs, services().dns};
    config.interleave_threshold = 100 * kMillisecond;
    config.max_matchers_per_task =
        static_cast<std::size_t>(rng.uniform_int(0, 2) == 0
                                     ? rng.uniform_int(0, 3)
                                     : 256);
    // Gaps land exactly on the threshold, one tick either side of it, or
    // well inside it, so expiry is decided at its boundary.
    const std::array<SimDuration, 6> gaps = {
        0, 1, 50 * kMillisecond, config.interleave_threshold - 1,
        config.interleave_threshold, config.interleave_threshold + 1};
    of::FlowSequence flows;
    SimTime ts = 0;
    const auto length = rng.uniform_int(20, 150);
    for (std::int64_t i = 0; i < length; ++i) {
      ts += gaps[pick(rng, gaps.size())];
      if (rng.bernoulli(0.3)) {
        flows.push_back(alphabet.flow(ts));
        continue;
      }
      const auto& automaton = automata[pick(rng, automata.size())];
      const auto& seq = automaton.states[pick(rng, automaton.states.size())];
      flows.push_back(alphabet.instance(seq[pick(rng, seq.size())], ts));
    }
    const auto c =
        expect_same(automata, config, flows, "seed " + std::to_string(seed));
    seen.occurrences_accepted += c.occurrences_accepted;
    seen.occurrences_deduped += c.occurrences_deduped;
    seen.matchers_expired += c.matchers_expired;
    seen.matchers_spawned += c.matchers_spawned;
    if (::testing::Test::HasFailure()) return;  // One seed's diff is enough.
  }
  EXPECT_GT(seen.occurrences_accepted, 0u);
  EXPECT_GT(seen.occurrences_deduped, 0u);
  EXPECT_GT(seen.matchers_expired, 0u);
}

TEST_F(TaskDetectorOracle, InjectivityConflictsAndSharedVariables) {
  // #0 -> #1 then #1 -> #0: a flow whose two ends are one host cannot bind
  // both variables, and a second automaton reuses the same variable ids
  // with its own, independent bindings.
  const auto parse = [](const char* text) {
    auto a = TaskAutomaton::parse(text);
    EXPECT_TRUE(a.has_value()) << text;
    return a.value_or(TaskAutomaton{});
  };
  const std::vector<TaskAutomaton> automata = {
      parse("TASK pair\nSTATE 0 start\nTOKEN #0 * #1 80 6\nTRANS 1\n"
            "STATE 1 accept\nTOKEN #1 80 #0 * 6\nTRANS\n"),
      parse("TASK echo\nSTATE 0 start accept\nTOKEN #1 * #0 80 6\n"
            "TOKEN #0 * 10.0.10.1 2049 6\nTRANS\n"),
  };
  const Ipv4 a = kVms[0];
  const Ipv4 b = kVms[1];
  const Ipv4 nfs = services().nfs;
  of::FlowSequence flows;
  SimTime ts = 0;
  const auto add = [&](Ipv4 src, std::uint16_t sport, Ipv4 dst,
                       std::uint16_t dport) {
    ts += 10 * kMillisecond;
    flows.push_back({ts, of::FlowKey{src, dst, sport, dport, of::Proto::kTcp}});
  };
  add(a, 40000, a, 80);   // Self-flow: #0 and #1 cannot both be a.
  add(a, 40000, b, 80);   // pair binds #0=a #1=b; echo binds #1=a #0=b.
  add(b, 80, a, 40001);   // pair accepts.
  add(b, 40002, nfs, 2049);  // echo accepts.
  add(nfs, 40003, a, 80);    // A service never binds a variable.
  add(a, 40004, b, 80);
  add(a, 80, a, 40005);      // #1 is b, not a: pair waits.
  add(b, 80, a, 40006);      // Now it accepts again.
  DetectorConfig config;
  config.service_ips = service_set();
  const auto c = expect_same(automata, config, flows, "handmade");
  EXPECT_GT(c.occurrences_accepted, 0u);
}

}  // namespace
}  // namespace flowdiff::core
