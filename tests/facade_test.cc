// FlowDiff facade: the one service set, report rendering paths, and the
// learn_task convenience wrapper.
#include <gtest/gtest.h>

#include "experiment/lab_experiment.h"
#include "flowdiff/flowdiff.h"
#include "workload/tasks.h"

namespace flowdiff::core {
namespace {

// The facade's one service set is model.special_nodes: validation and
// task detection both read it from there.
const Ipv4 kVm(10, 0, 1, 1);
const Ipv4 kHost(10, 0, 2, 1);
const Ipv4 kNfs(10, 0, 10, 1);

FlowDiff facade_serving(Ipv4 service) {
  FlowDiffConfig config;
  config.model.special_nodes = {service};
  return FlowDiff(config);
}

TaskAutomaton automaton(const std::string& text) {
  auto parsed = TaskAutomaton::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.value_or(TaskAutomaton{});
}

of::TimedFlow flow(SimTime ts, Ipv4 src, std::uint16_t sport, Ipv4 dst,
                   std::uint16_t dport) {
  return {ts, of::FlowKey{src, dst, sport, dport, of::Proto::kTcp}};
}

TEST(FlowDiffFacade, ValidationReadsTheServiceSet) {
  // A migration from kVm to kHost explains a new edge kVm -> kNfs: the
  // task does not involve kNfs, which only the service set excuses.
  const TaskAutomaton migrate = automaton(
      "TASK migrate\n"
      "STATE 0 start accept\nTOKEN #0 * #1 8002 6\nTRANS\n");
  GroupModel group;
  group.sig.members = {kVm, kHost, kNfs};
  group.sig.cg.graph.add_edge(kVm, kHost);
  BehaviorModel baseline;
  baseline.groups = {group};
  BehaviorModel current = baseline;
  current.groups[0].sig.cg.graph.add_edge(kVm, kNfs);
  current.groups[0].sig.fs.per_edge[HostEdge{kVm, kNfs}].first_ts =
      10 * kSecond;
  current.flow_starts = {flow(9 * kSecond, kVm, 40000, kHost, 8002)};

  const DiffReport report =
      facade_serving(kNfs).diff(baseline, current, {migrate});
  ASSERT_EQ(report.detected_tasks.size(), 1u);
  EXPECT_EQ(report.change_count(), 1u);
  ASSERT_EQ(report.known.size(), 1u);
  EXPECT_EQ(report.known[0].description,
            "new edge " + kVm.to_string() + "->" + kNfs.to_string());
  EXPECT_TRUE(report.unknown.empty());
  EXPECT_TRUE(report.clean());
}

TEST(FlowDiffFacade, DetectionReadsTheServiceSet) {
  // kVm mounts kNfs, then copies to a host. A copy to the service itself
  // comes first; a subject variable must not bind to the service.
  const TaskAutomaton mount_then_copy = automaton(
      "TASK mount_then_copy\n"
      "STATE 0 start\nTOKEN #0 * 10.0.10.1 2049 6\nTRANS 1\n"
      "STATE 1 accept\nTOKEN #0 * #1 8002 6\nTRANS\n");
  BehaviorModel current;
  current.flow_starts = {
      flow(1000 * kMillisecond, kVm, 40000, kNfs, 2049),
      flow(1100 * kMillisecond, kVm, 40001, kNfs, 8002),
      flow(1200 * kMillisecond, kVm, 40002, kHost, 8002),
  };

  const DiffReport report =
      facade_serving(kNfs).diff(BehaviorModel{}, current, {mount_then_copy});
  ASSERT_EQ(report.detected_tasks.size(), 1u);
  const TaskOccurrence& task = report.detected_tasks[0];
  EXPECT_EQ(task.task, "mount_then_copy");
  EXPECT_EQ(task.begin, 1000 * kMillisecond);
  EXPECT_EQ(task.end, 1200 * kMillisecond);
  EXPECT_EQ(task.involved, (std::vector<Ipv4>{kVm, kHost, kNfs}));
}

TEST(FlowDiffFacade, LearnTaskUsesConfiguredServices) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  const FlowDiff flowdiff(lab.flowdiff_config());
  Rng rng(3);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < 8; ++i) {
    runs.push_back(
        wl::expand_task(wl::vm_migration_profile(),
                        {lab.lab().ip("VM1"), lab.lab().ip("VM2")},
                        lab.lab().services, rng, 0)
            .flows);
  }
  const MinedTask mined = flowdiff.learn_task("migration", runs, true);
  ASSERT_FALSE(mined.automaton.empty());
  // Masked: service endpoints stayed literal, subjects became variables.
  bool literal_service = false;
  bool variable_subject = false;
  for (const auto& state : mined.automaton.states) {
    for (const auto& token : state) {
      for (const auto& ep : {token.src, token.dst}) {
        if (ep.kind == TokenEndpoint::Kind::kLiteral &&
            ep.ip == lab.lab().services.nfs) {
          literal_service = true;
        }
        if (ep.kind == TokenEndpoint::Kind::kVariable) {
          variable_subject = true;
        }
      }
    }
  }
  EXPECT_TRUE(literal_service);
  EXPECT_TRUE(variable_subject);
}

TEST(DiffReport, CleanRenderSaysSo) {
  DiffReport report;
  const std::string text = report.render();
  EXPECT_NE(text.find("no unknown changes"), std::string::npos);
  EXPECT_EQ(text.find("UNKNOWN"), std::string::npos);
  EXPECT_TRUE(report.clean());
}

TEST(DiffReport, RenderListsTasksKnownAndUnknown) {
  DiffReport report;
  TaskOccurrence occ;
  occ.task = "vm_migration";
  occ.begin = 5 * kSecond;
  occ.end = 6 * kSecond;
  occ.involved = {Ipv4(10, 0, 9, 1)};
  report.detected_tasks = {occ};

  Change known;
  known.kind = SignatureKind::kCg;
  known.description = "new edge A->B";
  report.known = {known};
  report.known_explanations = {"explained by task 'vm_migration' at t=5s"};

  Change unknown;
  unknown.kind = SignatureKind::kDd;
  unknown.description = "delay peak shifted 60ms";
  report.unknown = {unknown};
  report.matrix = build_dependency_matrix(report.unknown);
  report.problems = classify(report.matrix, report.unknown);
  report.component_ranking = {{"10.0.0.1", 3}};

  const std::string text = report.render();
  EXPECT_NE(text.find("detected operator tasks"), std::string::npos);
  EXPECT_NE(text.find("vm_migration"), std::string::npos);
  EXPECT_NE(text.find("known changes"), std::string::npos);
  EXPECT_NE(text.find("UNKNOWN changes"), std::string::npos);
  EXPECT_NE(text.find("dependency matrix"), std::string::npos);
  EXPECT_NE(text.find("implicated components"), std::string::npos);
  EXPECT_FALSE(report.clean());
}

TEST(FlowDiffFacade, ModelerMatchesFacade) {
  // A bare Modeler and the FlowDiff facade are two construction sites for
  // the same engine; both paths must yield the same model (a diff between
  // them is change-free in both directions).
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  const auto log = lab.run_window();
  const FlowDiffConfig config = lab.flowdiff_config();
  const BehaviorModel via_modeler = Modeler(config.model).build(log);
  const FlowDiff flowdiff(config);
  const BehaviorModel via_facade = flowdiff.model(log);
  ASSERT_EQ(via_modeler.groups.size(), via_facade.groups.size());
  EXPECT_EQ(flowdiff.diff(via_modeler, via_facade).change_count(), 0u);
  EXPECT_EQ(flowdiff.diff(via_facade, via_modeler).change_count(), 0u);
}

TEST(FlowDiffFacade, ModelRespectsSignatureConfig) {
  // Every DD histogram has the paper's bin width, and every peak lands on
  // the centre of one of its bins.
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  const auto model = FlowDiff(lab.flowdiff_config()).model(lab.run_window());
  std::size_t peaks = 0;
  for (const auto& group : model.groups) {
    for (const auto& [pair, dd] : group.sig.dd.per_pair) {
      EXPECT_EQ(dd.hist.bin_width(), kDdBinMs);
      const double offset = dd.peak_ms - kDdBinMs / 2;
      EXPECT_NEAR(offset, std::round(offset / kDdBinMs) * kDdBinMs, 1e-9);
      ++peaks;
    }
  }
  EXPECT_GT(peaks, 0u);
}

}  // namespace
}  // namespace flowdiff::core
