// Run report (src/flowdiff/report.*): the joined Markdown/HTML artifact
// built from the monitor's audit trail, the sampled series, and the
// flight-recorder tail.
#include "flowdiff/report.h"

#include <gtest/gtest.h>

#include <memory>

#include <string>

#include "experiment/lab_experiment.h"
#include "obs/obs.h"

namespace flowdiff::core {
namespace {

class ReportTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Registry::global().reset();
    obs::Trace::global().clear();
    obs::Sampler::global().clear();
    obs::FlightRecorder::global().clear();
    obs::set_enabled(true);
  }
  void TearDown() override {
    obs::set_enabled(false);
    obs::Registry::global().reset();
    obs::Trace::global().clear();
    obs::Sampler::global().clear();
    obs::FlightRecorder::global().clear();
  }
};

MonitorOptions monitor_options(const exp::LabExperiment& lab) {
  MonitorOptions options;
  options.services = lab.flowdiff_config().model.special_nodes;
  options.window = 300 * kSecond;
  return options;
}

/// Baseline + healthy + faulty + healthy windows, sampled per window.
/// (Behind unique_ptr: the monitor owns synchronization state and is
/// neither copyable nor movable.)
std::unique_ptr<SlidingMonitor> run_lab_monitor() {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  auto monitor_ptr = std::make_unique<SlidingMonitor>(monitor_options(lab));
  SlidingMonitor& monitor = *monitor_ptr;
  monitor.feed(lab.run_window());
  monitor.flush();
  monitor.feed(lab.run_window());
  monitor.flush();
  faults::ServerSlowdownFault fault(lab.net(), lab.lab().host("S4"),
                                    60 * kMillisecond, "logging");
  monitor.feed(lab.run_window(&fault));
  monitor.flush();
  monitor.feed(lab.run_window());
  monitor.flush();
  return monitor_ptr;
}

TEST_F(ReportTest, MarkdownJoinsTimelineSeriesAndRecorder) {
  const auto monitor_ptr = run_lab_monitor();
  const SlidingMonitor& monitor = *monitor_ptr;
  ASSERT_GT(monitor.snapshot().alarms, 0u);

  const std::string report =
      render_run_report(monitor.snapshot(), obs::Sampler::global(),
                        obs::FlightRecorder::global());

  // All top-level sections are present.
  EXPECT_NE(report.find("# FlowDiff run report"), std::string::npos);
  EXPECT_NE(report.find("## Summary"), std::string::npos);
  EXPECT_NE(report.find("## Per-window timeline"), std::string::npos);
  EXPECT_NE(report.find("## Alarms"), std::string::npos);
  EXPECT_NE(report.find("## Metric time series"), std::string::npos);
  EXPECT_NE(report.find("## Flight recorder"), std::string::npos);

  // The timeline table covers every processed window.
  for (const auto& audit : monitor.audits()) {
    EXPECT_NE(report.find("| " + std::to_string(audit.index) + " |"),
              std::string::npos);
  }
  EXPECT_NE(report.find("| # |"), std::string::npos);
  EXPECT_NE(report.find("ALARM"), std::string::npos);

  // At least three sampled metric series rendered as sections.
  std::size_t series_sections = 0;
  std::size_t pos = 0;
  while ((pos = report.find("\n### ", pos)) != std::string::npos) {
    ++series_sections;
    pos += 5;
  }
  EXPECT_GE(series_sections, 3u);
  EXPECT_NE(report.find("### monitor.windows"), std::string::npos);

  // The monitor's own alarm landed in the flight-recorder excerpt.
  EXPECT_NE(report.find("### Warnings"), std::string::npos);
  EXPECT_NE(report.find("monitor: alarm raised"), std::string::npos);

  // Diagnosis summary for the alarm window made it in.
  EXPECT_NE(report.find("likely problem classes:"), std::string::npos);
}

TEST_F(ReportTest, HtmlModeProducesMarkup) {
  const auto monitor_ptr = run_lab_monitor();
  const SlidingMonitor& monitor = *monitor_ptr;
  const std::string report =
      render_run_report(monitor.snapshot(), obs::Sampler::global(),
                        obs::FlightRecorder::global(), /*html=*/true);
  EXPECT_EQ(report.rfind("<!DOCTYPE html>", 0), 0u);
  EXPECT_NE(report.find("<title>FlowDiff run report</title>"),
            std::string::npos);
  EXPECT_NE(report.find("<h1>FlowDiff run report</h1>"), std::string::npos);
  EXPECT_NE(report.find("<table>"), std::string::npos);
  EXPECT_NE(report.find("<pre>"), std::string::npos);
  EXPECT_NE(report.find("</html>"), std::string::npos);
  // No raw markdown table rows leak into the HTML path.
  EXPECT_EQ(report.find("| # |"), std::string::npos);
}

TEST_F(ReportTest, DegradesWithoutTelemetry) {
  // Monitor run with obs disabled: no samples, no recorder events — the
  // report must still render a coherent summary-only document.
  obs::set_enabled(false);
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  SlidingMonitor monitor(monitor_options(lab));
  monitor.feed(lab.run_window());
  monitor.flush();
  obs::set_enabled(true);

  const std::string report =
      render_run_report(monitor.snapshot(), obs::Sampler::global(),
                        obs::FlightRecorder::global());
  EXPECT_NE(report.find("## Summary"), std::string::npos);
  EXPECT_NE(report.find("No series were sampled"), std::string::npos);
  EXPECT_NE(report.find("No flight-recorder events."), std::string::npos);
}

TEST_F(ReportTest, AuditRotationIsReportedNotHidden) {
  // A snapshot as a long run leaves it: the oldest audit and two alarms
  // (with their explained windows) have rotated out.
  const auto monitor_ptr = run_lab_monitor();
  MonitorSnapshot snap = monitor_ptr->snapshot();
  ASSERT_GT(snap.alarms, 0u);
  snap.audits.erase(snap.audits.begin());
  snap.audits_dropped = 1;
  snap.alarms += 2;
  snap.alarms_dropped = 2;
  snap.provenance_dropped = 2;

  const std::string report = render_run_report(
      snap, obs::Sampler::global(), obs::FlightRecorder::global());
  EXPECT_NE(report.find("alarms: " + std::to_string(snap.alarms)),
            std::string::npos);
  EXPECT_NE(report.find("Oldest 1 window(s) rotated out of the audit trail"),
            std::string::npos);
  EXPECT_NE(report.find("Oldest 2 alarm(s) rotated out with their "
                        "provenance records"),
            std::string::npos);
  EXPECT_NE(report.find("Why this alarm fired"), std::string::npos);
}

}  // namespace
}  // namespace flowdiff::core
