// SlidingMonitor: continuous windows over the lab testbed's control
// stream — no alarms while healthy, a localized alarm when a fault window
// passes by, task-validated changes stay silent.
#include "flowdiff/monitor.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "experiment/lab_experiment.h"
#include "retention_stream.h"
#include "workload/tasks.h"

namespace flowdiff::core {
namespace {

// Each lab run_window() production (window + drain) is treated as one
// monitor window by flushing after feeding it; the large window size keeps
// feed() from splitting a single capture at an arbitrary boundary.
MonitorOptions monitor_options(const exp::LabExperiment& lab,
                               SimDuration window = 300 * kSecond) {
  MonitorOptions options;
  options.services = lab.flowdiff_config().model.special_nodes;
  options.window = window;
  return options;
}

TEST(SlidingMonitor, ConstructionRejectsInvalidOptions) {
  // A zero window once divided by zero on the first fed event; no monitor
  // may exist whose options validate() rejects.
  std::vector<MonitorOptions> invalid(4);
  invalid[0].window = 0;
  invalid[1].sanitize = true;
  invalid[1].lateness = invalid[1].window;
  invalid[2].lateness = kSecond;
  invalid[3].workers = 1;
  for (const MonitorOptions& options : invalid) {
    const auto message = options.validate();
    ASSERT_TRUE(message.has_value());
    SCOPED_TRACE(*message);
    try {
      SlidingMonitor monitor(options);
      ADD_FAILURE() << "built a monitor from rejected options";
    } catch (const std::invalid_argument& e) {
      EXPECT_EQ(e.what(), *message);
    }
  }
}

TEST(SlidingMonitor, FirstWindowBecomesBaseline) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  SlidingMonitor monitor(monitor_options(lab));
  EXPECT_FALSE(monitor.snapshot().has_baseline);
  monitor.feed(lab.run_window());
  monitor.flush();
  EXPECT_TRUE(monitor.snapshot().has_baseline);
  EXPECT_EQ(monitor.snapshot().alarms, 0u);
}

TEST(SlidingMonitor, HealthyStreamRaisesNoAlarms) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  SlidingMonitor monitor(monitor_options(lab));
  for (int w = 0; w < 3; ++w) {
    monitor.feed(lab.run_window());
    monitor.flush();
  }
  EXPECT_EQ(monitor.windows_processed(), 3u);
  EXPECT_EQ(monitor.snapshot().alarms, 0u);
}

TEST(SlidingMonitor, FaultWindowAlarmsAndLocatesInTime) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  SlidingMonitor monitor(monitor_options(lab));
  monitor.feed(lab.run_window());  // Baseline.
  monitor.flush();
  monitor.feed(lab.run_window());  // Healthy.
  monitor.flush();
  faults::ServerSlowdownFault fault(lab.net(), lab.lab().host("S4"),
                                    60 * kMillisecond, "logging");
  const SimTime fault_begin = lab.now();
  monitor.feed(lab.run_window(&fault));  // Faulty.
  monitor.flush();
  monitor.feed(lab.run_window());        // Healthy again.
  monitor.flush();

  const MonitorSnapshot snap = monitor.snapshot();
  ASSERT_GT(snap.alarms, 0u);
  // Every alarm lies within the faulty wall-clock region (the fault window
  // plus its drain), and at least one carries a DD change.
  bool dd_seen = false;
  for (const auto& entry : snap.explained) {
    if (!entry->report) continue;
    EXPECT_GE(entry->provenance.window_end, fault_begin);
    for (const auto& change : entry->report->unknown) {
      if (change.kind == SignatureKind::kDd) dd_seen = true;
    }
  }
  EXPECT_TRUE(dd_seen);
}

TEST(SlidingMonitor, RollingBaselineAdvancesOnCleanWindows) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  MonitorOptions options = monitor_options(lab);
  options.rolling_baseline = true;
  SlidingMonitor monitor(options);
  monitor.feed(lab.run_window());
  monitor.flush();
  const SimTime first_baseline = monitor.snapshot().baseline_begin;
  monitor.feed(lab.run_window());
  monitor.flush();
  EXPECT_GT(monitor.snapshot().baseline_begin, first_baseline);
}

TEST(SlidingMonitor, TaskSignaturesSuppressMigrationAlarm) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  // Learn the migration automaton.
  Rng rng(9);
  std::vector<of::FlowSequence> runs;
  for (int i = 0; i < 12; ++i) {
    runs.push_back(
        wl::expand_task(wl::vm_migration_profile(),
                        {lab.lab().ip("VM1"), lab.lab().ip("VM2")},
                        lab.lab().services, rng, 0)
            .flows);
  }
  const core::FlowDiff learner(lab.flowdiff_config());
  const auto mined = learner.learn_task("vm_migration", runs, true);

  auto run_stream = [&](bool with_tasks) {
    exp::LabExperiment fresh{exp::LabExperimentConfig{}};
    MonitorOptions options = monitor_options(fresh);
    if (with_tasks) options.tasks = {mined.automaton};
    SlidingMonitor monitor(options);
    monitor.feed(fresh.run_window());  // Baseline.
    monitor.flush();
    const SimTime start = fresh.now() + 5 * kSecond;
    const auto migration = wl::expand_task(
        wl::vm_migration_profile(),
        {fresh.lab().ip("VM3"), fresh.lab().ip("VM4")},
        fresh.lab().services, rng, start);
    wl::run_task_on_network(fresh.net(), migration);
    monitor.feed(fresh.run_window());
    monitor.flush();
    return monitor.snapshot().alarms;
  };

  EXPECT_GT(run_stream(false), 0u);   // Blind monitor pages the operator.
  EXPECT_EQ(run_stream(true), 0u);    // Task-aware monitor stays silent.
}

TEST(SlidingMonitor, AuditTrailMatchesAlarmStream) {
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  SlidingMonitor monitor(monitor_options(lab));
  monitor.feed(lab.run_window());  // Baseline.
  monitor.flush();
  monitor.feed(lab.run_window());  // Healthy.
  monitor.flush();
  faults::ServerSlowdownFault fault(lab.net(), lab.lab().host("S4"),
                                    60 * kMillisecond, "logging");
  monitor.feed(lab.run_window(&fault));  // Faulty.
  monitor.flush();

  const auto& audits = monitor.audits();
  ASSERT_EQ(audits.size(), monitor.windows_processed());

  // One audit per processed window, indexed in order, each with a verdict.
  std::size_t alarmed = 0;
  for (std::size_t i = 0; i < audits.size(); ++i) {
    const WindowAudit& audit = audits[i];
    EXPECT_EQ(audit.index, i);
    EXPECT_GT(audit.events, 0u);
    EXPECT_GE(audit.wall_ms, 0.0);
    EXPECT_LT(audit.window_begin, audit.window_end);
    EXPECT_FALSE(audit.decision.empty());
    EXPECT_EQ(audit.changes, audit.known + audit.unknown);
    if (audit.alarmed) ++alarmed;
  }

  // The first window is the baseline capture and never alarms.
  EXPECT_TRUE(audits.front().baseline_capture);
  EXPECT_FALSE(audits.front().alarmed);

  // Alarmed audits correspond 1:1 with the retained alarm reports, in
  // order.
  const MonitorSnapshot snap = monitor.snapshot();
  ASSERT_EQ(alarmed, snap.alarms);
  std::vector<const ExplainedWindow*> alarms;
  for (const auto& entry : snap.explained) {
    if (entry->report) alarms.push_back(entry.get());
  }
  ASSERT_EQ(alarms.size(), alarmed);
  std::size_t next_alarm = 0;
  for (const auto& audit : audits) {
    if (!audit.alarmed) continue;
    const ExplainedWindow& alarm = *alarms[next_alarm++];
    EXPECT_EQ(audit.index, alarm.provenance.window_index);
    EXPECT_EQ(audit.window_begin, alarm.provenance.window_begin);
    EXPECT_EQ(audit.window_end, alarm.provenance.window_end);
    EXPECT_EQ(audit.unknown, alarm.report->unknown.size());
    EXPECT_GT(audit.unknown, 0u);
    EXPECT_NE(audit.decision.find("ALARM"), std::string::npos);
  }
}

TEST(SlidingMonitor, RetentionStaysBoundedPastBothCaps) {
  // 4400 windows, 275 of them alarmed: both rings rotate, and the alarm
  // reports rotate out with their explained windows.
  constexpr std::size_t kWindows = 4400;
  constexpr std::size_t kAlarms = 275;
  MonitorOptions options;
  options.window = kRetentionWindow;
  SlidingMonitor monitor(options);
  for (std::size_t w = 0; w < kWindows; ++w) {
    monitor.feed(retention_window(w, retention_alarms(w)));
  }
  monitor.flush();

  const MonitorSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.windows, kWindows);
  EXPECT_EQ(snap.alarms, kAlarms);
  EXPECT_EQ(monitor.health().alarms, kAlarms);
  ASSERT_EQ(snap.audits.size(), SlidingMonitor::kMaxAudits);
  EXPECT_EQ(snap.audits_dropped, kWindows - SlidingMonitor::kMaxAudits);
  // The newest windows survive, still indexed by processing order.
  EXPECT_EQ(snap.audits.front().index, kWindows - SlidingMonitor::kMaxAudits);
  EXPECT_EQ(snap.audits.back().index, kWindows - 1);

  // Every explained window here alarmed, so each carries its report.
  ASSERT_EQ(snap.explained.size(), SlidingMonitor::kMaxExplained);
  EXPECT_EQ(snap.provenance_dropped, kAlarms - SlidingMonitor::kMaxExplained);
  EXPECT_EQ(snap.alarms_dropped, kAlarms - SlidingMonitor::kMaxExplained);
  EXPECT_EQ(snap.explained.front()->provenance.id,
            kAlarms - SlidingMonitor::kMaxExplained + 1);
  EXPECT_EQ(snap.explained.back()->provenance.id, kAlarms);
  for (const auto& entry : snap.explained) {
    EXPECT_TRUE(entry->provenance.alarmed);
    ASSERT_TRUE(entry->report.has_value());
    EXPECT_EQ(entry->report->unknown.size(), entry->provenance.unknown);
  }

  // Every retained alarmed audit has its explained window, with a report.
  std::size_t next = 0;
  std::size_t alarmed = 0;
  for (const WindowAudit& audit : snap.audits) {
    EXPECT_EQ(audit.alarmed, retention_alarms(audit.index)) << audit.index;
    if (!audit.alarmed) continue;
    ++alarmed;
    while (next < snap.explained.size() &&
           snap.explained[next]->provenance.window_index < audit.index) {
      ++next;
    }
    ASSERT_LT(next, snap.explained.size()) << audit.index;
    EXPECT_EQ(snap.explained[next]->provenance.window_index, audit.index);
    EXPECT_TRUE(snap.explained[next]->report.has_value()) << audit.index;
  }
  EXPECT_EQ(alarmed, SlidingMonitor::kMaxExplained);

  // The transcript counts every alarm and numbers the retained ones as the
  // run did.
  const std::string transcript = render_monitor_transcript(snap);
  EXPECT_NE(transcript.find("windows=4400 alarms=275 audits_dropped=304\n"),
            std::string::npos);
  EXPECT_EQ(transcript.find("--- alarm 19:"), std::string::npos);
  EXPECT_NE(transcript.find("--- alarm 20: window 305.0s..306.0s ---"),
            std::string::npos);
  EXPECT_NE(transcript.find("--- alarm 275: window 4385.0s..4386.0s ---"),
            std::string::npos);
}

TEST(SlidingMonitor, IdleGapsSkipEmptyWindows) {
  // A long silent gap must not produce empty-window alarms.
  exp::LabExperiment lab{exp::LabExperimentConfig{}};
  SlidingMonitor monitor(monitor_options(lab, 50 * kSecond));
  auto log = lab.run_window();
  // Shift a copy far into the future to create a multi-window gap.
  of::ControlLog shifted;
  const SimDuration gap = 500 * kSecond;
  for (auto event : log.events()) {
    event.ts += gap;
    shifted.append(event);
  }
  monitor.feed(log);
  monitor.feed(shifted);
  monitor.flush();
  EXPECT_EQ(monitor.snapshot().alarms, 0u);
  EXPECT_LT(monitor.windows_processed(), 20u);  // Not one per empty slot.
}

}  // namespace
}  // namespace flowdiff::core
