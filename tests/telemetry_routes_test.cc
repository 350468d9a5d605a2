// Per-monitor telemetry routes: /X over an attached SlidingMonitor and
// /tenants/<id>/X over a MonitorManager shard fed the same capture are one
// implementation, so they must answer alike — same parameters, same status
// codes, same bodies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "experiment/corpus.h"
#include "flowdiff/monitor.h"
#include "flowdiff/monitor_manager.h"
#include "flowdiff/monitor_options.h"
#include "flowdiff/provenance.h"
#include "flowdiff/telemetry.h"
#include "http_test_util.h"
#include "obs/obs.h"
#include "openflow/log_io.h"

namespace flowdiff::core {
namespace {

using flowdiff::testing::HttpResult;

/// Record ids of a /provenance answer (collection or single record); empty
/// for an error status.
std::vector<std::uint64_t> record_ids(const HttpResult& result) {
  if (result.status != 200) return {};
  const auto records = parse_provenance_json(result.body);
  if (!records) {
    ADD_FAILURE() << "unparseable provenance body: " << result.body;
    return {};
  }
  std::vector<std::uint64_t> ids;
  for (const ProvenanceRecord& record : *records) ids.push_back(record.id);
  return ids;
}

std::size_t line_count(const std::string& text) {
  return static_cast<std::size_t>(std::count(text.begin(), text.end(), '\n'));
}

TEST(TelemetryRoutes, TenantRoutesMatchMonitorRoutes) {
  obs::set_enabled(false);
  const auto text = of::read_file(std::string(FLOWDIFF_CORPUS_DIR) +
                                  "/corrupted_slowdown.log");
  ASSERT_TRUE(text.has_value());
  const auto corpus = exp::parse_corpus_case(*text);
  ASSERT_TRUE(corpus.has_value());
  MonitorOptions options;
  options.window = 40 * kSecond;
  options.sanitize = true;
  options.services = corpus->options.services;
  ASSERT_FALSE(options.validate().has_value());

  SlidingMonitor monitor(options);
  monitor.feed(corpus->events);
  monitor.flush();
  TelemetryPlane monitor_plane;
  monitor_plane.attach(&monitor);
  ASSERT_TRUE(monitor_plane.start()) << monitor_plane.last_error();

  ManagerConfig config;  // workers = 0: the shard runs inline.
  config.options = options;
  MonitorManager manager(config);
  ASSERT_TRUE(manager.feed("t", corpus->events));
  manager.stop("t");
  TelemetryPlane tenant_plane;
  tenant_plane.attach_manager(&manager);
  ASSERT_TRUE(tenant_plane.start()) << tenant_plane.last_error();

  struct Answers {
    HttpResult direct;
    HttpResult tenant;
  };
  const auto get_both = [&](const std::string& target) {
    const auto direct = testing::http_get(monitor_plane.port(), target);
    const auto tenant =
        testing::http_get(tenant_plane.port(), "/tenants/t" + target);
    EXPECT_TRUE(direct.has_value()) << target;
    EXPECT_TRUE(tenant.has_value()) << "/tenants/t" << target;
    return Answers{direct.value_or(HttpResult{}),
                   tenant.value_or(HttpResult{})};
  };

  // Byte for byte: status line, headers and body.
  for (const char* target :
       {"/healthz", "/audits", "/audits?format=csv", "/audits?format=json",
        "/audits?from=500&to=900", "/audits?from=50&to=90",
        "/audits?format=json&from=50&to=90",
        "/audits?format=json&from=500&to=900", "/audits?from=abc",
        "/audits?to=", "/audits?format=xml"}) {
    const Answers got = get_both(target);
    EXPECT_EQ(got.direct.head, got.tenant.head) << target;
    EXPECT_EQ(got.direct.body, got.tenant.body) << target;
  }

  // The cases above exercise what they name, so agreement is not vacuous.
  const Answers health = get_both("/healthz");
  EXPECT_NE(health.direct.body.find("\"duplicates\":"), std::string::npos);
  EXPECT_EQ(health.direct.body.find("\"fed\":0,"), std::string::npos)
      << "a sanitized run must report the stream it was fed";
  // The capture spans 154.8 s in four 40 s windows: [50, 90] overlaps
  // windows 1 and 2, and [500, 900] none (the CSV header alone).
  EXPECT_EQ(line_count(get_both("/audits").tenant.body), 5u);
  EXPECT_EQ(line_count(get_both("/audits?from=50&to=90").tenant.body), 3u);
  EXPECT_EQ(line_count(get_both("/audits?from=500&to=900").tenant.body), 1u)
      << "?from=/?to= must filter the tenant's audit trail";
  EXPECT_EQ(get_both("/audits?from=abc").tenant.status, 400);
  // The range keeps exactly those windows, rendered as in the whole trail,
  // in both forms; an empty range keeps none.
  MonitorSnapshot trail = monitor.snapshot();
  ASSERT_EQ(trail.audits.size(), 4u);
  EXPECT_EQ(get_both("/audits?format=json").tenant.body,
            render_audits_json(trail));
  MonitorSnapshot in_range = trail;
  in_range.audits = {trail.audits[1], trail.audits[2]};
  EXPECT_EQ(get_both("/audits?from=50&to=90").tenant.body,
            render_audits_csv(in_range));
  EXPECT_EQ(get_both("/audits?format=json&from=50&to=90").tenant.body,
            render_audits_json(in_range));
  in_range.audits.clear();
  EXPECT_EQ(get_both("/audits?format=json&from=500&to=900").tenant.body,
            render_audits_json(in_range));

  // Provenance: same status and record ids. The JSON carries wall-clock
  // latency, which differs between the two monitors, so bodies are not
  // compared.
  const MonitorSnapshot snap = monitor.snapshot();
  ASSERT_GE(snap.explained.size(), 2u)
      << "the corpus case must produce provenance records";
  for (const char* target :
       {"/provenance", "/provenance?id=1", "/provenance?id=999999",
        "/provenance?id=abc", "/provenance?limit=0", "/provenance?limit=1",
        "/provenance?limit=-1"}) {
    const Answers got = get_both(target);
    EXPECT_EQ(got.direct.status, got.tenant.status) << target;
    EXPECT_EQ(record_ids(got.direct), record_ids(got.tenant)) << target;
  }
  EXPECT_EQ(get_both("/provenance?id=1").tenant.status, 200);
  EXPECT_EQ(get_both("/provenance?id=999999").tenant.status, 404);
  EXPECT_EQ(get_both("/provenance?id=abc").tenant.status, 400);
  const Answers none = get_both("/provenance?limit=0");
  EXPECT_EQ(none.tenant.status, 200);
  EXPECT_TRUE(record_ids(none.tenant).empty())
      << "?limit=0 must return no records";
  EXPECT_EQ(record_ids(get_both("/provenance?limit=1").tenant),
            std::vector<std::uint64_t>{snap.explained.back()->provenance.id});

  // Report: same status per format (the document carries wall time).
  for (const char* target : {"/report?format=md", "/report?format=html",
                             "/report?format=xml"}) {
    const Answers got = get_both(target);
    EXPECT_EQ(got.direct.status, got.tenant.status) << target;
  }
  EXPECT_EQ(get_both("/report?format=html").tenant.status, 200);
  EXPECT_EQ(get_both("/report?format=xml").tenant.status, 400);

  monitor_plane.stop();
  tenant_plane.stop();
}

}  // namespace
}  // namespace flowdiff::core
