// Tests for the observability subsystem (src/obs): registry semantics,
// zero-cost disablement, span nesting and timing, exporter round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "obs/obs.h"

namespace flowdiff::obs {
namespace {

/// Every test runs with a clean, enabled registry and trace buffer, and
/// leaves the global switch off so unrelated suites stay uninstrumented.
class ObsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Registry::global().reset();
    Trace::global().clear();
    set_enabled(true);
  }
  void TearDown() override {
    set_enabled(false);
    Registry::global().reset();
    Trace::global().clear();
  }
};

TEST_F(ObsTest, CounterIncrementsAndSnapshots) {
  Counter& c = Registry::global().counter("test.counter");
  c.inc();
  c.inc(41);
  EXPECT_EQ(c.value(), 42u);

  const Snapshot snap = Registry::global().snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].first, "test.counter");
  EXPECT_EQ(snap.counters[0].second, 42u);
}

TEST_F(ObsTest, RegistryReturnsStableReferences) {
  Counter& first = Registry::global().counter("test.same");
  // Register plenty of other instruments; the reference must survive.
  for (int i = 0; i < 100; ++i) {
    Registry::global().counter("test.other." + std::to_string(i));
  }
  Counter& second = Registry::global().counter("test.same");
  EXPECT_EQ(&first, &second);
}

TEST_F(ObsTest, DisabledMutationsAreNoOps) {
  Counter& c = Registry::global().counter("test.off");
  Gauge& g = Registry::global().gauge("test.off.gauge");
  LatencyHistogram& h = Registry::global().histogram("test.off.hist", 1.0);

  set_enabled(false);
  c.inc(10);
  g.set(5);
  h.observe(3.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(h.count(), 0u);

  set_enabled(true);
  c.inc(10);
  EXPECT_EQ(c.value(), 10u);
}

TEST_F(ObsTest, GaugeTracksPeak) {
  Gauge& g = Registry::global().gauge("test.gauge");
  g.set(7);
  g.set(3);
  EXPECT_EQ(g.value(), 3);
  EXPECT_EQ(g.peak(), 7);
  g.add(10);
  EXPECT_EQ(g.value(), 13);
  EXPECT_EQ(g.peak(), 13);
  g.add(-5);
  EXPECT_EQ(g.value(), 8);
  EXPECT_EQ(g.peak(), 13);
}

TEST_F(ObsTest, CounterIsThreadSafe) {
  Counter& c = Registry::global().counter("test.mt");
  constexpr int kThreads = 4;
  constexpr int kIncs = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncs; ++i) c.inc();
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(c.value(), static_cast<std::uint64_t>(kThreads) * kIncs);
}

TEST_F(ObsTest, HistogramTracksSumMinMaxAndBins) {
  LatencyHistogram& h = Registry::global().histogram("test.hist", 10.0);
  h.observe(1.0);
  h.observe(5.0);
  h.observe(25.0);

  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_DOUBLE_EQ(snap.sum, 31.0);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 25.0);
  EXPECT_DOUBLE_EQ(snap.mean(), 31.0 / 3.0);
  // Bins: [0,10) holds 2, [10,20) holds 0, [20,30) holds 1.
  ASSERT_EQ(snap.counts.size(), 3u);
  EXPECT_EQ(snap.counts[0], 2u);
  EXPECT_EQ(snap.counts[1], 0u);
  EXPECT_EQ(snap.counts[2], 1u);
}

TEST_F(ObsTest, QuantileNeverLeavesObservedRange) {
  // Regression: at tiny counts the midpoint of a wide bin used to escape
  // the observed range — two samples of 8.2 and 13.4 in 5 ms bins
  // reported p50 = 7.5 and p99 = 12.5... and with both in one bin, p99
  // above the larger observation. Quantiles now clamp to [min, max].
  LatencyHistogram& h = Registry::global().histogram("test.quant", 5.0);
  h.observe(8.2);
  h.observe(13.4);
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 8.2);   // Bin [5,10) midpoint 7.5.
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 12.5);  // Bin [10,15) midpoint.
  EXPECT_GE(snap.quantile(0.99), snap.min);
  EXPECT_LE(snap.quantile(0.99), snap.max);

  LatencyHistogram& one = Registry::global().histogram("test.quant1", 5.0);
  one.observe(12.0);  // Single sample: every quantile IS that sample.
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.5), 12.0);
  EXPECT_DOUBLE_EQ(one.snapshot().quantile(0.99), 12.0);
}

TEST_F(ObsTest, HistogramFirstRegistrationWins) {
  LatencyHistogram& first = Registry::global().histogram("test.width", 5.0);
  LatencyHistogram& again = Registry::global().histogram("test.width", 99.0);
  EXPECT_EQ(&first, &again);
  first.observe(7.0);
  EXPECT_DOUBLE_EQ(first.snapshot().bin_width, 5.0);
}

TEST_F(ObsTest, RegistryResetKeepsRegistrations) {
  Counter& c = Registry::global().counter("test.reset");
  c.inc(5);
  Registry::global().reset();
  EXPECT_EQ(c.value(), 0u);
  c.inc();  // Reference still valid and live.
  EXPECT_EQ(c.value(), 1u);
}

TEST_F(ObsTest, SpansNestParentChild) {
  {
    const Span outer("outer");
    {
      const Span inner("inner");
    }
    {
      const Span sibling("sibling");
    }
  }
  const std::vector<SpanRecord> records = Trace::global().records();
  ASSERT_EQ(records.size(), 3u);
  // Records land in completion order: inner, sibling, outer.
  EXPECT_EQ(records[0].name, "inner");
  EXPECT_EQ(records[1].name, "sibling");
  EXPECT_EQ(records[2].name, "outer");
  EXPECT_EQ(records[0].parent, records[2].id);
  EXPECT_EQ(records[1].parent, records[2].id);
  EXPECT_EQ(records[2].parent, 0u);
  EXPECT_EQ(records[0].depth, 1u);
  EXPECT_EQ(records[2].depth, 0u);
}

TEST_F(ObsTest, SpanTimingIsMonotonic) {
  {
    const Span outer("outer");
    const Span inner("inner");
  }
  const std::vector<SpanRecord> records = Trace::global().records();
  ASSERT_EQ(records.size(), 2u);
  const SpanRecord& inner = records[0];
  const SpanRecord& outer = records[1];
  EXPECT_GE(inner.duration_ms, 0.0);
  EXPECT_GE(outer.duration_ms, 0.0);
  // The child starts no earlier than its parent and fits inside it (small
  // epsilon for clock granularity in the subtraction).
  EXPECT_GE(inner.start_ms, outer.start_ms);
  EXPECT_LE(inner.duration_ms, outer.duration_ms + 1e-6);
}

TEST_F(ObsTest, SpanAggregatesAccumulate) {
  for (int i = 0; i < 3; ++i) {
    const Span span("repeat");
  }
  const auto aggregates = Trace::global().aggregates();
  ASSERT_EQ(aggregates.size(), 1u);
  EXPECT_EQ(aggregates[0].first, "repeat");
  EXPECT_EQ(aggregates[0].second.count, 3u);
  EXPECT_GE(aggregates[0].second.total_ms, 0.0);
  EXPECT_GE(aggregates[0].second.max_ms, 0.0);
}

TEST_F(ObsTest, DisabledSpanRecordsNothing) {
  set_enabled(false);
  {
    const Span span("ghost");
  }
  set_enabled(true);
  EXPECT_TRUE(Trace::global().records().empty());
  EXPECT_TRUE(Trace::global().aggregates().empty());
}

TEST_F(ObsTest, ScopedTimerFeedsHistogram) {
  LatencyHistogram& h = Registry::global().histogram("test.timer", 1.0);
  {
    const ScopedTimer timer(h);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.snapshot().min, 0.0);
}

TEST_F(ObsTest, JsonExportRoundTrips) {
  Registry::global().counter("rt.counter").inc(7);
  Registry::global().counter("rt.line\nbreak").inc(2);
  Gauge& g = Registry::global().gauge("rt.gauge");
  g.set(11);
  g.set(4);
  LatencyHistogram& h = Registry::global().histogram("rt.hist", 2.5, 1.0);
  h.observe(2.0);
  h.observe(8.25);
  {
    const Span span("rt/span");
  }

  const Snapshot before = snapshot();
  const std::optional<Snapshot> after = parse_json(render_json(before));
  ASSERT_TRUE(after.has_value());

  // Registrations persist across tests in this process, so look entries up
  // by name instead of assuming section sizes.
  const auto find = [](const auto& entries, std::string_view name) {
    const auto it =
        std::find_if(entries.begin(), entries.end(),
                     [&](const auto& e) { return e.first == name; });
    EXPECT_NE(it, entries.end()) << "missing entry " << name;
    return it;
  };

  ASSERT_EQ(after->counters.size(), before.counters.size());
  EXPECT_EQ(find(after->counters, "rt.counter")->second, 7u);
  EXPECT_EQ(find(after->counters, "rt.line\nbreak")->second, 2u);

  const auto gauge = find(after->gauges, "rt.gauge");
  EXPECT_EQ(gauge->second.value, 4);
  EXPECT_EQ(gauge->second.peak, 11);

  ASSERT_EQ(after->histograms.size(), before.histograms.size());
  const HistogramSnapshot& hist = find(after->histograms, "rt.hist")->second;
  EXPECT_DOUBLE_EQ(hist.bin_width, 2.5);
  EXPECT_DOUBLE_EQ(hist.origin, 1.0);
  EXPECT_EQ(hist.count, 2u);
  EXPECT_DOUBLE_EQ(hist.sum, 10.25);
  EXPECT_DOUBLE_EQ(hist.min, 2.0);
  EXPECT_DOUBLE_EQ(hist.max, 8.25);
  EXPECT_EQ(hist.counts, find(before.histograms, "rt.hist")->second.counts);

  ASSERT_EQ(after->spans.size(), 1u);
  EXPECT_EQ(after->spans[0].first, "rt/span");
  EXPECT_EQ(after->spans[0].second.count, 1u);
  EXPECT_DOUBLE_EQ(after->spans[0].second.total_ms,
                   before.spans[0].second.total_ms);
}

TEST_F(ObsTest, ParseJsonRejectsMalformedInput) {
  EXPECT_FALSE(parse_json("").has_value());
  EXPECT_FALSE(parse_json("{").has_value());
  EXPECT_FALSE(parse_json("{\"counters\": [1,2]}").has_value());
  EXPECT_FALSE(parse_json("not json at all").has_value());
}

TEST_F(ObsTest, TableExportListsEveryInstrument) {
  Registry::global().counter("tab.counter").inc(3);
  Registry::global().gauge("tab.gauge").set(9);
  Registry::global().histogram("tab.hist", 1.0).observe(0.5);
  {
    const Span span("tab/span");
  }

  const std::string table = render_table(snapshot());
  EXPECT_NE(table.find("tab.counter"), std::string::npos);
  EXPECT_NE(table.find("tab.gauge"), std::string::npos);
  EXPECT_NE(table.find("tab.hist"), std::string::npos);
  EXPECT_NE(table.find("tab/span"), std::string::npos);
}

TEST_F(ObsTest, PrometheusExportSanitizesAndExposes) {
  Registry::global().counter("prom.counter").inc(2);
  LatencyHistogram& h = Registry::global().histogram("prom.hist", 10.0);
  h.observe(5.0);

  const std::string text = render_prometheus(snapshot());
  EXPECT_NE(text.find("flowdiff_prom_counter 2"), std::string::npos);
  EXPECT_NE(text.find("flowdiff_prom_hist_bucket{le=\"10\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("flowdiff_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("flowdiff_prom_hist_count 1"), std::string::npos);
  // Exposition-format metadata: every family gets HELP then TYPE.
  EXPECT_NE(text.find("# HELP flowdiff_prom_counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE flowdiff_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("# HELP flowdiff_prom_hist"), std::string::npos);
  EXPECT_NE(text.find("# TYPE flowdiff_prom_hist histogram"),
            std::string::npos);
  EXPECT_LT(text.find("# HELP flowdiff_prom_counter"),
            text.find("# TYPE flowdiff_prom_counter counter"));
  // Dots never survive sanitization in sample lines; only HELP text may
  // mention the pre-sanitization source name.
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(pos, end - pos);
    if (line.rfind("# HELP", 0) != 0) {
      EXPECT_EQ(line.find("prom.counter"), std::string::npos) << line;
    }
    pos = end + 1;
  }
}

TEST_F(ObsTest, PrometheusEscapesLabelValuesAndHelpText) {
  // A span name carrying every character the exposition format escapes: a
  // raw newline in a label value or HELP line would split the sample line
  // and corrupt the whole scrape.
  { const Span span("evil\"name\\with\nnewline"); }
  Registry::global().counter("prom.help\\evil\nname").inc(1);

  const std::string text = render_prometheus(snapshot());
  // Label values: backslash, double-quote, and newline all escape.
  EXPECT_NE(text.find("span=\"evil\\\"name\\\\with\\nnewline\""),
            std::string::npos)
      << text;
  // HELP text: backslash and newline escape (quotes stay raw there).
  EXPECT_NE(text.find("prom.help\\\\evil\\nname"), std::string::npos)
      << text;
  // The raw span name (with its literal newline) must appear nowhere.
  EXPECT_EQ(text.find("evil\"name\\with\nnewline"), std::string::npos);
}

TEST_F(ObsTest, JsonStringEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(json_string(""), "\"\"");
  EXPECT_EQ(json_string("plain ascii, 100%"), "\"plain ascii, 100%\"");
  EXPECT_EQ(json_string("q\"b\\n\nr\rt\t"), "\"q\\\"b\\\\n\\nr\\rt\\t\"");
  EXPECT_EQ(json_string(std::string_view("\x00\x01\x1f\x20", 4)),
            "\"\\u0000\\u0001\\u001f \"");
  // Bytes at or above 0x80 (UTF-8) pass through.
  EXPECT_EQ(json_string("\xc3\xa9"), "\"\xc3\xa9\"");

  // parse_json_string reads every byte back.
  std::string all;
  for (int c = 0; c < 256; ++c) all += static_cast<char>(c);
  const std::string quoted = json_string(all) + ",";
  std::size_t pos = 0;
  EXPECT_EQ(parse_json_string(quoted, pos), all);
  EXPECT_EQ(pos, quoted.size() - 1);
  for (const std::string_view bad : {"\"open", "\"\\u00e9\"", "\"\\u00g0\"",
                                     "\"\\u00\"", "no quote"}) {
    pos = 0;
    EXPECT_FALSE(parse_json_string(bad, pos).has_value()) << bad;
  }
}

TEST_F(ObsTest, SpanTreeRendersNesting) {
  {
    const Span outer("outer");
    const Span inner("inner");
  }
  const std::string tree = render_span_tree(Trace::global().records());
  const std::size_t outer_pos = tree.find("outer");
  const std::size_t inner_pos = tree.find("  inner");
  EXPECT_NE(outer_pos, std::string::npos);
  EXPECT_NE(inner_pos, std::string::npos);
  EXPECT_LT(outer_pos, inner_pos);  // Parent line precedes indented child.
}

TEST_F(ObsTest, TraceClearRestartsEpoch) {
  {
    const Span span("before");
  }
  Trace::global().clear();
  EXPECT_TRUE(Trace::global().records().empty());
  EXPECT_EQ(Trace::global().dropped(), 0u);
  {
    const Span span("after");
  }
  const auto records = Trace::global().records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].name, "after");
}

}  // namespace
}  // namespace flowdiff::obs
