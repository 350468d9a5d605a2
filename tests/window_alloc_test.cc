// Allocation counts on the per-window hot paths. Once a state has held a
// window at least as large, feeding the incremental modeler and the
// sanitizer's pair tracking must not allocate. IncrementalWindowState::
// reset() must neither allocate nor free. The one release rule (a buffer
// whose capacity exceeds 4x what the closing window used is freed) must
// fire after a burst window and at no other time; the monitor manager's
// batch buffers and the sanitizer's reorder ring follow it too. Task
// detection allocates per call, never per flow. A monitor snapshot
// allocates the same whatever its alarms hold. This binary replaces the
// global operator new/delete with counting versions, which also track the
// live heap.
#include <gtest/gtest.h>
#include <malloc.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "flowdiff/incremental_model.h"
#include "flowdiff/model.h"
#include "flowdiff/monitor_manager.h"
#include "flowdiff/task_automaton.h"
#include "incremental_stream.h"
#include "ingest/sanitizer.h"
#include "retention_stream.h"
#include "openflow/control_log.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_frees{0};
/// Counted allocations of at least g_big_size bytes.
std::atomic<std::uint64_t> g_big_allocs{0};
std::atomic<std::size_t> g_big_size{SIZE_MAX};
/// Usable bytes of every live operator-new block, counted or not.
std::atomic<std::int64_t> g_live_bytes{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (size >= g_big_size.load(std::memory_order_relaxed)) {
      g_big_allocs.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (size == 0) size = 1;
  void* p = align > alignof(std::max_align_t)
                ? std::aligned_alloc(align, (size + align - 1) / align * align)
                : std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  g_live_bytes.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  return p;
}

void counted_free(void* p) noexcept {
  if (p == nullptr) return;
  if (g_counting.load(std::memory_order_relaxed)) {
    g_frees.fetch_add(1, std::memory_order_relaxed);
  }
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                         std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_alloc(size, 0);
  } catch (...) {
    return nullptr;
  }
}
void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}

namespace flowdiff::core {
namespace {

struct Heap {
  std::uint64_t allocs = 0;
  std::uint64_t frees = 0;
  std::uint64_t big_allocs = 0;
};

/// Heap calls made by `body`, which must not let a gtest assertion allocate
/// inside the counted region.
template <typename Body>
Heap count_heap(Body&& body) {
  g_allocs = 0;
  g_frees = 0;
  g_big_allocs = 0;
  g_counting = true;
  body();
  g_counting = false;
  return Heap{g_allocs.load(), g_frees.load(), g_big_allocs.load()};
}

void feed_all(const IncrementalModeler& inc, IncrementalWindowState& state,
              const std::vector<of::ControlEvent>& events) {
  for (const auto& event : events) inc.feed(state, event);
}

std::vector<of::ControlEvent> prefix(const std::vector<of::ControlEvent>& all,
                                     std::size_t n) {
  return {all.begin(), all.begin() + static_cast<std::ptrdiff_t>(n)};
}

TEST(WindowAlloc, FeedAllocatesNothingForAWindowAlreadySeen) {
  const IncrementalModeler inc(ModelConfig{});
  const auto window = random_stream(3, 2 * kSecond);
  IncrementalWindowState state;
  feed_all(inc, state, window);
  const std::string first = describe_model(inc.finalize(state));
  state.reset();

  const Heap again = count_heap([&] { feed_all(inc, state, window); });
  EXPECT_EQ(again.allocs, 0u);
  EXPECT_EQ(again.frees, 0u);
  EXPECT_EQ(describe_model(inc.finalize(state)), first);

  // A prefix is no larger in any dimension (events, flows, hosts, edges,
  // triples, polls, histogram bins).
  state.reset();
  const auto half = prefix(window, window.size() / 2);
  const Heap smaller = count_heap([&] { feed_all(inc, state, half); });
  EXPECT_EQ(smaller.allocs, 0u);
  of::ControlLog log;
  for (const auto& event : half) log.append(event);
  EXPECT_EQ(describe_model(inc.finalize(state)),
            describe_model(Modeler(ModelConfig{}).build(log)));
}

TEST(WindowAlloc, ResetNeitherAllocatesNorFrees) {
  const IncrementalModeler inc(ModelConfig{});
  IncrementalWindowState state;
  EXPECT_EQ(count_heap([&] { state.reset(); }).allocs, 0u);  // Never fed.
  const auto window = random_stream(5, 2 * kSecond);
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE(round);
    feed_all(inc, state, window);
    const Heap reset = count_heap([&] { state.reset(); });
    EXPECT_EQ(reset.allocs, 0u);
    EXPECT_EQ(reset.frees, 0u);
  }
  // The buffers survived: occurrences, hops and the tables kept capacity.
  EXPECT_GT(state.occurrences.capacity(), 0u);
  EXPECT_GT(state.hops.capacity(), 0u);
  EXPECT_GT(state.open.capacity(), 0u);
  EXPECT_GT(state.triples.capacity(), 0u);
}

TEST(WindowAlloc, BurstBuffersAreReleasedAfterAQuietWindowOnly) {
  const IncrementalModeler inc(ModelConfig{});
  const auto burst = random_stream(13, 8 * kSecond);
  IncrementalWindowState state;
  feed_all(inc, state, burst);
  // The burst window used what it grew: nothing to release yet.
  EXPECT_EQ(count_heap([&] { state.reset(); }).frees, 0u);

  // A quiet window an order of magnitude smaller: closing it releases the
  // burst's buffers instead of pinning them.
  const auto quiet = prefix(burst, burst.size() / 20);
  feed_all(inc, state, quiet);
  const std::size_t quiet_occurrences = state.occurrences.size();
  const Heap released = count_heap([&] { state.reset(); });
  EXPECT_EQ(released.allocs, 0u);
  EXPECT_GT(released.frees, 0u);
  EXPECT_GT(quiet_occurrences, 0u);
  EXPECT_EQ(state.occurrences.capacity(), 0u);
  EXPECT_EQ(state.hops.capacity(), 0u);
  EXPECT_EQ(state.open.capacity(), 0u);

  // Regrown to the quiet size, repeated quiet windows keep their buffers.
  feed_all(inc, state, quiet);
  for (int round = 0; round < 2; ++round) {
    SCOPED_TRACE(round);
    EXPECT_EQ(count_heap([&] { state.reset(); }).frees, 0u);
    EXPECT_EQ(count_heap([&] { feed_all(inc, state, quiet); }).allocs, 0u);
  }
}

TEST(WindowAlloc, ManagerFreesABurstBatchBufferAndReusesSteadyOnes) {
  // Echo replies are counted but not modeled, and they all share one
  // window, so the monitor keeps nothing per event: what the live heap
  // gains is the manager's batch buffers.
  const auto echoes = [](std::size_t n) {
    of::EchoReply echo;
    echo.sw = SwitchId{1};
    return std::vector<of::ControlEvent>(
        n, of::ControlEvent{0, ControllerId{0}, echo});
  };
  const auto small = echoes(64);
  const auto burst = echoes(64 * 1024);
  const auto burst_bytes =
      static_cast<std::int64_t>(burst.size() * sizeof(of::ControlEvent));
  ManagerConfig config;  // No workers: each batch is fed inline.
  config.options.window = kSecond;
  MonitorManager manager(config);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(manager.feed("t", small));

  // Steady batches trade two warm buffers and never grow one.
  g_big_size = small.size() * sizeof(of::ControlEvent);
  const Heap steady = count_heap([&] {
    for (int i = 0; i < 100; ++i) manager.feed("t", small);
  });
  EXPECT_EQ(steady.big_allocs, 0u);

  const std::int64_t before = g_live_bytes.load();
  ASSERT_TRUE(manager.feed("t", burst));
  const std::int64_t held = g_live_bytes.load() - before;
  EXPECT_GT(held, burst_bytes * 9 / 10);  // Less the small buffer it replaced.
  // The burst buffer is refilled by small batches and freed after it has
  // carried one, rather than pinned for the shard's life.
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(manager.feed("t", small));
  EXPECT_LT(g_live_bytes.load() - before, burst_bytes / 8);
  const Heap after = count_heap([&] {
    for (int i = 0; i < 100; ++i) manager.feed("t", small);
  });
  EXPECT_EQ(after.big_allocs, 0u);
  g_big_size = SIZE_MAX;
  manager.stop_all();
}

/// An in-order, duplicate-free PacketIn/FlowMod stream with flow uids:
/// `pairs` flows from `t0`, 1 ms apart.
std::vector<of::ControlEvent> paired_stream(SimTime t0, int pairs,
                                            std::uint64_t first_uid) {
  std::vector<of::ControlEvent> events;
  for (int i = 0; i < pairs; ++i) {
    const of::FlowKey key{host(0, i % 7), host(1, i % 5),
                          static_cast<std::uint16_t>(1024 + i), 80,
                          of::Proto::kTcp};
    const SimTime ts = t0 + i * kMillisecond;
    of::ControlEvent in = pin(ts, 1, key);
    std::get<of::PacketIn>(in.msg).flow_uid = first_uid + i;
    of::ControlEvent out = fmod(ts + 100, 1, key);
    std::get<of::FlowMod>(out.msg).flow_uid = first_uid + i;
    events.push_back(in);
    events.push_back(out);
  }
  return events;
}

TEST(WindowAlloc, SanitizerPairTrackingAllocatesNothingForAWindowAlreadySeen) {
  ingest::StreamSanitizer sanitizer{ingest::SanitizerConfig{}};
  std::uint64_t kept = 0;
  const ingest::StreamSanitizer::Sink sink =
      [&kept](const of::ControlEvent&) { ++kept; };
  constexpr int kPairs = 4000;
  const auto first = paired_stream(0, kPairs, 1);
  const auto second = paired_stream(kPairs * kMillisecond, kPairs, kPairs + 1);
  const auto third =
      paired_stream(2 * kPairs * kMillisecond, kPairs, 2 * kPairs + 1);
  sanitizer.push(first, sink);
  const ingest::StreamQuality warm = sanitizer.take_window_quality();
  EXPECT_GT(warm.pairs_matched, 0u);

  ingest::StreamQuality quality;
  const Heap window = count_heap([&] {
    sanitizer.push(second, sink);
    quality = sanitizer.take_window_quality();
  });
  EXPECT_EQ(window.allocs, 0u);
  EXPECT_EQ(window.frees, 0u);
  EXPECT_GT(quality.pairs_matched, 0u);

  const Heap next = count_heap([&] {
    sanitizer.push(third, sink);
    quality = sanitizer.take_window_quality();
  });
  EXPECT_EQ(next.allocs, 0u);
  EXPECT_EQ(next.frees, 0u);
  EXPECT_GT(quality.pairs_matched, 0u);
}

/// `n` PacketIns of distinct flows without a uid, `spacing` apart from
/// `t0`: the sanitizer neither pairs nor deduplicates them.
std::vector<of::ControlEvent> pin_train(SimTime t0, int n,
                                        SimDuration spacing) {
  std::vector<of::ControlEvent> events;
  for (int i = 0; i < n; ++i) {
    const of::FlowKey key{host(0, i % 7), host(1, i % 5),
                          static_cast<std::uint16_t>(1024 + i % 50000), 80,
                          of::Proto::kTcp};
    events.push_back(pin(t0 + i * spacing, 1, key));
  }
  return events;
}

TEST(WindowAlloc, SanitizerRingShrinksAfterABurstAndKeepsSteadyOnes) {
  // The sink cuts 2 s windows the way SlidingMonitor does: from inside the
  // release, on the first event past the window's end.
  constexpr SimDuration kWindow = 2 * kSecond;
  ingest::StreamSanitizer sanitizer{ingest::SanitizerConfig{}};
  SimTime window_end = kWindow;
  SimTime last = 0;
  std::uint64_t released = 0;
  bool ordered = true;
  const ingest::StreamSanitizer::Sink sink = [&](const of::ControlEvent& e) {
    while (e.ts >= window_end) {
      (void)sanitizer.take_window_quality();
      window_end += kWindow;
    }
    ordered = ordered && e.ts >= last;
    last = e.ts;
    ++released;
  };
  // A steady window: 400 events 5 ms apart, about 200 of them buffered
  // in the 1 s horizon at any time.
  const auto steady = [](int window) {
    return pin_train(window * kWindow, 400, 5 * kMillisecond);
  };
  std::uint64_t pushed = 0;
  const auto push = [&](const std::vector<of::ControlEvent>& events) {
    sanitizer.push(events, sink);
    pushed += events.size();
  };
  push(steady(0));
  push(steady(1));
  const auto window2 = steady(2);
  const Heap warm = count_heap([&] { push(window2); });
  EXPECT_EQ(warm.allocs, 0u);
  EXPECT_EQ(warm.frees, 0u);

  // Window 3 is a burst: 30,000 events within 0.6 s, all buffered at once.
  constexpr int kBurst = 30000;
  const auto burst_bytes =
      static_cast<std::int64_t>(kBurst * sizeof(of::ControlEvent));
  const std::int64_t before = g_live_bytes.load();
  push(pin_train(3 * kWindow, kBurst, 20));
  EXPECT_GT(g_live_bytes.load() - before, burst_bytes);

  // Small windows again. Window 3's cut still sees the burst buffered;
  // window 4's cut, whose peak is a steady one, shrinks the ring.
  for (int window = 4; window < 7; ++window) push(steady(window));
  EXPECT_LT(g_live_bytes.load() - before, burst_bytes / 8);

  // The shrunk ring is the steady size: steady windows allocate nothing.
  for (int window = 7; window < 9; ++window) {
    SCOPED_TRACE(window);
    const auto events = steady(window);
    const Heap heap = count_heap([&] { push(events); });
    EXPECT_EQ(heap.allocs, 0u);
    EXPECT_EQ(heap.frees, 0u);
  }

  // Nothing lost or reordered across the shrink.
  sanitizer.flush(sink);
  EXPECT_TRUE(ordered);
  EXPECT_EQ(released, pushed);
  EXPECT_EQ(sanitizer.total().kept, pushed);
}

/// One occurrence of a two-token task, then `count` flows that keep
/// spawning matchers that time out (and unrelated noise) but finish no
/// second occurrence. The live matcher count never passes ten, whatever
/// `count` is.
of::FlowSequence probe_stream(std::size_t count) {
  const Ipv4 nfs(10, 0, 10, 1);
  const auto flow = [](SimTime ts, Ipv4 src, Ipv4 dst, std::uint16_t port) {
    return of::TimedFlow{ts, of::FlowKey{src, dst, 40000, port,
                                         of::Proto::kTcp}};
  };
  of::FlowSequence flows = {flow(0, Ipv4(10, 0, 0, 1), nfs, 2049),
                            flow(10 * kMillisecond, Ipv4(10, 0, 0, 1), nfs,
                                 111)};
  for (std::size_t i = 0; flows.size() < count; ++i) {
    const SimTime ts = static_cast<SimTime>(i + 1) * 100 * kMillisecond;
    const Ipv4 host(10, 0, 1, static_cast<std::uint8_t>(i % 8));
    flows.push_back(i % 2 == 0 ? flow(ts, host, nfs, 2049)
                               : flow(ts, host, Ipv4(10, 0, 2, 1), 80));
  }
  return flows;
}

TEST(WindowAlloc, SnapshotSharesExplainedWindowsWhateverTheirSize) {
  // Both rings full: a snapshot copies the audits and one pointer per
  // explained window, so its heap calls do not depend on how many changes
  // each alarm carries, and successive snapshots hold the same records.
  constexpr std::size_t kWindows = SlidingMonitor::kMaxAudits + 32;
  const auto full_monitor = [](int destinations) {
    MonitorOptions options;
    options.window = kRetentionWindow;
    auto monitor = std::make_unique<SlidingMonitor>(options);
    for (std::size_t w = 0; w < kWindows; ++w) {
      monitor->feed(retention_window(w, retention_alarms(w), destinations));
    }
    return monitor;
  };
  const auto small = full_monitor(1);
  const auto large = full_monitor(100);
  for (const SlidingMonitor* monitor : {small.get(), large.get()}) {
    const MonitorSnapshot snap = monitor->snapshot();
    ASSERT_EQ(snap.audits.size(), SlidingMonitor::kMaxAudits);
    ASSERT_EQ(snap.explained.size(), SlidingMonitor::kMaxExplained);
    ASSERT_GT(snap.provenance_dropped, 0u);
  }
  const auto changes = [](const SlidingMonitor& monitor) {
    return monitor.snapshot().explained.back()->report->change_count();
  };
  ASSERT_EQ(changes(*small), 2u);
  ASSERT_GE(changes(*large), 100u);

  std::optional<MonitorSnapshot> small_snap;
  std::optional<MonitorSnapshot> large_snap;
  const Heap small_heap =
      count_heap([&] { small_snap.emplace(small->snapshot()); });
  const Heap large_heap =
      count_heap([&] { large_snap.emplace(large->snapshot()); });
  EXPECT_EQ(small_heap.allocs, large_heap.allocs);
  // The audit vector, one decision string per audit, the pointer array.
  EXPECT_LE(large_heap.allocs, SlidingMonitor::kMaxAudits + 2);

  const MonitorSnapshot again = large->snapshot();
  ASSERT_EQ(again.explained.size(), large_snap->explained.size());
  std::size_t shared = 0;
  for (std::size_t i = 0; i < again.explained.size(); ++i) {
    if (again.explained[i].get() == large_snap->explained[i].get()) ++shared;
  }
  EXPECT_EQ(shared, SlidingMonitor::kMaxExplained);
}

TEST(WindowAlloc, TaskDetectionAllocationsDoNotGrowWithFlows) {
  const auto automaton = TaskAutomaton::parse(
      "TASK probe\nSTATE 0 start\nTOKEN #0 * 10.0.10.1 2049 6\nTRANS 1\n"
      "STATE 1 accept\nTOKEN #0 * 10.0.10.1 111 6\nTRANS\n");
  ASSERT_TRUE(automaton.has_value());
  const std::vector<TaskAutomaton> automata = {*automaton};
  DetectorConfig config;
  config.service_ips = {Ipv4(10, 0, 10, 1)};
  const auto small = probe_stream(1000);
  const auto large = probe_stream(10000);
  // Warm-up: registers the task.* counters.
  EXPECT_EQ(detect_tasks(automata, config, large).size(), 1u);

  std::size_t found_small = 0;
  std::size_t found_large = 0;
  const Heap one_k = count_heap(
      [&] { found_small = detect_tasks(automata, config, small).size(); });
  const Heap ten_k = count_heap(
      [&] { found_large = detect_tasks(automata, config, large).size(); });
  EXPECT_EQ(found_small, 1u);
  EXPECT_EQ(found_large, 1u);
  EXPECT_EQ(one_k.allocs, ten_k.allocs);
  EXPECT_EQ(one_k.frees, ten_k.frees);
  EXPECT_LE(ten_k.allocs, 24u);
}

}  // namespace
}  // namespace flowdiff::core
