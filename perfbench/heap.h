// Allocation accounting for the benchmark binary.
//
// heap.cc replaces the global operator new/delete with malloc-backed
// versions that, while accounting is on, count every allocation against the
// calling thread's current layer (set by heap::Scope) and track the live
// heap size from malloc_usable_size. Counts made by single-threaded passes
// over the same input repeat exactly, so they are usable as per-layer
// metrics where timings are too noisy. With accounting off the replacement
// costs one relaxed load per call.
#pragma once

#include <cstdint>

namespace perfbench::heap {

/// Layers allocations are attributed to; kOther is everything outside a
/// Scope (including the benchmark's own bookkeeping).
enum Layer : int {
  kOther = 0,
  kSource,
  kParse,
  kSanitize,
  kMonitor,
  kModel,
  kDiff,
  kManager,
  kLayerCount,
};

/// Turns accounting on or off for the whole process.
void set_enabled(bool on);

/// Allocations attributed to `layer` while accounting was on.
[[nodiscard]] std::uint64_t allocs(Layer layer);

/// Bytes currently allocated (allocations minus frees seen while
/// accounting was on).
[[nodiscard]] std::int64_t live_bytes();

/// Highest live_bytes() since the last reset_peak().
[[nodiscard]] std::int64_t peak_bytes();
void reset_peak();

/// Attributes the calling thread's allocations to `layer` for its lifetime.
class Scope {
 public:
  explicit Scope(Layer layer);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Layer previous_;
};

}  // namespace perfbench::heap
