#include "heap.h"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace perfbench::heap {
namespace {

std::atomic<bool> g_on{false};
std::atomic<std::uint64_t> g_allocs[kLayerCount];
std::atomic<std::int64_t> g_live{0};
std::atomic<std::int64_t> g_peak{0};
thread_local Layer t_layer = kOther;

void note_alloc(void* p) {
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  g_allocs[t_layer].fetch_add(1, std::memory_order_relaxed);
  const std::int64_t live =
      g_live.fetch_add(size, std::memory_order_relaxed) + size;
  std::int64_t peak = g_peak.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak.compare_exchange_weak(peak, live, std::memory_order_relaxed)) {
  }
}

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  if (g_on.load(std::memory_order_relaxed)) note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  const std::size_t rounded = ((size == 0 ? 1 : size) + a - 1) / a * a;
  void* p = std::aligned_alloc(a, rounded);
  if (p == nullptr) throw std::bad_alloc();
  if (g_on.load(std::memory_order_relaxed)) note_alloc(p);
  return p;
}

void release(void* p) noexcept {
  if (p == nullptr) return;
  if (g_on.load(std::memory_order_relaxed)) {
    g_live.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)),
                     std::memory_order_relaxed);
  }
  std::free(p);
}

}  // namespace

void set_enabled(bool on) { g_on.store(on, std::memory_order_relaxed); }

std::uint64_t allocs(Layer layer) {
  return g_allocs[layer].load(std::memory_order_relaxed);
}

std::int64_t live_bytes() { return g_live.load(std::memory_order_relaxed); }
std::int64_t peak_bytes() { return g_peak.load(std::memory_order_relaxed); }
void reset_peak() { g_peak.store(live_bytes(), std::memory_order_relaxed); }

Scope::Scope(Layer layer) : previous_(t_layer) { t_layer = layer; }
Scope::~Scope() { t_layer = previous_; }

}  // namespace perfbench::heap

using perfbench::heap::allocate;
using perfbench::heap::allocate_aligned;
using perfbench::heap::release;

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
