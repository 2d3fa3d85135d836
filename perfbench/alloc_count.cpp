// Counting global operator new for the benchmark binary (the pattern
// obs_test uses).  Counts only while a traced phase runs, so the untraced
// phase pays one relaxed load per allocation; layout and failure
// behaviour match the default new/delete.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "probe.hpp"

namespace {
std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  if (perfbench::g_tracing.load(std::memory_order_relaxed)) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::uint64_t perfbench::allocations() noexcept {
  return g_allocations.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
