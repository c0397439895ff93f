// The replacements live in their own translation unit: inlined into a
// caller next to std::allocator, gcc 12 reports their malloc/free pair
// as mismatched with operator new/delete (-Wmismatched-new-delete).
#include "counting_new.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::size_t> g_alloc_calls{0};

void* counted_malloc(std::size_t size) {
  g_alloc_calls.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::size_t sci::testing::allocation_count() noexcept {
  return g_alloc_calls.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) { return counted_malloc(size); }
void* operator new[](std::size_t size) { return counted_malloc(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
