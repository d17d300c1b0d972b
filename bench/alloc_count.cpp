// The replaced global operator new/delete behind bench::heap_allocations.
// Kept in its own translation unit: GCC misreads replaced operators inlined
// beside their callers as mismatched new/delete pairs.
#include "alloc_count.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace doxlab::bench {

std::uint64_t heap_allocations() { return g_heap_allocs.load(); }

}  // namespace doxlab::bench
