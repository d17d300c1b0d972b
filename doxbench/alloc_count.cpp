// Global operator new/delete replaced with malloc/free plus a count of the
// calling thread's heap allocations (the cached-query probe reports them
// per query). Thread-local, so counting costs the parallel workloads no
// shared cache line. Kept in its own file: GCC misreads replaced operators
// inlined beside their callers as mismatched new/delete pairs.
#include <cstdlib>
#include <new>

#include "doxbench.h"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace doxbench {

std::uint64_t thread_allocations() { return t_allocations; }

}  // namespace doxbench
