// Program-wide heap-allocation counter for the benches that prove an
// allocation-free path (micro_components, engine_scale, policy_path).
// Linking alloc_count.cpp replaces the global operator new/delete with
// malloc/free plus this count.
#pragma once

#include <cstdint>

namespace doxlab::bench {

/// Heap allocations the whole program has made so far.
std::uint64_t heap_allocations();

}  // namespace doxlab::bench
