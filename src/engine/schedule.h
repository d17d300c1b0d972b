// The sharded runner's arrival schedule, drawn per shard.
//
// Simulated time is cut into fixed chunks of kScheduleChunk. Each chunk is
// drawn from its own counter-based lanes: lane 0 carries the legit
// arrivals, lane 1 + k carries attack k, and the i-th draw of a lane in
// chunk c is splitmix64(key(seed, lane, c), i). Inside a chunk a lane is a
// Poisson process at sub-microsecond precision, with inverse-CDF
// exponential gaps drawn from 53 bits. A stored time is only floored to
// whole microseconds, so equal stored times are legal and the realized
// rate is the configured one. A legit entry draws its client by
// multiply-shift and its name from a Zipf-1 alias table; an attack entry
// draws its spoofed source the same way. A chunk's lanes are merged by stored time, legit entries first and
// then attacks in config order on ties, so silencing an attack leaves
// every legit entry as it was.
//
// The schedule is therefore a function of the seed alone: the shard count,
// the thread count and the standard library only decide who draws a chunk
// and which shard an entry lands in. Chunks are drawn twice on the pool,
// once to count each shard's share and once to fill slices of exact size,
// so no global schedule ever coexists with the slices.
#pragma once

#include <cstdint>
#include <vector>

#include "engine/shard.h"

namespace doxlab::util {
class ThreadPool;
}  // namespace doxlab::util

namespace doxlab::engine {

/// Simulated time per schedule chunk. Chunk c covers [c, c + 1) times this,
/// clipped to the arrival window.
inline constexpr SimTime kScheduleChunk = 250 * kMillisecond;

/// Every shard's slice of the schedule entries whose stored time falls in
/// [from, to), each in schedule order. `legit` receives the number of legit
/// entries among them. The chunks are drawn on `pool`; the name table is
/// only built when the window holds at least one chunk.
std::vector<std::vector<Arrival>> draw_schedule(const ShardedConfig& config,
                                                SimTime from, SimTime to,
                                                util::ThreadPool& pool,
                                                std::uint64_t& legit);

}  // namespace doxlab::engine
