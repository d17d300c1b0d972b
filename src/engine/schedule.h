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
// draws its spoofed source the same way. A chunk's lanes are merged by
// stored time, legit entries first and then attacks in config order on
// ties, so silencing an attack leaves every legit entry as it was.
//
// The schedule is therefore a function of the seed alone: the shard count,
// the thread count and the standard library only decide who draws a chunk
// and which shard an entry lands in. A world's schedule is drawn twice on
// the pool. The counting pass runs up front and fixes each shard's entry
// count, so each shard reserves its block of sequence numbers at once.
// The fills then draw the chunks again in batches, just ahead of the
// epochs that need them, into runs (one per chunk and shard) that the
// shards lend and walk: no schedule for the whole window is ever held.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "engine/shard.h"

namespace doxlab::util {
class ThreadPool;
}  // namespace doxlab::util

namespace doxlab::engine {

/// Simulated time per schedule chunk. Chunk c covers [c, c + 1) times this,
/// clipped to the arrival window.
inline constexpr SimTime kScheduleChunk = 250 * kMillisecond;

/// One column of the name table: a draw landing in column i keeps i when
/// its low 32 bits fall below `keep`, and takes `alias` otherwise.
struct AliasColumn {
  std::uint32_t keep = 0;
  std::uint32_t alias = 0;
};

/// One world's schedule: the entries whose stored time falls in [from, to),
/// counted per shard at construction and drawn chunk by chunk by `fill`.
class Schedule {
 public:
  /// Runs the counting pass on `pool`. The name table is built only when
  /// the window holds at least one chunk, and kept for the fills.
  Schedule(const ShardedConfig& config, SimTime from, SimTime to,
           util::ThreadPool& pool);

  /// Entries `shard` owns in the window: the size of its sequence block.
  std::uint64_t entries(std::uint32_t shard) const { return entries_[shard]; }
  /// Legit entries `shard` owns in the window.
  std::uint64_t legit(std::uint32_t shard) const { return legit_[shard]; }
  /// Legit entries in the window, over every shard.
  std::uint64_t legit() const;

  /// Chunks not drawn yet.
  std::size_t chunks_left() const { return chunks_ - drawn_; }
  /// Every entry stored before this time has been drawn; kSimTimeNever
  /// once every chunk has been.
  SimTime horizon() const;

  /// Draws the next batch = `runs.size() / shards` chunks in parallel on
  /// `pool`; `runs.size()` must be a multiple of the shard count, and the
  /// batch between 1 and chunks_left(). Chunk j of the batch clears
  /// runs[s * batch + j] and writes shard s's entries into it, in schedule
  /// order, so each shard's runs are contiguous and in chunk order.
  void fill(util::ThreadPool& pool, std::span<std::vector<Arrival>> runs);

 private:
  const ShardedConfig& config_;
  SimTime from_ = 0;
  SimTime to_ = 0;
  std::uint64_t first_ = 0;  ///< index of the window's first chunk
  std::size_t chunks_ = 0;
  std::size_t drawn_ = 0;
  std::vector<AliasColumn> names_;
  std::vector<std::uint64_t> entries_;
  std::vector<std::uint64_t> legit_;
};

}  // namespace doxlab::engine
