#include "engine/schedule.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace doxlab::engine {

namespace {

/// Lane l keys its chunk c from splitmix64(splitmix64(seed, kScheduleLane +
/// l), c): lane 0 is the legit arrivals, lane 1 + k attack k.
constexpr std::uint64_t kScheduleLane = 0x5C000000ull;

/// Uniform in (0, 1] from the top 53 bits, so its log stays finite.
double unit(std::uint64_t bits) {
  return static_cast<double>((bits >> 11) + 1) * 0x1p-53;
}

/// Uniform in [0, n) for n <= 2^32: multiply-shift of the top 32 bits.
std::uint32_t below(std::uint64_t bits, std::uint64_t n) {
  return static_cast<std::uint32_t>(((bits >> 32) * n) >> 32);
}

/// One column of the name table: a draw landing in column i keeps i when
/// its low 32 bits fall below `keep`, and takes `alias` otherwise.
struct AliasColumn {
  std::uint32_t keep = 0;
  std::uint32_t alias = 0;
};

/// Vose's alias table over the name ranks, rank r weighted 1/r (Zipf-1).
std::vector<AliasColumn> zipf_alias_table(std::size_t names) {
  std::vector<double> mass(names);
  double total = 0.0;
  for (std::size_t i = 0; i < names; ++i) {
    mass[i] = 1.0 / static_cast<double>(i + 1);
    total += mass[i];
  }
  // Scaled so that a column holds a mass of exactly 1.
  std::vector<std::uint32_t> small, large;
  for (std::size_t i = 0; i < names; ++i) {
    mass[i] *= static_cast<double>(names) / total;
    (mass[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  std::vector<AliasColumn> table(names);
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    table[s] = {static_cast<std::uint32_t>(mass[s] * 0x1p32), l};
    mass[l] -= 1.0 - mass[s];
    if (mass[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // The rest hold one column's mass up to rounding: they keep themselves.
  for (const std::uint32_t i : small) table[i] = {0xFFFFFFFFu, i};
  for (const std::uint32_t i : large) table[i] = {0xFFFFFFFFu, i};
  return table;
}

/// One lane of one chunk: a Poisson process whose i-th draw is
/// splitmix64(key, i). `t` and `end` are microseconds from the chunk's
/// start, kept unrounded; `next` is the entry the lane offers.
struct Lane {
  std::uint32_t index = 0;
  std::uint64_t key = 0;
  std::uint64_t draws = 0;
  double mean_gap_us = 0.0;
  double t = 0.0;
  double end = 0.0;
  Arrival next;

  std::uint64_t draw() { return splitmix64(key, draws++); }
};

/// The entries of chunk `c`, handed to `emit` in schedule order: by stored
/// time, and on equal times by lane (legit first, then attacks in config
/// order).
template <typename Emit>
void draw_chunk(const ShardedConfig& config,
                const std::vector<AliasColumn>& names, std::uint64_t c,
                Emit&& emit) {
  const SimTime start = static_cast<SimTime>(c) * kScheduleChunk;
  const SimTime end = std::min(start + kScheduleChunk, config.duration);

  // Steps `lane` to its next entry; false once it has left the chunk.
  const auto advance = [&](Lane& lane) {
    // Inverse-CDF exponential gap: -mean ln(1 - p), with 1 - p drawn.
    lane.t -= lane.mean_gap_us * std::log(unit(lane.draw()));
    if (!(lane.t < lane.end)) return false;
    lane.next.at = start + static_cast<SimTime>(lane.t);
    if (lane.index == 0) {
      lane.next.client = below(lane.draw(), config.clients);
      const std::uint64_t bits = lane.draw();
      const std::uint32_t column = below(bits, names.size());
      lane.next.name = static_cast<std::uint32_t>(bits) < names[column].keep
                           ? column
                           : names[column].alias;
    } else {
      const AttackConfig& attack = config.attacks[lane.index - 1];
      lane.next.client = attack.source_base.value() +
                         below(lane.draw(), attack.source_count);
      lane.next.name = kAttackTag | (lane.index - 1);
    }
    return true;
  };

  std::vector<Lane> lanes;
  const auto open = [&](std::uint32_t index, double qps, SimTime from) {
    if (qps <= 0.0 || from >= end) return;
    Lane lane;
    lane.index = index;
    lane.key = splitmix64(splitmix64(config.seed, kScheduleLane + index), c);
    lane.mean_gap_us = static_cast<double>(kSecond) / qps;
    lane.t = static_cast<double>(std::max(from, start) - start);
    lane.end = static_cast<double>(end - start);
    if (advance(lane)) lanes.push_back(lane);
  };
  open(0, config.qps, start);
  for (std::size_t k = 0; k < config.attacks.size(); ++k) {
    open(static_cast<std::uint32_t>(k + 1), config.attacks[k].qps,
         config.attacks[k].start);
  }

  // Lanes stay in index order, so the first lowest time wins its ties.
  while (!lanes.empty()) {
    std::size_t best = 0;
    for (std::size_t i = 1; i < lanes.size(); ++i) {
      if (lanes[i].next.at < lanes[best].next.at) best = i;
    }
    emit(lanes[best].next);
    if (!advance(lanes[best])) {
      lanes.erase(lanes.begin() + static_cast<std::ptrdiff_t>(best));
    }
  }
}

/// The shard that sends `entry`: an attack entry's spoofed source decides,
/// a legit entry's client source otherwise.
std::uint32_t owner(const ShardedConfig& config, const Arrival& entry) {
  if (config.shards == 1) return 0;
  return shard_of(config, (entry.name & kAttackTag)
                              ? net::IpAddress(entry.client)
                              : client_source(config, entry.client));
}

}  // namespace

std::vector<std::vector<Arrival>> draw_schedule(const ShardedConfig& config,
                                                SimTime from, SimTime to,
                                                util::ThreadPool& pool,
                                                std::uint64_t& legit) {
  const std::uint32_t n = config.shards;
  std::vector<std::vector<Arrival>> slices(n);
  legit = 0;
  to = std::min(to, config.duration);
  if (from >= to) return slices;
  const auto first = static_cast<std::uint64_t>(from / kScheduleChunk);
  const auto chunks =
      static_cast<std::size_t>((to - 1) / kScheduleChunk + 1) - first;
  const std::vector<AliasColumn> names =
      config.qps > 0.0 ? zipf_alias_table(config.names)
                       : std::vector<AliasColumn>{};

  // Visits chunk i's entries inside the window with their owning shard.
  const auto each_entry = [&](std::size_t i, auto&& visit) {
    draw_chunk(config, names, first + i, [&](const Arrival& entry) {
      if (entry.at >= from && entry.at < to) visit(entry, owner(config, entry));
    });
  };

  // Pass 1: each chunk's share per shard, and its legit count in column n.
  // Rows are counted locally: neighbouring chunks' rows share cache lines.
  const std::size_t width = n + 1;
  std::vector<std::uint64_t> counts(chunks * width);
  pool.parallel_for(chunks, [&](std::size_t i) {
    std::vector<std::uint64_t> row(width, 0);
    each_entry(i, [&](const Arrival& entry, std::uint32_t shard) {
      ++row[shard];
      if (!(entry.name & kAttackTag)) ++row[n];
    });
    std::copy(row.begin(), row.end(), counts.begin() + i * width);
  });

  // Every shard's runs follow each other in chunk order: the counts become
  // each run's first slot, and each slice gets its exact size.
  for (std::uint32_t s = 0; s < n; ++s) {
    std::uint64_t size = 0;
    for (std::size_t i = 0; i < chunks; ++i) {
      size += std::exchange(counts[i * width + s], size);
    }
    slices[s].resize(size);
  }
  for (std::size_t i = 0; i < chunks; ++i) legit += counts[i * width + n];

  // Pass 2: the same draws again, each entry written to its slot.
  pool.parallel_for(chunks, [&](std::size_t i) {
    const auto row = counts.begin() + static_cast<std::ptrdiff_t>(i * width);
    std::vector<std::uint64_t> slot(row, row + n);
    each_entry(i, [&](const Arrival& entry, std::uint32_t shard) {
      slices[shard][slot[shard]++] = entry;
    });
  });
  return slices;
}

}  // namespace doxlab::engine
