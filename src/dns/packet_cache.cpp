#include "dns/packet_cache.h"

#include <tuple>

namespace doxlab::dns {

SharedPacketCache::SharedPacketCache(std::size_t capacity,
                                     std::uint32_t shards)
    : capacity_(capacity), lanes_(shards == 0 ? 1 : shards) {}

bool SharedPacketCache::lookup(std::uint32_t shard, const DnsName& name,
                               RRType type, SimTime now, PacketCacheHit& out,
                               SimTime max_stale) {
  Lane& lane = lanes_[shard];
  // Shared lock: concurrent lookups from other shards never exclude this
  // one; only an exclusive holder (the barrier-time sweep) makes the
  // try_lock fail.
  std::shared_lock<std::shared_mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) {
    // Contended read: never wait. Count it and report a miss — the caller
    // falls through to its normal resolve path.
    ++lane.counters.lock_misses;
    ++lane.counters.misses;
    return false;
  }
  const NodeIndex node = entries_.find(name, type);
  if (node == kNoNode) {
    ++lane.counters.misses;
    return false;
  }
  const std::optional<TierHit> hit =
      classify(entries_.value(node), now, max_stale);
  if (!hit) {
    ++lane.counters.misses;
    return false;
  }
  out = *hit;
  ++lane.counters.hits;
  if (hit->stale) ++lane.counters.stale_hits;
  return true;
}

void SharedPacketCache::insert(std::uint32_t shard, const DnsName& name,
                               RRType type, ResponseImage image,
                               SimTime now) {
  // Would expire instantly, or is negative: not worth a lane slot.
  if (image.ttl_count() == 0 || image.min_ttl() == 0) return;
  Lane& lane = lanes_[shard];
  lane.pending.push_back(
      Pending{RecordKey{name, type}, TierEntry::of(std::move(image), now)});
  ++lane.counters.deferred_inserts;
}

void SharedPacketCache::insert(std::uint32_t shard, const DnsName& name,
                               RRType type,
                               std::span<const ResourceRecord> records,
                               SimTime now) {
  if (records.empty()) return;
  insert(shard, name, type,
         ResponseImage::answer_to(Question{name, type, RRClass::kIN},
                                  records),
         now);
}

void SharedPacketCache::sweep(SimTime now) {
  std::lock_guard<std::shared_mutex> lock(mu_);
  // Merge lanes in shard-index order: the table's contents after a sweep
  // are a function of what each shard deferred, never of thread timing.
  for (Lane& lane : lanes_) {
    for (Pending& pending : lane.pending) {
      ++counters_.applied_inserts;
      RecordKey& key = pending.key;
      NodeIndex node = kNoNode;
      bool inserted = false;
      if (capacity_ != 0 && entries_.size() >= capacity_) {
        node = entries_.find(key.name, key.type);
        if (node == kNoNode) {
          ++counters_.rejected_capacity;
          continue;
        }
      } else {
        std::tie(node, inserted) =
            entries_.try_emplace(std::move(key.name), key.type);
      }
      TierEntry& entry = entries_.value(node);
      if (!inserted) {
        counters_.bytes -= entry.image.footprint();
        ++counters_.replaced;
      }
      counters_.bytes += pending.entry.image.footprint();
      entry = std::move(pending.entry);
    }
    lane.pending.clear();
  }
  entries_.for_each([&](NodeIndex node) {
    // With a stale-retention window, an expired entry stays sweepable for
    // `retain_stale_` past its expiry so lookup() can serve it stale.
    const TierEntry& entry = entries_.value(node);
    if (!classify(entry, now, retain_stale_)) {
      counters_.bytes -= entry.image.footprint();
      entries_.erase(node);
      ++counters_.expired_evicted;
    }
  });
  ++counters_.sweeps;
}

SharedPacketCache::Stats SharedPacketCache::stats() const {
  std::lock_guard<std::shared_mutex> lock(mu_);
  Stats s = counters_;
  for (const Lane& lane : lanes_) {
    stats::merge(s, lane.counters, stats::Across::kShards);
  }
  s.size = entries_.size();
  return s;
}

}  // namespace doxlab::dns
