#include "dns/packet_cache.h"

namespace doxlab::dns {

SharedPacketCache::SharedPacketCache(std::size_t capacity,
                                     std::uint32_t shards)
    : capacity_(capacity), lanes_(shards == 0 ? 1 : shards) {
  // One-time bucket reservation: the table never rehashes afterwards, so a
  // mid-epoch lookup can never land on a growth stall.
  entries_.reserve(capacity_);
}

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
  const auto it = entries_.find(RecordKeyView{name, type});
  if (it == entries_.end()) {
    ++lane.counters.misses;
    return false;
  }
  const std::optional<TierHit> hit = classify(it->second, now, max_stale);
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
      const auto it = entries_.find(pending.key);
      if (it != entries_.end()) {
        counters_.bytes -= it->second.image.footprint();
        counters_.bytes += pending.entry.image.footprint();
        it->second = std::move(pending.entry);
        ++counters_.replaced;
        continue;
      }
      if (capacity_ != 0 && entries_.size() >= capacity_) {
        ++counters_.rejected_capacity;
        continue;
      }
      counters_.bytes += pending.entry.image.footprint();
      entries_.emplace(std::move(pending.key), std::move(pending.entry));
    }
    lane.pending.clear();
  }
  for (auto it = entries_.begin(); it != entries_.end();) {
    // With a stale-retention window, an expired entry stays sweepable for
    // `retain_stale_` past its expiry so lookup() can serve it stale.
    if (!classify(it->second, now, retain_stale_)) {
      counters_.bytes -= it->second.image.footprint();
      it = entries_.erase(it);
      ++counters_.expired_evicted;
    } else {
      ++it;
    }
  }
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
