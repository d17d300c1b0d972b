#include "dns/cache.h"

#include <algorithm>

namespace doxlab::dns {

namespace {
/// Approximate wire footprint of a record set: uncompressed owner name +
/// the 10 fixed RR header bytes + rdata, per record.
std::size_t records_wire_bytes(const std::vector<ResourceRecord>& records) {
  std::size_t bytes = 0;
  for (const ResourceRecord& rr : records) {
    bytes += rr.name.wire_length() + 10 + rr.rdata.size();
  }
  return bytes;
}
}  // namespace

void Cache::insert(const DnsName& name, RRType type,
                   std::vector<ResourceRecord> records, SimTime now) {
  CacheEntry entry;
  entry.inserted_at = now;
  if (records.empty()) {
    entry.original_ttl = kNegativeTtlSeconds;
  } else {
    std::uint32_t min_ttl = UINT32_MAX;
    for (const auto& rr : records) min_ttl = std::min(min_ttl, rr.ttl);
    entry.original_ttl = min_ttl;
  }
  entry.wire_bytes = records_wire_bytes(records);
  entry.records = std::move(records);
  ++inserts_;
  bytes_ += entry.wire_bytes;

  auto it = entries_.find(RecordKeyView{name, type});
  if (it != entries_.end()) {
    bytes_ -= it->second.entry.wire_bytes;
    it->second.entry = std::move(entry);
    touch(it->second);
    return;
  }
  lru_.push_front(RecordKey{name, type});
  entries_.emplace(lru_.front(), Node{std::move(entry), lru_.begin()});
  enforce_capacity();
}

bool Cache::expired(const CacheEntry& entry, SimTime now) const {
  return !tier_fresh(entry.inserted_at, entry.original_ttl, now);
}

void Cache::touch(const Node& node) const {
  lru_.splice(lru_.begin(), lru_, node.lru);
}

void Cache::enforce_capacity() {
  if (capacity_ == 0) return;
  while (entries_.size() > capacity_) {
    auto it = entries_.find(lru_.back());
    bytes_ -= it->second.entry.wire_bytes;
    entries_.erase(it);
    lru_.pop_back();
    ++evictions_;
  }
}

void Cache::set_capacity(std::size_t max_entries) {
  capacity_ = max_entries;
  enforce_capacity();
}

void Cache::clear() {
  entries_.clear();
  lru_.clear();
  bytes_ = 0;
}

std::optional<EntryRef> Cache::lookup_ref(const DnsName& name, RRType type,
                                          SimTime now) const {
  auto it = entries_.find(RecordKeyView{name, type});
  if (it == entries_.end() || expired(it->second.entry, now)) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  touch(it->second);
  const CacheEntry& entry = it->second.entry;
  EntryRef ref;
  ref.records = &entry.records;
  ref.age_s = tier_age_s(entry.inserted_at, now);
  return ref;
}

std::optional<EntryRef> Cache::lookup_stale_ref(const DnsName& name,
                                                RRType type, SimTime now,
                                                SimTime max_stale) const {
  auto it = entries_.find(RecordKeyView{name, type});
  if (it == entries_.end()) {
    ++misses_;
    return std::nullopt;
  }
  const CacheEntry& entry = it->second.entry;
  if (!expired(entry, now)) {
    ++hits_;
    touch(it->second);
    EntryRef ref;
    ref.records = &entry.records;
    ref.age_s = tier_age_s(entry.inserted_at, now);
    return ref;
  }
  if (!tier_stale_within(entry.inserted_at, entry.original_ttl, now,
                         max_stale)) {
    ++misses_;
    return std::nullopt;
  }
  ++hits_;
  ++stale_hits_;
  touch(it->second);
  EntryRef ref;
  ref.records = &entry.records;
  ref.stale = true;
  return ref;
}

std::optional<std::vector<ResourceRecord>> Cache::lookup(const DnsName& name,
                                                         RRType type,
                                                         SimTime now) const {
  auto ref = lookup_ref(name, type, now);
  if (!ref) return std::nullopt;
  std::vector<ResourceRecord> out = *ref->records;
  for (auto& rr : out) rr.ttl = tier_decay_ttl(rr.ttl, ref->age_s);
  return out;
}

std::optional<StaleLookup> Cache::lookup_stale(const DnsName& name,
                                               RRType type, SimTime now,
                                               SimTime max_stale,
                                               std::uint32_t stale_ttl) const {
  auto ref = lookup_stale_ref(name, type, now, max_stale);
  if (!ref) return std::nullopt;
  StaleLookup result;
  result.stale = ref->stale;
  result.records = *ref->records;
  if (ref->stale) {
    for (auto& rr : result.records) rr.ttl = stale_ttl;
  } else {
    for (auto& rr : result.records) {
      rr.ttl = tier_decay_ttl(rr.ttl, ref->age_s);
    }
  }
  return result;
}

std::size_t Cache::evict_expired(SimTime now) {
  std::size_t evicted = 0;
  for (auto it = entries_.begin(); it != entries_.end();) {
    if (expired(it->second.entry, now)) {
      bytes_ -= it->second.entry.wire_bytes;
      lru_.erase(it->second.lru);
      it = entries_.erase(it);
      ++evicted;
    } else {
      ++it;
    }
  }
  expired_evictions_ += evicted;
  return evicted;
}

TierStats Cache::tier_stats() const {
  TierStats s;
  s.lookups = hits_ + misses_;
  s.hits = hits_;
  s.stale_hits = stale_hits_;
  s.inserts = inserts_;
  s.evictions = evictions_ + expired_evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace doxlab::dns
