#include "dns/wire_cache.h"

namespace doxlab::dns {

void WireCache::insert(const DnsName& name, RRType type, ResponseImage image,
                       SimTime now) {
  const std::uint32_t ttl_s =
      image.ttl_count() == 0 ? kNegativeTtlSeconds : image.min_ttl();
  ++inserts_;
  bytes_ += image.footprint();
  auto it = entries_.find(RecordKeyView{name, type});
  if (it != entries_.end()) {
    Node& node = it->second;
    bytes_ -= node.image.footprint();
    node.image = std::move(image);
    node.inserted_at = now;
    node.ttl_s = ttl_s;
    touch(node);
    return;
  }
  lru_.push_front(RecordKey{name, type});
  entries_.emplace(lru_.front(),
                   Node{std::move(image), now, ttl_s, lru_.begin()});
  if (capacity_ == 0) return;
  while (entries_.size() > capacity_) {
    auto victim = entries_.find(lru_.back());
    bytes_ -= victim->second.image.footprint();
    entries_.erase(victim);
    lru_.pop_back();
    ++evictions_;
  }
}

std::optional<WireCacheHit> WireCache::lookup(const DnsName& name,
                                              RRType type, SimTime now,
                                              SimTime max_stale) {
  ++lookups_;
  auto it = entries_.find(RecordKeyView{name, type});
  if (it == entries_.end()) return std::nullopt;
  const Node& node = it->second;
  if (tier_fresh(node.inserted_at, node.ttl_s, now)) {
    ++hits_;
    touch(node);
    return WireCacheHit{&node.image, tier_age_s(node.inserted_at, now),
                        false};
  }
  if (max_stale <= 0 ||
      !tier_stale_within(node.inserted_at, node.ttl_s, now, max_stale)) {
    return std::nullopt;
  }
  ++hits_;
  ++stale_hits_;
  touch(node);
  return WireCacheHit{&node.image, 0, true};
}

TierStats WireCache::tier_stats() const {
  TierStats s;
  s.lookups = lookups_;
  s.hits = hits_;
  s.stale_hits = stale_hits_;
  s.inserts = inserts_;
  s.evictions = evictions_;
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace doxlab::dns
