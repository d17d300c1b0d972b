#include "dns/wire_cache.h"

namespace doxlab::dns {

void WireCache::insert(const DnsName& name, RRType type, ResponseImage image,
                       SimTime now) {
  ++inserts_;
  // The slot still holds the entry it replaces or evicts (an empty one for
  // a new key), so the byte count drops by that entry's footprint.
  TierEntry& entry = entries_.slot(name, type);
  bytes_ -= entry.image.footprint();
  entry = TierEntry::of(std::move(image), now);
  bytes_ += entry.image.footprint();
}

std::optional<TierHit> WireCache::lookup(const DnsName& name, RRType type,
                                         SimTime now, SimTime max_stale) {
  ++lookups_;
  auto* node = entries_.find(name, type);
  if (node == nullptr) return std::nullopt;
  const std::optional<TierHit> hit = classify(node->value, now, max_stale);
  if (!hit) return std::nullopt;
  ++hits_;
  if (hit->stale) ++stale_hits_;
  entries_.touch(*node);
  return hit;
}

TierStats WireCache::tier_stats() const {
  TierStats s;
  s.lookups = lookups_;
  s.hits = hits_;
  s.stale_hits = stale_hits_;
  s.inserts = inserts_;
  s.evictions = entries_.evictions();
  s.entries = entries_.size();
  s.bytes = bytes_;
  return s;
}

}  // namespace doxlab::dns
