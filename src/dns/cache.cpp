#include "dns/cache.h"

#include <algorithm>

#include "dns/cache_tier.h"

namespace doxlab::dns {

void Cache::insert(const DnsName& name, RRType type,
                   std::vector<ResourceRecord> records, SimTime now) {
  std::uint32_t ttl_s = kNegativeTtlSeconds;
  if (!records.empty()) {
    ttl_s = UINT32_MAX;
    for (const auto& rr : records) ttl_s = std::min(ttl_s, rr.ttl);
  }
  entries_.slot(name, type) = CacheEntry{std::move(records), now, ttl_s};
}

std::optional<EntryRef> Cache::lookup_ref(const DnsName& name, RRType type,
                                          SimTime now) {
  auto* node = entries_.find(name, type);
  if (node == nullptr) return std::nullopt;
  const auto hit = classify(node->value, now, /*max_stale=*/0);
  if (!hit) return std::nullopt;
  entries_.touch(*node);
  return EntryRef{&node->value.records, hit->age_s};
}

std::optional<std::vector<ResourceRecord>> Cache::lookup(const DnsName& name,
                                                         RRType type,
                                                         SimTime now) {
  auto ref = lookup_ref(name, type, now);
  if (!ref) return std::nullopt;
  std::vector<ResourceRecord> out = *ref->records;
  for (auto& rr : out) rr.ttl = tier_decay_ttl(rr.ttl, ref->age_s);
  return out;
}

}  // namespace doxlab::dns
