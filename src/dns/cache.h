// TTL-bounded DNS record cache, used by the resolvers.
//
// The cache is unbounded by default (the study's resolvers never evict), but
// can be given a capacity bound: insertion beyond the bound evicts the
// least-recently-used entry (dns/lru_map.h). Entries expire by the shared
// tier rule (`classify`, dns/cache_tier.h).
//
// Lookups take the (name, type) pair by reference, so a cache hit performs
// no heap allocation — callers on hot paths use lookup_ref(), which hands
// back a pointer into the entry instead of a TTL-adjusted copy.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "dns/lru_map.h"
#include "dns/message.h"
#include "util/types.h"

namespace doxlab::dns {

/// A cached answer: the records plus their insertion time and lifetime.
struct CacheEntry {
  std::vector<ResourceRecord> records;
  SimTime inserted_at = 0;
  /// The minimum record TTL, or kNegativeTtlSeconds for no records.
  std::uint32_t ttl_s = 0;
};

/// A zero-copy cache hit: `records` points into the cache entry and stays
/// valid until the next insert. Record TTLs are the *original* ones;
/// subtract `age_s` when materializing an answer.
struct EntryRef {
  const std::vector<ResourceRecord>* records = nullptr;
  /// Whole seconds since insertion.
  std::uint32_t age_s = 0;
};

/// Cache keyed by (qname, qtype). TTLs decay against simulated time.
class Cache {
 public:
  /// Inserts (replacing) the answer set for a key. `ttl` is taken from the
  /// minimum record TTL; an empty record set is cached as a negative entry.
  /// May evict the least-recently-used entry if a capacity bound is set.
  void insert(const DnsName& name, RRType type,
              std::vector<ResourceRecord> records, SimTime now);

  /// Returns the records (with TTLs decremented by elapsed time) if the
  /// entry exists and has not expired at `now`.
  std::optional<std::vector<ResourceRecord>> lookup(const DnsName& name,
                                                    RRType type,
                                                    SimTime now);

  /// Allocation-free variant of lookup(): a hit returns a reference into
  /// the entry (valid until the next insert) instead of copying records.
  std::optional<EntryRef> lookup_ref(const DnsName& name, RRType type,
                                     SimTime now);

  /// Bounds the cache to `max_entries` (0 = unbounded, the default).
  /// Shrinking below the current size evicts least-recently-used entries.
  void set_capacity(std::size_t max_entries) {
    entries_.set_capacity(max_entries);
  }

  std::size_t size() const { return entries_.size(); }
  /// Entries evicted by the capacity bound (not TTL expiry).
  std::uint64_t evictions() const { return entries_.evictions(); }

 private:
  LruMap<CacheEntry> entries_;
};

}  // namespace doxlab::dns
