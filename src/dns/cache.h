// TTL-bounded DNS record cache, used by resolvers (and by the local proxy
// when its cache is *enabled* — the study disables it, and tests cover both).
//
// The cache is unbounded by default (the study's resolvers never evict), but
// can be given a capacity bound: insertion beyond the bound evicts the
// least-recently-used entry, which is what a shared forwarder cache under
// sustained traffic needs. It also supports RFC 8767 serve-stale lookups:
// an expired entry can still be returned (with clamped TTLs) for a bounded
// staleness window, leaving the refresh policy to the caller.
//
// Storage is a hash map keyed on the name's flat wire-form labels, with
// transparent hash/equality so lookups take the (name, type) pair by
// reference: a cache hit performs no heap allocation — callers on hot paths
// use lookup_ref()/lookup_stale_ref(), which hand back a pointer into the
// entry instead of a TTL-adjusted copy.
#pragma once

#include <cstdint>
#include <list>
#include <optional>
#include <vector>

#include "dns/cache_tier.h"
#include "dns/message.h"
#include "dns/record_key.h"
#include "util/types.h"

namespace doxlab::dns {

/// A cached answer: the records plus their insertion time.
struct CacheEntry {
  std::vector<ResourceRecord> records;
  SimTime inserted_at = 0;
  std::uint32_t original_ttl = 0;
  /// Approximate wire footprint of `records` (names + fixed RR headers +
  /// rdata), computed once at insert for the tier byte accounting.
  std::size_t wire_bytes = 0;
};

/// Result of a serve-stale lookup.
struct StaleLookup {
  std::vector<ResourceRecord> records;
  /// True when the entry had expired and the records carry the clamped
  /// stale TTL instead of a decayed one.
  bool stale = false;
};

/// A zero-copy cache hit: `records` points into the cache entry and stays
/// valid until the next insert/eviction. Record TTLs are the *original*
/// ones; subtract `age_s` (fresh hits) or clamp to the stale TTL (stale
/// hits) when materializing an answer.
struct EntryRef {
  const std::vector<ResourceRecord>* records = nullptr;
  /// Whole seconds since insertion (0 for stale hits — use the stale TTL).
  std::uint32_t age_s = 0;
  bool stale = false;
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
                                                    SimTime now) const;

  /// RFC 8767 serve-stale lookup: like lookup(), but an entry that expired
  /// no more than `max_stale` ago is still returned, its record TTLs
  /// clamped to `stale_ttl` (RFC 8767 §4 recommends <= 30 s). Refreshing
  /// the entry is the caller's responsibility.
  std::optional<StaleLookup> lookup_stale(const DnsName& name, RRType type,
                                          SimTime now, SimTime max_stale,
                                          std::uint32_t stale_ttl = 30) const;

  /// Allocation-free variant of lookup(): a hit returns a reference into
  /// the entry (valid until the next mutation) instead of copying records.
  std::optional<EntryRef> lookup_ref(const DnsName& name, RRType type,
                                     SimTime now) const;

  /// Allocation-free variant of lookup_stale(). Stale hits have age_s == 0
  /// and stale == true; the caller stamps its own stale TTL.
  std::optional<EntryRef> lookup_stale_ref(const DnsName& name, RRType type,
                                           SimTime now,
                                           SimTime max_stale) const;

  /// Drops expired entries; returns how many were evicted. Does not count
  /// towards evictions() (which tracks capacity pressure only).
  std::size_t evict_expired(SimTime now);

  /// Bounds the cache to `max_entries` (0 = unbounded, the default).
  /// Shrinking below the current size evicts least-recently-used entries.
  void set_capacity(std::size_t max_entries);
  std::size_t capacity() const { return capacity_; }

  void clear();
  std::size_t size() const { return entries_.size(); }

  std::uint64_t hits() const { return hits_; }
  std::uint64_t misses() const { return misses_; }
  /// Entries evicted by the capacity bound (not TTL expiry).
  std::uint64_t evictions() const { return evictions_; }

  /// Uniform tier observability (see dns/cache_tier.h). `evictions` here
  /// covers both capacity pressure and expiry reaping.
  TierStats tier_stats() const;

 private:
  struct Node {
    CacheEntry entry;
    /// Position in lru_ (front = most recently used).
    std::list<RecordKey>::iterator lru;
  };
  using Map = RecordMap<Node>;

  bool expired(const CacheEntry& entry, SimTime now) const;
  /// Moves a node to the front of the LRU list.
  void touch(const Node& node) const;
  /// Evicts LRU entries until size() <= capacity (no-op when unbounded).
  void enforce_capacity();

  Map entries_;
  mutable std::list<RecordKey> lru_;
  std::size_t capacity_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  mutable std::uint64_t stale_hits_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t expired_evictions_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t bytes_ = 0;
};

static_assert(CacheTier<Cache>);

}  // namespace doxlab::dns
