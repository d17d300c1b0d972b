// The forwarder engine's L1: a bounded LRU cache of response images.
//
// Each entry is a `TierEntry` (dns/cache_tier.h) keyed on the parsed
// (qname, qtype). A hit hands back the image and the entry's age; the
// engine answers with one copy and a patch of the query's ID, its qclass
// and the TTLs — no Message decode or encode on the way.
//
//   * insert replaces an existing key in place and touches it; a new key
//     becomes the most recently used and, at `capacity`, takes over the
//     least recently used entry (dns/lru_map.h);
//   * lookups follow `classify` for expiry and the stale window, touch
//     fresh and stale hits, and never evict.
//
// Single-threaded: each engine shard owns one.
#pragma once

#include <cstdint>
#include <optional>

#include "dns/cache_tier.h"
#include "dns/lru_map.h"
#include "dns/response_image.h"
#include "util/types.h"

namespace doxlab::dns {

class WireCache {
 public:
  /// `capacity` bounds the entry count (0 = unbounded).
  explicit WireCache(std::size_t capacity = 0) : entries_(capacity) {}

  /// Stores (replacing) the image for (name, type), stamped `now`.
  void insert(const DnsName& name, RRType type, ResponseImage image,
              SimTime now);

  /// A fresh entry, or — when `max_stale > 0` — an expired one less than
  /// `max_stale` past its expiry (RFC 8767). The hit is valid until the
  /// next insert.
  std::optional<TierHit> lookup(const DnsName& name, RRType type,
                                SimTime now, SimTime max_stale = 0);

  std::size_t size() const { return entries_.size(); }
  /// Entries evicted by the capacity bound.
  std::uint64_t evictions() const { return entries_.evictions(); }

  /// The engine's l1_* counters; `bytes` counts image slab bytes.
  TierStats tier_stats() const;

 private:
  LruMap<TierEntry> entries_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t stale_hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t bytes_ = 0;
};

}  // namespace doxlab::dns
