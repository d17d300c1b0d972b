// The forwarder engine's L1: a bounded LRU cache of response images.
//
// Each entry is a `ResponseImage` (dns/response_image.h) keyed on the
// parsed (qname, qtype). A hit hands back the image and the entry's age;
// the engine answers with one copy and a patch of the query's ID, its
// qclass and the TTLs — no Message decode or encode on the way.
//
// The cache makes the same decisions the record cache (`dns::Cache`) makes,
// so hits, misses, stale hits and evictions fall on the same queries as
// they would with records:
//
//   * insert replaces an existing key in place and touches it; a new key
//     goes to the LRU front and evicts from the back beyond `capacity`;
//   * an entry's lifetime is its image's minimum TTL, or
//     kNegativeTtlSeconds for an answer with no records;
//   * lookups touch fresh and stale hits, never evict, and follow the
//     shared tier rules (dns/cache_tier.h) for expiry and the stale window.
//
// Single-threaded: each engine shard owns one.
#pragma once

#include <cstdint>
#include <list>
#include <optional>

#include "dns/cache_tier.h"
#include "dns/record_key.h"
#include "dns/response_image.h"
#include "util/types.h"

namespace doxlab::dns {

/// A hit: the stored image (valid until the next insert) and its age.
struct WireCacheHit {
  const ResponseImage* image = nullptr;
  /// Whole seconds since insertion (0 for stale hits — stamp the stale TTL).
  std::uint32_t age_s = 0;
  bool stale = false;
};

class WireCache {
 public:
  /// `capacity` bounds the entry count (0 = unbounded).
  explicit WireCache(std::size_t capacity = 0) : capacity_(capacity) {}

  WireCache(const WireCache&) = delete;
  WireCache& operator=(const WireCache&) = delete;

  /// Stores (replacing) the image for (name, type), stamped `now`.
  void insert(const DnsName& name, RRType type, ResponseImage image,
              SimTime now);

  /// A fresh entry, or — when `max_stale > 0` — an expired one less than
  /// `max_stale` past its expiry (RFC 8767). Hits are touched; misses leave
  /// the entry in place.
  std::optional<WireCacheHit> lookup(const DnsName& name, RRType type,
                                     SimTime now, SimTime max_stale = 0);

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Entries evicted by the capacity bound.
  std::uint64_t evictions() const { return evictions_; }

  /// Uniform tier observability (see dns/cache_tier.h); `bytes` counts
  /// image slab bytes.
  TierStats tier_stats() const;

 private:
  struct Node {
    ResponseImage image;
    SimTime inserted_at = 0;
    std::uint32_t ttl_s = 0;
    /// Position in lru_ (front = most recently used).
    std::list<RecordKey>::iterator lru;
  };

  void touch(const Node& node) { lru_.splice(lru_.begin(), lru_, node.lru); }

  RecordMap<Node> entries_;
  std::list<RecordKey> lru_;
  std::size_t capacity_ = 0;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t stale_hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t bytes_ = 0;
};

static_assert(CacheTier<WireCache>);

}  // namespace doxlab::dns
