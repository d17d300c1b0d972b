// One entry, one hit and one freshness rule for the whole cache hierarchy:
// the record cache (`dns::Cache`, used by the resolvers), the engine's
// per-shard image L1 (`dns::WireCache`), the shared L2
// (`dns::SharedPacketCache`) and the persistent snapshot tier
// (`dns::SnapshotTier`) all age, expire and serve-stale through
// `classify`, expressed once here:
//
//   * An entry's age is whole simulated seconds since insertion, never
//     negative (a snapshot replayed into a younger clock reports age 0
//     instead of wrapping).
//   * An entry expires the instant `inserted_at + ttl_s` is reached
//     (`now >= expiry` is expired — the `>=` matters for the pinned
//     artifacts, which all date from when each tier hand-rolled this).
//   * RFC 8767 staleness: an expired entry is servable while
//     `now - expiry < max_stale`; at exactly `max_stale` it is a miss.
//   * A record TTL answered from a hit decays by the hit's age, clamped
//     at 0.
#pragma once

#include <cstdint>
#include <optional>
#include <type_traits>
#include <utility>

#include "dns/response_image.h"
#include "util/types.h"

namespace doxlab::dns {

/// Whole seconds since `inserted_at`, clamped at 0 for clocks at or before
/// the insertion instant (warm-started snapshots may carry stamps from a
/// previous process whose clock ran ahead of a fresh world's).
constexpr std::uint32_t tier_age_s(SimTime inserted_at, SimTime now) {
  return now <= inserted_at
             ? 0u
             : static_cast<std::uint32_t>((now - inserted_at) / kSecond);
}

/// Lifetime of a negative entry (an answer with no records) in the tiers
/// that cache them: the record cache and the engine's image L1.
inline constexpr std::uint32_t kNegativeTtlSeconds = 60;

/// TTL decay shared by every tier: subtract the age, clamp at 0.
constexpr std::uint32_t tier_decay_ttl(std::uint32_t ttl,
                                       std::uint32_t age_s) {
  return ttl > age_s ? ttl - age_s : 0;
}

/// What the image tiers (L1, L2, snapshot) store per (qname, qtype).
struct TierEntry {
  ResponseImage image;
  SimTime inserted_at = 0;
  /// Lifetime in seconds, always as `of` derives it.
  std::uint32_t ttl_s = 0;

  /// `image` stored at `now`. It lives for its smallest record TTL, or
  /// kNegativeTtlSeconds when it carries no records.
  static TierEntry of(ResponseImage image, SimTime now) {
    const std::uint32_t ttl_s =
        image.ttl_count() == 0 ? kNegativeTtlSeconds : image.min_ttl();
    return TierEntry{std::move(image), now, ttl_s};
  }
};

/// A lookup's answer from any tier. `image` points into the tier and stays
/// valid until the tier's next mutation; answer with TTLs decayed by
/// `age_s`, or with the caller's stale TTL when `stale` is set.
struct TierHit {
  const ResponseImage* image = nullptr;
  std::uint32_t age_s = 0;
  bool stale = false;
};

/// The freshness rule of every tier, for any entry stamped with
/// `inserted_at` and `ttl_s` (a TierEntry, or the record cache's entry):
/// fresh strictly before the expiry instant, stale for `max_stale` after
/// it, a miss (nullopt) from then on. A hit on a TierEntry points at its
/// image.
template <typename Entry>
constexpr std::optional<TierHit> classify(const Entry& entry, SimTime now,
                                          SimTime max_stale) {
  const SimTime expiry =
      entry.inserted_at + static_cast<SimTime>(entry.ttl_s) * kSecond;
  const bool fresh = now < expiry;
  if (!fresh && now - expiry >= max_stale) return std::nullopt;
  TierHit hit{nullptr, tier_age_s(entry.inserted_at, now), !fresh};
  if constexpr (std::is_same_v<Entry, TierEntry>) hit.image = &entry.image;
  return hit;
}

/// Per-tier counters for the engine's stats. `bytes` is the image slab
/// footprint of live entries, maintained incrementally so reading it is
/// free.
struct TierStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;        ///< fresh + stale hits
  std::uint64_t stale_hits = 0;  ///< subset of hits served past expiry
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;   ///< capacity + stale-window evictions
  std::uint64_t entries = 0;     ///< live entries right now
  std::uint64_t bytes = 0;       ///< live image bytes
};

}  // namespace doxlab::dns
