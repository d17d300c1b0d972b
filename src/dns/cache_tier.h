// Shared semantics for the cache hierarchy: the record cache (`dns::Cache`,
// used by resolvers and the proxy), the engine's per-shard image L1
// (`dns::WireCache`), the shared L2 (`dns::SharedPacketCache`) and the
// persistent snapshot tier (`dns::SnapshotTier`) all age, expire and
// serve-stale by the *same* rules, expressed once here:
//
//   * An entry's age is whole simulated seconds since insertion, never
//     negative (a snapshot replayed into a younger clock reports age 0
//     instead of wrapping).
//   * A record TTL decays by subtracting the age, clamped at 0.
//   * An entry expires the instant `inserted_at + ttl_s` is reached
//     (`now >= expiry` is expired — the `>=` matters for the pinned
//     artifacts, which all date from when each tier hand-rolled this).
//   * RFC 8767 staleness: an expired entry is servable while
//     `now - expiry < max_stale`; at exactly `max_stale` it is a miss.
//
// Every tier also exposes the same observability surface — a `TierStats`
// snapshot plus its live entry count — captured by the `CacheTier` concept
// so the engine can report l1/l2/snapshot occupancy uniformly.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>

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

/// Absolute expiry instant of an entry inserted at `inserted_at` whose
/// minimum record TTL was `ttl_s`.
constexpr SimTime tier_expiry(SimTime inserted_at, std::uint32_t ttl_s) {
  return inserted_at + static_cast<SimTime>(ttl_s) * kSecond;
}

/// Fresh while strictly before the expiry instant.
constexpr bool tier_fresh(SimTime inserted_at, std::uint32_t ttl_s,
                          SimTime now) {
  return now < tier_expiry(inserted_at, ttl_s);
}

/// RFC 8767 stale window: expired, but by less than `max_stale`.
constexpr bool tier_stale_within(SimTime inserted_at, std::uint32_t ttl_s,
                                 SimTime now, SimTime max_stale) {
  const SimTime expiry = tier_expiry(inserted_at, ttl_s);
  return now >= expiry && now - expiry < max_stale;
}

/// Uniform per-tier counters. `bytes` is the approximate payload footprint
/// of live entries (response images / RR names + rdata), maintained
/// incrementally so reading it is free.
struct TierStats {
  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;        ///< fresh + stale hits
  std::uint64_t stale_hits = 0;  ///< subset of hits served past expiry
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;   ///< capacity + expiry + stale-serve evictions
  std::uint64_t entries = 0;     ///< live entries right now
  std::uint64_t bytes = 0;       ///< approximate live payload bytes
};

/// What every member of the hierarchy exposes to the engine's stats plumbing.
template <typename T>
concept CacheTier = requires(const T& tier) {
  { tier.tier_stats() } -> std::convertible_to<TierStats>;
  { tier.size() } -> std::convertible_to<std::size_t>;
};

}  // namespace doxlab::dns
