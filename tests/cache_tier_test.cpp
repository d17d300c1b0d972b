// Cross-tier semantics tests for the unified cache hierarchy
// (dns/cache_tier.h): every tier — record Cache, the engine's image L1,
// shared L2 packet cache, persistent snapshot tier — must age an entry
// against the same absolute clock, so the same RRset inserted everywhere
// at t0 reports the same remaining TTL from any tier at any later instant.
// Plus the `classify` table (expiry boundary, stale window, clock before
// the insert) and the counters the engine reads from each tier.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dns/cache.h"
#include "dns/cache_tier.h"
#include "dns/message.h"
#include "dns/packet_cache.h"
#include "dns/response_image.h"
#include "dns/snapshot_tier.h"
#include "dns/wire_cache.h"

namespace doxlab::dns {
namespace {

std::vector<ResourceRecord> a_records(const DnsName& name,
                                      std::uint32_t ttl) {
  return {make_a(name, ttl, 0x0A000001)};
}

/// The forwarder's answer image for (name, A) carrying `records`.
ResponseImage image_of(const DnsName& name,
                       const std::vector<ResourceRecord>& records) {
  return ResponseImage::answer_to(Question{name, RRType::kA, RRClass::kIN},
                                  records);
}

std::string temp_path(const std::string& file) {
  return ::testing::TempDir() + file;
}

/// The classify table: an entry stored at 5 s with a 30 s lifetime, probed
/// around its expiry instant and the end of its stale window. The record
/// cache's entry type must classify identically.
TEST(CacheTierHelpers, ExpiryBoundary) {
  const TierEntry entry{ResponseImage{}, 5 * kSecond, 30};
  const CacheEntry records{{}, 5 * kSecond, 30};
  const SimTime expiry = 35 * kSecond;
  const SimTime window = 10 * kSecond;
  struct Row {
    SimTime now;
    SimTime max_stale;
    bool hit;
    bool stale;
    std::uint32_t age_s;
  };
  const Row rows[] = {
      {expiry - 1, 0, true, false, 29},
      {expiry - 1, window, true, false, 29},
      {expiry, window, true, true, 30},  // the expiry instant is expired
      {expiry, 0, false, false, 0},
      {expiry + window - 1, window, true, true, 39},
      {expiry + window, window, false, false, 0},
      {4 * kSecond, 0, true, false, 0},  // clock before the insert
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(testing::Message() << "now " << row.now << " max_stale "
                                    << row.max_stale);
    const std::optional<TierHit> hit = classify(entry, row.now, row.max_stale);
    ASSERT_EQ(hit.has_value(), row.hit);
    const std::optional<TierHit> record_hit =
        classify(records, row.now, row.max_stale);
    ASSERT_EQ(record_hit.has_value(), row.hit);
    if (!row.hit) continue;
    EXPECT_EQ(hit->stale, row.stale);
    EXPECT_EQ(hit->age_s, row.age_s);
    EXPECT_EQ(hit->image, &entry.image);
    EXPECT_EQ(record_hit->stale, row.stale);
    EXPECT_EQ(record_hit->age_s, row.age_s);
  }
}

TEST(CacheTierHelpers, AgeAndDecayClamp) {
  const SimTime t0 = 10 * kSecond;
  EXPECT_EQ(tier_age_s(t0, t0), 0u);
  EXPECT_EQ(tier_age_s(t0, t0 - kSecond), 0u);  // clock before insert: 0
  EXPECT_EQ(tier_age_s(t0, t0 + 2 * kSecond + kSecond / 2), 2u);
  EXPECT_EQ(tier_decay_ttl(120, 45), 75u);
  EXPECT_EQ(tier_decay_ttl(120, 120), 0u);
  EXPECT_EQ(tier_decay_ttl(120, 500), 0u);  // clamped, never wraps
}

/// The tentpole invariant: one RRset (TTL 120) inserted into all four
/// tiers at t0 must report exactly 75 seconds remaining at t0 + 45 s from
/// every tier.
TEST(CacheTierCross, SameRemainingTtlFromEveryTier) {
  const DnsName name = DnsName::parse("xtier.example.com");
  const std::uint32_t ttl = 120;
  const SimTime t0 = kSecond;
  const SimTime later = t0 + 45 * kSecond;
  const std::uint32_t remaining = 75;
  const auto records = a_records(name, ttl);

  // L1.
  Cache l1;
  l1.insert(name, RRType::kA, records, t0);
  const auto l1_hit = l1.lookup(name, RRType::kA, later);
  ASSERT_TRUE(l1_hit.has_value());
  ASSERT_EQ(l1_hit->size(), 1u);
  EXPECT_EQ((*l1_hit)[0].ttl, remaining);

  // Shared L2 (insert is deferred; merge at a barrier sweep).
  SharedPacketCache l2(64, 1);
  l2.insert(0, name, RRType::kA, records, t0);
  l2.sweep(t0);
  PacketCacheHit l2_hit;
  ASSERT_TRUE(l2.lookup(0, name, RRType::kA, later, l2_hit));
  EXPECT_FALSE(l2_hit.stale);
  EXPECT_EQ(l2_hit.image->min_ttl() - l2_hit.age_s, remaining);

  // Image L1: patched answers carry the decayed TTL in-band.
  WireCache wire;
  wire.insert(name, RRType::kA, image_of(name, records), t0);
  const auto wire_hit = wire.lookup(name, RRType::kA, later);
  ASSERT_TRUE(wire_hit.has_value());
  EXPECT_FALSE(wire_hit->stale);
  const util::Buffer patched = wire_hit->image->answer(
      0x43, RRClass::kIN, TtlRewrite::decay(wire_hit->age_s));
  const auto materialized = Message::decode(patched);
  ASSERT_TRUE(materialized.has_value());
  ASSERT_EQ(materialized->answers.size(), 1u);
  EXPECT_EQ(materialized->answers[0].ttl, remaining);

  // Snapshot tier (persisted absolute stamps).
  SnapshotConfig snap_config;
  snap_config.path = temp_path("xtier.snap");
  std::remove(snap_config.path.c_str());
  SnapshotTier snapshot(snap_config);
  snapshot.insert(name, RRType::kA, image_of(name, records), t0);
  TierHit snap_hit;
  ASSERT_TRUE(snapshot.lookup(name, RRType::kA, later, snap_hit));
  EXPECT_FALSE(snap_hit.stale);
  EXPECT_EQ(snap_hit.image->min_ttl() - snap_hit.age_s, remaining);

  // And the persisted copy survives a restart with the same arithmetic.
  snapshot.flush();
  SnapshotTier reopened(snap_config);
  TierHit reopened_hit;
  ASSERT_TRUE(reopened.lookup(name, RRType::kA, later, reopened_hit));
  EXPECT_EQ(reopened_hit.image->min_ttl() - reopened_hit.age_s, remaining);
}

/// All tiers agree the entry is dead at the same instant too.
TEST(CacheTierCross, SameExpiryInstantEverywhere) {
  const DnsName name = DnsName::parse("expire.example.com");
  const std::uint32_t ttl = 10;
  const SimTime t0 = 2 * kSecond;
  const SimTime expiry = t0 + ttl * kSecond;
  const auto records = a_records(name, ttl);

  Cache l1;
  l1.insert(name, RRType::kA, records, t0);
  SharedPacketCache l2(64, 1);
  l2.insert(0, name, RRType::kA, records, t0);
  l2.sweep(t0);
  SnapshotConfig snap_config;
  snap_config.path = temp_path("cross-expiry.snap");
  std::remove(snap_config.path.c_str());
  SnapshotTier snapshot(snap_config);
  snapshot.insert(name, RRType::kA, image_of(name, records), t0);
  WireCache images;
  images.insert(name, RRType::kA, image_of(name, records), t0);

  EXPECT_TRUE(l1.lookup(name, RRType::kA, expiry - 1).has_value());
  EXPECT_TRUE(images.lookup(name, RRType::kA, expiry - 1).has_value());
  EXPECT_FALSE(images.lookup(name, RRType::kA, expiry).has_value());
  EXPECT_FALSE(l1.lookup(name, RRType::kA, expiry).has_value());
  PacketCacheHit l2_hit;
  EXPECT_TRUE(l2.lookup(0, name, RRType::kA, expiry - 1, l2_hit));
  EXPECT_FALSE(l2.lookup(0, name, RRType::kA, expiry, l2_hit));
  TierHit snap_hit;
  EXPECT_TRUE(snapshot.lookup(name, RRType::kA, expiry - 1, snap_hit));
  EXPECT_FALSE(snapshot.lookup(name, RRType::kA, expiry, snap_hit));
}

TEST(CacheTierL2, StaleLookupAndRetention) {
  const DnsName name = DnsName::parse("stale.example.com");
  const SimTime t0 = kSecond;
  SharedPacketCache l2(64, 1);
  l2.insert(0, name, RRType::kA, a_records(name, 1), t0);
  l2.sweep(t0);

  const SimTime expired_at = t0 + kSecond;
  PacketCacheHit hit;
  // Default lookup: expired is a miss.
  EXPECT_FALSE(l2.lookup(0, name, RRType::kA, expired_at + kSecond, hit));
  // Stale-window lookup serves it and marks it stale.
  ASSERT_TRUE(l2.lookup(0, name, RRType::kA, expired_at + kSecond, hit,
                        /*max_stale=*/10 * kSecond));
  EXPECT_TRUE(hit.stale);
  EXPECT_EQ(hit.image->min_ttl(), 1u);
  EXPECT_GE(l2.stats().stale_hits, 1u);

  // Without retention a barrier sweep reaps the expired entry...
  SharedPacketCache reaping(64, 1);
  reaping.insert(0, name, RRType::kA, a_records(name, 1), t0);
  reaping.sweep(t0);
  reaping.sweep(expired_at + kSecond);
  EXPECT_EQ(reaping.size(), 0u);
  // ...with retention it survives sweeps for the whole stale window.
  SharedPacketCache retaining(64, 1);
  retaining.set_stale_retention(10 * kSecond);
  retaining.insert(0, name, RRType::kA, a_records(name, 1), t0);
  retaining.sweep(t0);
  retaining.sweep(expired_at + kSecond);
  EXPECT_EQ(retaining.size(), 1u);
  retaining.sweep(expired_at + 11 * kSecond);
  EXPECT_EQ(retaining.size(), 0u);
}

TEST(CacheTierStats, CountersAreCoherent) {
  const DnsName name = DnsName::parse("stats.example.com");
  const SimTime t0 = kSecond;

  WireCache l1;
  l1.insert(name, RRType::kA, image_of(name, a_records(name, 60)), t0);
  (void)l1.lookup(name, RRType::kA, t0 + kSecond);                  // hit
  (void)l1.lookup(DnsName::parse("absent.example"), RRType::kA, t0);  // miss
  const TierStats l1_stats = l1.tier_stats();
  EXPECT_EQ(l1_stats.inserts, 1u);
  EXPECT_EQ(l1_stats.hits, 1u);
  EXPECT_EQ(l1_stats.lookups, 2u);
  EXPECT_EQ(l1_stats.entries, 1u);
  EXPECT_GT(l1_stats.bytes, 0u);

  SharedPacketCache l2(64, 1);
  l2.insert(0, name, RRType::kA, a_records(name, 60), t0);
  l2.sweep(t0);
  PacketCacheHit hit;
  (void)l2.lookup(0, name, RRType::kA, t0 + kSecond, hit);
  const SharedPacketCache::Stats l2_stats = l2.stats();
  EXPECT_EQ(l2_stats.applied_inserts, 1u);
  EXPECT_EQ(l2_stats.hits, 1u);
  EXPECT_EQ(l2_stats.size, 1u);
  EXPECT_GT(l2_stats.bytes, 0u);

  SnapshotConfig snap_config;
  snap_config.path = temp_path("stats.snap");
  std::remove(snap_config.path.c_str());
  SnapshotTier snapshot(snap_config);
  snapshot.insert(name, RRType::kA, image_of(name, a_records(name, 60)), t0);
  TierHit snap_hit;
  (void)snapshot.lookup(name, RRType::kA, t0 + kSecond, snap_hit);
  const TierStats snap_stats = snapshot.tier_stats();
  EXPECT_EQ(snap_stats.inserts, 1u);
  EXPECT_EQ(snap_stats.hits, 1u);
  EXPECT_EQ(snap_stats.lookups, 1u);
  EXPECT_EQ(snap_stats.entries, 1u);
  EXPECT_GT(snap_stats.bytes, 0u);
}

}  // namespace
}  // namespace doxlab::dns
