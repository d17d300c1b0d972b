// Unit tests for the shared L2 packet cache (dns/packet_cache.h): deferred
// lane inserts, the epoch sweep merge, the try-lock miss fallback, TTL
// expiry, the capacity bound, and the answer images it stores.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "dns/packet_cache.h"

namespace doxlab::dns {
namespace {

ResourceRecord cname(const char* owner, const char* target) {
  ResourceRecord record;
  record.name = DnsName::parse(owner);
  record.type = RRType::kCNAME;
  record.ttl = 300;
  const DnsName target_name = DnsName::parse(target);
  const auto wire = target_name.wire_labels();
  record.rdata.assign(wire.begin(), wire.end());
  record.rdata.push_back(0);  // root terminator
  return record;
}

TEST(SharedPacketCache, DeferredInsertInvisibleUntilSweep) {
  SharedPacketCache cache(64, 2);
  const DnsName name = DnsName::parse("www.example.com");
  const std::vector<ResourceRecord> records = {
      make_a(name, 60, 0x0A000001)};

  cache.insert(0, name, RRType::kA, records, 0);
  PacketCacheHit hit;
  EXPECT_FALSE(cache.lookup(0, name, RRType::kA, 0, hit));
  EXPECT_FALSE(cache.lookup(1, name, RRType::kA, 0, hit));

  auto stats = cache.stats();
  EXPECT_EQ(stats.deferred_inserts, 1u);
  EXPECT_EQ(stats.applied_inserts, 0u);
  EXPECT_EQ(stats.size, 0u);

  cache.sweep(0);
  // Visible to every shard after the merge, not just the inserter.
  EXPECT_TRUE(cache.lookup(1, name, RRType::kA, 0, hit));
  EXPECT_EQ(hit.image->min_ttl(), 60u);
  EXPECT_EQ(hit.age_s, 0u);

  stats = cache.stats();
  EXPECT_EQ(stats.applied_inserts, 1u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
}

TEST(SharedPacketCache, TableGrowsOnlyInSweepAndHitsStayValidUntilIt) {
  SharedPacketCache cache(0, 2);
  EXPECT_EQ(cache.slot_capacity(), 0u);  // construction reserves nothing
  const DnsName first = DnsName::parse("first.example.com");
  cache.insert(0, first, RRType::kA,
               std::vector<ResourceRecord>{make_a(first, 300, 0x0A000001)}, 0);
  EXPECT_EQ(cache.slot_capacity(), 0u);  // parked on a lane
  cache.sweep(0);
  const std::size_t slots = cache.slot_capacity();
  EXPECT_GT(slots, 0u);

  PacketCacheHit hit;
  ASSERT_TRUE(cache.lookup(1, first, RRType::kA, 0, hit));
  const ResponseImage* image = hit.image;
  const std::vector<std::uint8_t> bytes(image->wire().begin(),
                                        image->wire().end());
  // A thousand inserts and lookups between two sweeps: the inserts park on
  // the lanes, so neither the table nor the node behind the hit moves.
  for (int i = 0; i < 1000; ++i) {
    std::string text = "n";
    text += std::to_string(i);
    const DnsName name = DnsName::parse(text + ".example.com");
    cache.insert(static_cast<std::uint32_t>(i % 2), name, RRType::kA,
                 std::vector<ResourceRecord>{make_a(name, 300, 0x0A000002)},
                 0);
    PacketCacheHit other;
    EXPECT_FALSE(cache.lookup(0, name, RRType::kA, 0, other));
    ASSERT_TRUE(cache.lookup(1, first, RRType::kA, 0, other));
    EXPECT_EQ(other.image, image);
  }
  EXPECT_EQ(cache.slot_capacity(), slots);
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), image->wire().begin(),
                         image->wire().end()));
  // The next sweep merges them, and is where the table grows.
  cache.sweep(0);
  EXPECT_EQ(cache.size(), 1001u);
  EXPECT_GE(cache.slot_capacity(), 2 * cache.size());
}

TEST(SharedPacketCache, HitAgesAndDecodes) {
  SharedPacketCache cache(64, 1);
  const DnsName name = DnsName::parse("aged.example.com");
  const std::vector<ResourceRecord> records = {
      make_a(name, 60, 0x0A000001), make_a(name, 90, 0x0A000002)};

  cache.insert(0, name, RRType::kA, records, 0);
  cache.sweep(0);

  PacketCacheHit hit;
  ASSERT_TRUE(cache.lookup(0, name, RRType::kA, 10 * kSecond, hit));
  EXPECT_EQ(hit.image->min_ttl(), 60u);  // minimum record TTL
  EXPECT_EQ(hit.age_s, 10u);

  // The entry is the forwarder's answer image for (name, A, IN).
  const auto decoded = Message::decode(hit.image->wire());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->questions[0].name, name);
  EXPECT_EQ(decoded->answers, records);
}

TEST(SharedPacketCache, EncodeDecodeRoundtripsCnameChain) {
  // Chains need every record's owner name intact, not just the question's.
  const std::vector<ResourceRecord> records = {
      cname("www.example.com", "cdn.example.net"),
      make_a(DnsName::parse("cdn.example.net"), 30, 0x0A000003)};
  const ResponseImage image = ResponseImage::answer_to(
      Question{records[0].name, RRType::kA, RRClass::kIN}, records);
  EXPECT_EQ(image.ttl_count(), 2u);
  EXPECT_EQ(image.min_ttl(), 30u);

  const auto decoded = Message::decode(image.wire());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->answers, records);
}

TEST(SharedPacketCache, DecodeRejectsTruncatedWire) {
  const DnsName name = DnsName::parse("x.example.com");
  const ResourceRecord record = make_a(name, 60, 1);
  const ResponseImage image = ResponseImage::answer_to(
      Question{name, RRType::kA, RRClass::kIN}, {&record, 1});
  const auto wire = image.wire();
  EXPECT_FALSE(ResponseImage::adopt(wire).empty());
  EXPECT_TRUE(ResponseImage::adopt(wire.first(wire.size() - 3)).empty());
}

TEST(SharedPacketCache, ExpiredEntryMissesThenSweepReaps) {
  SharedPacketCache cache(64, 1);
  const DnsName name = DnsName::parse("ttl.example.com");
  cache.insert(0, name, RRType::kA, std::vector<ResourceRecord>{make_a(name, 5, 1)}, 0);
  cache.sweep(0);

  PacketCacheHit hit;
  EXPECT_TRUE(cache.lookup(0, name, RRType::kA, 5 * kSecond - 1, hit));
  // At exactly TTL the entry is dead; the reader reports a miss but leaves
  // the reaping to the next sweep.
  EXPECT_FALSE(cache.lookup(0, name, RRType::kA, 5 * kSecond, hit));
  EXPECT_EQ(cache.size(), 1u);

  cache.sweep(5 * kSecond);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().expired_evicted, 1u);
}

TEST(SharedPacketCache, CapacityRejectsNewKeysButReplacesExisting) {
  SharedPacketCache cache(2, 1);
  const DnsName a = DnsName::parse("a.example.com");
  const DnsName b = DnsName::parse("b.example.com");
  const DnsName c = DnsName::parse("c.example.com");
  cache.insert(0, a, RRType::kA, std::vector<ResourceRecord>{make_a(a, 60, 1)}, 0);
  cache.insert(0, b, RRType::kA, std::vector<ResourceRecord>{make_a(b, 60, 2)}, 0);
  cache.insert(0, c, RRType::kA, std::vector<ResourceRecord>{make_a(c, 60, 3)}, 0);
  cache.sweep(0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().rejected_capacity, 1u);

  // Replacing a resident key is always allowed at the bound.
  cache.insert(0, a, RRType::kA, std::vector<ResourceRecord>{make_a(a, 120, 4)}, kSecond);
  cache.sweep(kSecond);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().replaced, 1u);
  PacketCacheHit hit;
  ASSERT_TRUE(cache.lookup(0, a, RRType::kA, kSecond, hit));
  EXPECT_EQ(hit.image->min_ttl(), 120u);
}

TEST(SharedPacketCache, LaterShardLaneWinsTheMerge) {
  // Lanes merge in shard-index order, so the highest shard's insert is the
  // survivor — deterministic no matter which thread ran first.
  SharedPacketCache cache(64, 3);
  const DnsName name = DnsName::parse("dup.example.com");
  cache.insert(2, name, RRType::kA, std::vector<ResourceRecord>{make_a(name, 20, 2)}, 0);
  cache.insert(0, name, RRType::kA, std::vector<ResourceRecord>{make_a(name, 10, 1)}, 0);
  cache.sweep(0);

  PacketCacheHit hit;
  ASSERT_TRUE(cache.lookup(0, name, RRType::kA, 0, hit));
  EXPECT_EQ(hit.image->min_ttl(), 20u);
  EXPECT_EQ(cache.stats().replaced, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(SharedPacketCache, EmptyAndZeroTtlRecordSetsAreNotCached) {
  SharedPacketCache cache(64, 1);
  const DnsName name = DnsName::parse("skip.example.com");
  cache.insert(0, name, RRType::kA, std::span<const ResourceRecord>(), 0);
  cache.insert(0, name, RRType::kA, std::vector<ResourceRecord>{make_a(name, 0, 1)}, 0);
  EXPECT_EQ(cache.stats().deferred_inserts, 0u);
  cache.sweep(0);
  EXPECT_EQ(cache.size(), 0u);
}

TEST(SharedPacketCache, ContendedTryLockFallsBackToMiss) {
  SharedPacketCache cache(64, 1);
  const DnsName name = DnsName::parse("locked.example.com");
  cache.insert(0, name, RRType::kA, std::vector<ResourceRecord>{make_a(name, 60, 1)}, 0);
  cache.sweep(0);

  bool found = true;
  {
    auto guard = cache.lock_for_testing();
    // The reader must not block behind the held mutex: it reports a miss
    // and counts the contention instead.
    std::thread reader([&] {
      PacketCacheHit hit;
      found = cache.lookup(0, name, RRType::kA, 0, hit);
    });
    reader.join();
  }
  EXPECT_FALSE(found);
  auto stats = cache.stats();
  EXPECT_EQ(stats.lock_misses, 1u);
  EXPECT_EQ(stats.misses, 1u);

  // With the lock free again the same lookup hits.
  PacketCacheHit hit;
  EXPECT_TRUE(cache.lookup(0, name, RRType::kA, 0, hit));
}

TEST(SharedPacketCache, SharedReadersDoNotExcludeEachOther) {
  SharedPacketCache cache(64, 2);
  const DnsName name = DnsName::parse("shared.example.com");
  cache.insert(0, name, RRType::kA,
               std::vector<ResourceRecord>{make_a(name, 60, 1)}, 0);
  cache.sweep(0);

  // While one reader holds the lock shared, another shard's lookup must
  // still hit: readers contend only with the (barrier-time) exclusive
  // sweep, never with each other — L2 hit/miss outcomes cannot depend on
  // how the OS scheduled concurrent lookups.
  bool found = false;
  {
    auto guard = cache.lock_shared_for_testing();
    std::thread reader([&] {
      PacketCacheHit hit;
      found = cache.lookup(1, name, RRType::kA, 0, hit);
    });
    reader.join();
  }
  EXPECT_TRUE(found);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.lock_misses, 0u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(SharedPacketCache, ConcurrentShardReadersAndLaneWriters) {
  // One thread per shard doing interleaved lookups and lane inserts while
  // the table is epoch-frozen — the exact engine contract. Run under TSan
  // this pins the lanes' independence and the shared buffers' refcounts.
  constexpr std::uint32_t kShards = 4;
  constexpr int kNamesPerShard = 50;
  SharedPacketCache cache(1024, kShards);

  const DnsName hot = DnsName::parse("hot.example.com");
  cache.insert(0, hot, RRType::kA, std::vector<ResourceRecord>{make_a(hot, 600, 7)}, 0);
  cache.sweep(0);

  std::vector<std::uint64_t> hits(kShards, 0);
  std::vector<std::thread> threads;
  for (std::uint32_t shard = 0; shard < kShards; ++shard) {
    threads.emplace_back([&, shard] {
      for (int i = 0; i < kNamesPerShard; ++i) {
        const DnsName name = DnsName::parse(
            "n" + std::to_string(i) + "-s" + std::to_string(shard) +
            ".example.com");
        cache.insert(shard, name, RRType::kA,
                     std::vector<ResourceRecord>{
                         make_a(name, 60, shard * 1000 + i)},
                     0);
        PacketCacheHit hit;
        if (cache.lookup(shard, hot, RRType::kA, 0, hit)) {
          // Keep the image, as the engine's promotion does: a refcounted
          // handle to the shared slab, taken on this thread.
          const ResponseImage kept = *hit.image;
          ++hits[shard];
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  cache.sweep(0);
  const auto stats = cache.stats();
  EXPECT_EQ(stats.deferred_inserts, kShards * kNamesPerShard + 1u);
  EXPECT_EQ(stats.applied_inserts, kShards * kNamesPerShard + 1u);
  EXPECT_EQ(cache.size(), kShards * kNamesPerShard + 1u);
  // Epoch-frozen table: not a single reader may have been turned away.
  std::uint64_t total_hits = 0;
  for (const auto h : hits) total_hits += h;
  EXPECT_EQ(total_hits, kShards * kNamesPerShard);
  EXPECT_EQ(stats.lock_misses, 0u);
}

}  // namespace
}  // namespace doxlab::dns
