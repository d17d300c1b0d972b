// Persistence tests for the append-log snapshot tier
// (dns/snapshot_tier.h): round-trip replay, the truncate-at-every-byte
// crash-recovery fuzz (any prefix of a valid log must replay to a clean
// prefix of the inserted entries and accept appends afterwards),
// supersede-on-rewrite, compaction, absolute expiry, foreign-file
// rejection (the previous DOXSNAP1 format included), and frames whose
// stored TTL disagrees with their image.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "dns/cache_tier.h"
#include "dns/message.h"
#include "dns/response_image.h"
#include "dns/snapshot_tier.h"
#include "util/bytes.h"

namespace doxlab::dns {
namespace {

std::string temp_path(const std::string& file) {
  const std::string path = ::testing::TempDir() + file;
  std::remove(path.c_str());
  return path;
}

/// The forwarder's answer image for (name, A) with one A record.
ResponseImage a_records(const DnsName& name, std::uint32_t ttl,
                        std::uint32_t ipv4) {
  const ResourceRecord record = make_a(name, ttl, ipv4);
  return ResponseImage::answer_to(Question{name, RRType::kA, RRClass::kIN},
                                  {&record, 1});
}

/// The answer records of a hit's image.
std::vector<ResourceRecord> hit_records(const TierHit& hit) {
  const auto decoded = Message::decode(hit.image->wire());
  return decoded ? decoded->answers : std::vector<ResourceRecord>{};
}

DnsName numbered(int i) {
  return DnsName::parse("name" + std::to_string(i) + ".snap.example");
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::vector<std::uint8_t> data;
  std::FILE* in = std::fopen(path.c_str(), "rb");
  if (in == nullptr) return data;
  std::fseek(in, 0, SEEK_END);
  const long size = std::ftell(in);
  std::fseek(in, 0, SEEK_SET);
  if (size > 0) {
    data.resize(static_cast<std::size_t>(size));
    if (std::fread(data.data(), 1, data.size(), in) != data.size()) {
      data.clear();
    }
  }
  std::fclose(in);
  return data;
}

void write_file(const std::string& path,
                const std::vector<std::uint8_t>& data) {
  std::FILE* out = std::fopen(path.c_str(), "wb");
  ASSERT_NE(out, nullptr);
  if (!data.empty()) {
    ASSERT_EQ(std::fwrite(data.data(), 1, data.size(), out), data.size());
  }
  std::fclose(out);
}

TEST(SnapshotTier, RoundTripAcrossReopen) {
  const std::string path = temp_path("roundtrip.snap");
  {
    SnapshotTier tier({.path = path});
    for (int i = 0; i < 10; ++i) {
      tier.insert(numbered(i), RRType::kA,
                  a_records(numbered(i), 300, 0x0A000000u + i), kSecond);
    }
    tier.flush();
    EXPECT_EQ(tier.size(), 10u);
  }
  SnapshotTier reopened({.path = path});
  EXPECT_EQ(reopened.size(), 10u);
  EXPECT_EQ(reopened.replay_stats().frames_replayed, 10u);
  EXPECT_EQ(reopened.replay_stats().torn_dropped, 0u);
  EXPECT_EQ(reopened.replay_stats().skipped_bad, 0u);
  for (int i = 0; i < 10; ++i) {
    TierHit hit;
    ASSERT_TRUE(
        reopened.lookup(numbered(i), RRType::kA, 2 * kSecond, hit))
        << "name" << i;
    EXPECT_EQ(hit.image->min_ttl(), 300u);
    EXPECT_EQ(hit.age_s, 1u);
    EXPECT_FALSE(hit.stale);
    const std::vector<ResourceRecord> records = hit_records(hit);
    ASSERT_EQ(records.size(), 1u);
    EXPECT_EQ(records[0].rdata[3], static_cast<std::uint8_t>(i));
  }
}

/// The crash-recovery fuzz: write a log of N records, then for every
/// possible truncation length, replay must (a) not crash, (b) recover an
/// exact prefix of the inserted entries, and (c) leave a log that accepts
/// new appends which survive another reopen.
TEST(SnapshotTier, TruncateAtEveryByteReplaysAPrefix) {
  const std::string path = temp_path("fuzz.snap");
  constexpr int kRecords = 30;
  {
    SnapshotTier tier({.path = path});
    for (int i = 0; i < kRecords; ++i) {
      tier.insert(numbered(i), RRType::kA,
                  a_records(numbered(i), 120, 0x0A000000u + i), kSecond);
    }
    tier.flush();
  }
  const std::vector<std::uint8_t> full = read_file(path);
  ASSERT_GT(full.size(), 8u);

  const std::string fuzz = temp_path("fuzz-cut.snap");
  std::size_t prefix_sizes_seen = 0;
  for (std::size_t cut = 0; cut <= full.size(); ++cut) {
    write_file(fuzz, {full.begin(), full.begin() + cut});
    std::size_t replayed = 0;
    {
      SnapshotTier tier({.path = fuzz});
      replayed = tier.size();
      ASSERT_LE(replayed, static_cast<std::size_t>(kRecords));
      // Exactly the first `replayed` names are present: recovery is a
      // prefix, never a subset with holes.
      for (int i = 0; i < kRecords; ++i) {
        TierHit hit;
        const bool found =
            tier.lookup(numbered(i), RRType::kA, 2 * kSecond, hit);
        EXPECT_EQ(found, static_cast<std::size_t>(i) < replayed)
            << "cut=" << cut << " name" << i;
      }
      // The torn tail was truncated away; the log must accept an append.
      tier.insert(numbered(1000), RRType::kA,
                  a_records(numbered(1000), 60, 1), 2 * kSecond);
      tier.flush();
      EXPECT_EQ(tier.size(), replayed + 1);
    }
    SnapshotTier reopened({.path = fuzz});
    EXPECT_EQ(reopened.size(), replayed + 1) << "cut=" << cut;
    TierHit hit;
    EXPECT_TRUE(
        reopened.lookup(numbered(1000), RRType::kA, 3 * kSecond, hit))
        << "cut=" << cut;
    if (replayed == static_cast<std::size_t>(kRecords)) {
      ++prefix_sizes_seen;
    }
  }
  // Sanity: only the untruncated file (cut == full.size()) replays all
  // records — every other cut loses at least the final frame.
  EXPECT_EQ(prefix_sizes_seen, 1u);
}

TEST(SnapshotTier, RewriteSupersedesInsteadOfDuplicating) {
  const std::string path = temp_path("supersede.snap");
  const DnsName name = DnsName::parse("dup.snap.example");
  {
    SnapshotTier tier({.path = path});
    tier.insert(name, RRType::kA, a_records(name, 60, 1), kSecond);
    tier.insert(name, RRType::kA, a_records(name, 90, 2), 2 * kSecond);
    tier.flush();
    EXPECT_EQ(tier.size(), 1u);
  }
  SnapshotTier reopened({.path = path});
  EXPECT_EQ(reopened.size(), 1u);
  EXPECT_EQ(reopened.replay_stats().frames_replayed, 2u);
  EXPECT_EQ(reopened.replay_stats().superseded, 1u);
  TierHit hit;
  ASSERT_TRUE(reopened.lookup(name, RRType::kA, 3 * kSecond, hit));
  EXPECT_EQ(hit.image->min_ttl(), 90u);  // the later write won
  const std::vector<ResourceRecord> records = hit_records(hit);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rdata[3], 2);
}

TEST(SnapshotTier, CompactionShrinksLogAndSurvivesReopen) {
  const std::string path = temp_path("compact.snap");
  SnapshotConfig config;
  config.path = path;
  config.compact_min_bytes = 4096;
  SnapshotTier tier(config);
  const DnsName name = DnsName::parse("churny.snap.example");
  // Rewrite the same key until the dead-frame ratio trips the trigger.
  for (int i = 0; i < 200; ++i) {
    tier.insert(name, RRType::kA, a_records(name, 300, 0x0A000000u + i),
                kSecond + i);
  }
  EXPECT_GE(tier.compactions(), 1u);
  EXPECT_EQ(tier.size(), 1u);
  // Between automatic compactions the log re-accumulates dead frames, but
  // it never grows past the trigger floor plus one frame.
  EXPECT_LT(tier.log_bytes(), 4096u + 256u);
  // An explicit compaction rewrites the log down to the single live frame.
  tier.compact();
  EXPECT_LT(tier.log_bytes(), 256u);
  tier.flush();

  SnapshotTier reopened(config);
  EXPECT_EQ(reopened.size(), 1u);
  TierHit hit;
  ASSERT_TRUE(reopened.lookup(name, RRType::kA, 2 * kSecond, hit));
  const std::vector<ResourceRecord> records = hit_records(hit);
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].rdata[3], 199);  // last rewrite survived
}

TEST(SnapshotTier, AbsoluteExpiryJudgedAtLookup) {
  const std::string path = temp_path("expiry.snap");
  const DnsName name = DnsName::parse("old.snap.example");
  {
    SnapshotTier tier({.path = path});
    tier.insert(name, RRType::kA, a_records(name, 10, 1), kSecond);
    tier.flush();
  }
  // Reopen far past expiry: replay keeps the entry (expiry is judged at
  // lookup, not replay), the lookup misses and evicts it.
  SnapshotTier tier({.path = path});
  EXPECT_EQ(tier.size(), 1u);
  TierHit hit;
  EXPECT_FALSE(tier.lookup(name, RRType::kA, 30 * kSecond, hit));
  EXPECT_EQ(tier.size(), 0u);
  EXPECT_EQ(tier.tier_stats().evictions, 1u);

  // Same stamps with a stale window: an RFC 8767 stale hit instead.
  SnapshotTier stale_tier({.path = path});
  // The eviction above only touched the in-memory index; the log frame is
  // still there for a fresh replay.
  ASSERT_EQ(stale_tier.size(), 1u);
  ASSERT_TRUE(stale_tier.lookup(name, RRType::kA, 30 * kSecond, hit,
                                /*max_stale=*/60 * kSecond));
  EXPECT_TRUE(hit.stale);
  EXPECT_EQ(stale_tier.tier_stats().stale_hits, 1u);
}

/// Appends a checksum-valid frame for (name, A) stamped `inserted_at` that
/// claims `ttl_s`, whatever `image` carries.
void append_frame(std::vector<std::uint8_t>& log, const DnsName& name,
                  SimTime inserted_at, std::uint32_t ttl_s,
                  const ResponseImage& image) {
  ByteWriter payload;
  payload.u16(static_cast<std::uint16_t>(RRType::kA));
  payload.u64(static_cast<std::uint64_t>(inserted_at));
  payload.u32(ttl_s);
  payload.bytes(name.wire_labels());
  payload.u8(0);
  payload.bytes(image.wire());
  const std::vector<std::uint8_t> bytes = payload.take();
  std::uint32_t crc = 2166136261u;  // FNV-1a 32, the frame checksum
  for (const std::uint8_t b : bytes) crc = (crc ^ b) * 16777619u;
  ByteWriter frame;
  frame.u32(static_cast<std::uint32_t>(bytes.size()));
  frame.u32(crc);
  frame.bytes(bytes);
  const std::vector<std::uint8_t> framed = frame.take();
  log.insert(log.end(), framed.begin(), framed.end());
}

TEST(SnapshotTier, ReplayRejectsAStoredTtlTheImageDoesNotCarry) {
  // Frames are checksummed, not trusted: one claiming 3600 s over a 60 s
  // record would otherwise answer with TTL 0 as a fresh hit for an hour.
  const std::string path = temp_path("forged.snap");
  const DnsName forged = DnsName::parse("forged.snap.example");
  const DnsName honest = DnsName::parse("honest.snap.example");
  std::vector<std::uint8_t> log = {'D', 'O', 'X', 'S', 'N', 'A', 'P', '2'};
  append_frame(log, forged, 0, 3600, a_records(forged, 60, 1));
  append_frame(log, honest, 0, 60, a_records(honest, 60, 2));
  write_file(path, log);

  SnapshotTier tier({.path = path});
  EXPECT_EQ(tier.replay_stats().frames_replayed, 1u);
  EXPECT_EQ(tier.replay_stats().skipped_bad, 1u);
  EXPECT_EQ(tier.size(), 1u);
  TierHit hit;
  EXPECT_FALSE(tier.lookup(forged, RRType::kA, 120 * kSecond, hit));
  EXPECT_FALSE(tier.lookup(forged, RRType::kA, 1800 * kSecond, hit));
  ASSERT_TRUE(tier.lookup(honest, RRType::kA, 30 * kSecond, hit));
  EXPECT_FALSE(hit.stale);
  EXPECT_EQ(hit.age_s, 30u);
}

TEST(SnapshotTier, ForeignFileStartsFresh) {
  const std::string path = temp_path("foreign.snap");
  write_file(path, {'n', 'o', 't', ' ', 'a', ' ', 's', 'n', 'a', 'p'});
  SnapshotTier tier({.path = path});
  EXPECT_EQ(tier.size(), 0u);
  EXPECT_EQ(tier.replay_stats().torn_dropped, 1u);
  // The foreign content was replaced by a fresh log that works.
  const DnsName name = DnsName::parse("fresh.snap.example");
  tier.insert(name, RRType::kA, a_records(name, 60, 1), kSecond);
  tier.flush();
  SnapshotTier reopened({.path = path});
  EXPECT_EQ(reopened.size(), 1u);
}

TEST(SnapshotTier, PreviousFormatStartsFresh) {
  // A log written before frames carried response images: same framing,
  // older magic. It is a foreign file, so the tier starts a fresh log.
  const std::string path = temp_path("v1.snap");
  write_file(path, {'D', 'O', 'X', 'S', 'N', 'A', 'P', '1', 0, 0, 0, 1, 0, 0,
                    0, 0, 7});
  SnapshotTier tier({.path = path});
  EXPECT_EQ(tier.size(), 0u);
  EXPECT_EQ(tier.replay_stats().torn_dropped, 1u);
  const std::vector<std::uint8_t> fresh = read_file(path);
  ASSERT_EQ(fresh.size(), 8u);
  EXPECT_EQ(fresh[7], '2');
}

TEST(SnapshotTier, EmptyPathIsInert) {
  SnapshotTier tier(SnapshotConfig{});
  const DnsName name = DnsName::parse("inert.snap.example");
  tier.insert(name, RRType::kA, a_records(name, 60, 1), kSecond);
  TierHit hit;
  EXPECT_FALSE(tier.lookup(name, RRType::kA, kSecond, hit));
  EXPECT_EQ(tier.size(), 0u);
}

}  // namespace
}  // namespace doxlab::dns
