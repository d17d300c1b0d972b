// Tests for the engine's image L1 and the response images it stores: a hit
// patched out of an image must be byte-identical to freshly encoding the
// same response with the client's ID, class and decayed TTLs — across
// mixed-case qnames, multi-record answers and compression — and the L1
// and dns::Cache must make exactly the hit/miss/stale/eviction decisions of
// a reference LRU.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dns/cache.h"
#include "dns/message.h"
#include "dns/response_image.h"
#include "dns/wire_cache.h"
#include "util/rng.h"

namespace doxlab::dns {
namespace {

Message query_for(std::uint16_t id, const std::string& name,
                  RRType type = RRType::kA) {
  return make_query(id, DnsName::parse(name), type);
}

/// A multi-section response: CNAME chain + A answers, NS authority, OPT —
/// compression pointers everywhere past the first name.
Message rich_response(const Message& query) {
  Message response = make_response(query);
  const DnsName& qname = query.questions[0].name;
  const DnsName target = DnsName::parse("edge.cdn.example");
  response.answers.push_back(make_cname(qname, 300, target));
  response.answers.push_back(make_a(target, 60, 0x0A000001));
  response.answers.push_back(make_a(target, 60, 0x0A000002));
  response.authorities.push_back(
      make_cname(DnsName::parse("cdn.example"), 3600,
                 DnsName::parse("ns1.cdn.example")));
  response.additionals.push_back(make_opt(1232));
  return response;
}

/// What a hit of age `age_s` must produce: the stored response re-encoded
/// with the new ID and every record TTL decremented (clamped at 0), OPT
/// excluded. The codec is deterministic, so comparing encodings compares
/// layouts byte for byte.
std::vector<std::uint8_t> expect_patched(Message response, std::uint16_t id,
                                         std::uint32_t age_s) {
  response.id = id;
  for (auto* section :
       {&response.answers, &response.authorities, &response.additionals}) {
    for (ResourceRecord& rr : *section) {
      if (rr.type == RRType::kOPT) continue;
      rr.ttl = rr.ttl > age_s ? rr.ttl - age_s : 0;
    }
  }
  return response.encode();
}

/// An image of one A record for `name` with `ttl`.
ResponseImage a_image(const std::string& name, std::uint32_t ttl) {
  const DnsName qname = DnsName::parse(name);
  const ResourceRecord record = make_a(qname, ttl, 0x7F000001);
  return ResponseImage::answer_to(Question{qname, RRType::kA, RRClass::kIN},
                                  {&record, 1});
}

TEST(WireCacheTest, HitPatchesOnlyTheId) {
  WireCache cache;
  const Message query = query_for(0x1111, "www.example.com");
  const Message response = rich_response(query);
  cache.insert(query.questions[0].name, RRType::kA,
               ResponseImage::of(response), 0);

  const auto hit = cache.lookup(query.questions[0].name, RRType::kA, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->stale);
  EXPECT_EQ(hit->age_s, 0u);
  const util::Buffer patched =
      hit->image->answer(0x2222, RRClass::kIN, TtlRewrite::decay(0));
  EXPECT_TRUE(
      std::ranges::equal(patched.view(), expect_patched(response, 0x2222, 0)));
}

TEST(WireCacheTest, AgedHitDecrementsEveryNonOptTtl) {
  WireCache cache;
  const Message query = query_for(7, "www.example.com");
  const Message response = rich_response(query);
  cache.insert(query.questions[0].name, RRType::kA,
               ResponseImage::of(response), 0);

  // min TTL is 60 s, so 59 s in the entry is still fresh and every record
  // (300/60/60/3600) must have aged by exactly 59 — except the OPT, whose
  // TTL field carries flags, never a lifetime.
  const auto hit =
      cache.lookup(query.questions[0].name, RRType::kA, 59 * kSecond);
  ASSERT_TRUE(hit.has_value());
  EXPECT_FALSE(hit->stale);
  EXPECT_EQ(hit->age_s, 59u);
  const util::Buffer patched =
      hit->image->answer(0xBEEF, RRClass::kIN, TtlRewrite::decay(59));
  EXPECT_TRUE(
      std::ranges::equal(patched.view(), expect_patched(response, 0xBEEF, 59)));

  // And the patched image must still decode: TTLs visible to a client.
  const auto decoded = Message::decode(patched.view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 0xBEEF);
  EXPECT_EQ(decoded->answers[0].ttl, 300u - 59u);
  EXPECT_EQ(decoded->answers[1].ttl, 1u);
  EXPECT_EQ(decoded->authorities[0].ttl, 3600u - 59u);
}

TEST(WireCacheTest, QnameCaseFoldsIntoTheSameKey) {
  WireCache cache;
  const Message query = query_for(1, "www.example.com");
  cache.insert(query.questions[0].name, RRType::kA,
               ResponseImage::of(rich_response(query)), 0);

  // The key is the scanned question, whose name reads lower-cased.
  const auto wire = query_for(2, "WWW.ExAmPlE.CoM").encode();
  MessageHead head;
  DnsName name;
  ASSERT_TRUE(scan_message(wire, head));
  ASSERT_TRUE(read_question_name(wire, name));
  const auto hit = cache.lookup(name, head.qtype, 0);
  ASSERT_TRUE(hit.has_value());
  // The patched answer carries the stored response bytes — including the
  // lower-case qname — with only the ID swapped.
  const auto decoded = Message::decode(
      hit->image->answer(head.id, head.qclass, TtlRewrite::decay(0)).view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 2);
  EXPECT_EQ(decoded->questions[0].name.to_string(), "www.example.com");
}

TEST(WireCacheTest, DifferentQtypeIsADifferentKey) {
  WireCache cache;
  const Message query = query_for(1, "www.example.com", RRType::kA);
  cache.insert(query.questions[0].name, RRType::kA,
               ResponseImage::of(rich_response(query)), 0);
  EXPECT_FALSE(
      cache.lookup(query.questions[0].name, RRType::kAAAA, 0).has_value());
}

TEST(WireCacheTest, RefusesQueriesTheFastPathCannotKey) {
  // The L1 is keyed by the scanned question: a truncated header never
  // scans, and a message with QR set scans as a response, which the engine
  // drops before any lookup.
  MessageHead head;
  const std::vector<std::uint8_t> stub = {0, 1, 2};
  EXPECT_FALSE(scan_message(stub, head));
  auto wire = query_for(1, "a.example").encode();
  wire[2] |= 0x80;
  ASSERT_TRUE(scan_message(wire, head));
  EXPECT_TRUE(head.qr());
}

TEST(WireCacheTest, ParseQuestionMatchesFullDecode) {
  const Message query = query_for(9, "WwW.Example.COM", RRType::kAAAA);
  const auto wire = query.encode();
  MessageHead head;
  ASSERT_TRUE(scan_message(wire, head));
  Question question{DnsName{}, head.qtype, head.qclass};
  ASSERT_TRUE(read_question_name(wire, question.name));
  EXPECT_EQ(question, query.questions[0]);
  EXPECT_EQ(head.id, 9);
  EXPECT_FALSE(head.qr());
  EXPECT_FALSE(scan_message(std::span(wire).first(11), head));
}

TEST(WireCacheTest, ScanTtlOffsetsFindsEveryRecord) {
  const Message response = rich_response(query_for(1, "www.example.com"));
  const ResponseImage image = ResponseImage::of(response);
  EXPECT_EQ(image.ttl_count(), 4u);  // 3 answers + 1 authority; OPT excluded
  EXPECT_EQ(image.min_ttl(), 60u);
  // Stamping rewrites exactly those four TTL fields.
  Message expected = response;
  expected.id = 5;
  for (auto* section : {&expected.answers, &expected.authorities}) {
    for (ResourceRecord& rr : *section) rr.ttl = 17;
  }
  EXPECT_TRUE(std::ranges::equal(
      image.answer(5, RRClass::kIN, TtlRewrite::stamp(17)).view(),
      expected.encode()));
}

TEST(WireCacheTest, ClassIsPatchedFromTheQuery) {
  const Message query = query_for(1, "www.example.com");
  Message response = rich_response(query);
  const ResponseImage image = ResponseImage::of(response);
  response.id = 3;
  response.questions[0].klass = RRClass::kANY;
  EXPECT_TRUE(std::ranges::equal(
      image.answer(3, RRClass::kANY, TtlRewrite::decay(0)).view(),
      response.encode()));
}

TEST(WireCacheTest, StaleHitStampsTtlAndKeepsTheEntry) {
  WireCache cache;
  const DnsName name = DnsName::parse("a.example");
  cache.insert(name, RRType::kA, a_image("a.example", 5), 0);

  EXPECT_FALSE(cache.lookup(name, RRType::kA, 5 * kSecond).has_value());
  for (int i = 0; i < 2; ++i) {
    // Inside the stale window the entry serves stale — as often as asked,
    // exactly like dns::Cache: refreshing is the caller's job.
    const auto hit =
        cache.lookup(name, RRType::kA, 30 * kSecond, 60 * kSecond);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->stale);
    const auto decoded = Message::decode(
        hit->image->answer(3, RRClass::kIN, TtlRewrite::stamp(7)).view());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->answers[0].ttl, 7u);
  }
  EXPECT_EQ(cache.size(), 1u);
  // At exactly the end of the window it is a miss, still not evicted.
  EXPECT_FALSE(
      cache.lookup(name, RRType::kA, 65 * kSecond, 60 * kSecond).has_value());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.tier_stats().stale_hits, 2u);
}

TEST(WireCacheTest, NegativeEntryLivesSixtySeconds) {
  WireCache cache;
  const DnsName name = DnsName::parse("nx.example");
  cache.insert(name, RRType::kA,
               ResponseImage::answer_to(
                   Question{name, RRType::kA, RRClass::kIN}, {}),
               0);
  EXPECT_TRUE(cache.lookup(name, RRType::kA, 59 * kSecond).has_value());
  EXPECT_FALSE(cache.lookup(name, RRType::kA, 60 * kSecond).has_value());
}

TEST(WireCacheTest, LruEvictsLeastRecentlyUsedAtCapacity) {
  WireCache cache(2);
  const DnsName a = DnsName::parse("a.example");
  const DnsName b = DnsName::parse("b.example");
  const DnsName c = DnsName::parse("c.example");
  cache.insert(a, RRType::kA, a_image("a.example", 300), 0);
  cache.insert(b, RRType::kA, a_image("b.example", 300), 0);
  ASSERT_TRUE(cache.lookup(a, RRType::kA, 0).has_value());  // touch a
  cache.insert(c, RRType::kA, a_image("c.example", 300), 0);  // evicts b
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.lookup(b, RRType::kA, 0).has_value());
  // Replacing a touches it, so c is now the eviction victim.
  cache.insert(a, RRType::kA, a_image("a.example", 300), 0);
  cache.insert(b, RRType::kA, a_image("b.example", 300), 0);
  EXPECT_TRUE(cache.lookup(a, RRType::kA, 0).has_value());
  EXPECT_FALSE(cache.lookup(c, RRType::kA, 0).has_value());
}

/// The reference both LRU caches must match, written the obvious way: a
/// map from (name, type) to when the entry was stored and how long it
/// lives, plus a recency list with the most recent key first.
class ReferenceLru {
 public:
  using Key = std::pair<std::string, RRType>;
  struct Hit {
    std::uint32_t age_s;
    bool stale;
  };

  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  void insert(const Key& key, std::uint32_t ttl_s, SimTime now) {
    ++inserts;
    if (!entries_.contains(key) && entries_.size() == capacity_) {
      entries_.erase(recency_.back());
      recency_.pop_back();
      ++evictions;
    }
    entries_[key] = Stamp{now, ttl_s};
    touch(key);
  }

  /// A hit is fresh before the expiry instant and stale for `max_stale`
  /// after it; hits are touched, misses are not.
  std::optional<Hit> lookup(const Key& key, SimTime now, SimTime max_stale) {
    ++lookups;
    const auto it = entries_.find(key);
    if (it == entries_.end()) return std::nullopt;
    const SimTime expiry =
        it->second.inserted_at + SimTime{it->second.ttl_s} * kSecond;
    const bool stale = now >= expiry;
    if (stale && now >= expiry + max_stale) return std::nullopt;
    ++hits;
    if (stale) ++stale_hits;
    touch(key);
    return Hit{static_cast<std::uint32_t>(
                   (now - it->second.inserted_at) / kSecond),
               stale};
  }

  std::size_t size() const { return entries_.size(); }

  std::uint64_t lookups = 0;
  std::uint64_t hits = 0;
  std::uint64_t stale_hits = 0;
  std::uint64_t inserts = 0;
  std::uint64_t evictions = 0;

 private:
  struct Stamp {
    SimTime inserted_at;
    std::uint32_t ttl_s;
  };

  void touch(const Key& key) {
    recency_.remove(key);
    recency_.push_front(key);
  }

  std::size_t capacity_;
  std::map<Key, Stamp> entries_;
  std::list<Key> recency_;
};

/// The image L1 driven by a random operation stream must make every hit,
/// miss, stale hit, age and eviction decision the reference makes — the
/// contract that keeps the engine's event streams unchanged. The record
/// cache, which serves no stale, replays the stream's fresh lookups
/// against a second reference.
TEST(WireCacheTest, MatchesRecordCacheDecisions) {
  constexpr std::size_t kCapacity = 8;
  constexpr SimTime kMaxStale = 20 * kSecond;
  WireCache images(kCapacity);
  ReferenceLru image_model(kCapacity);
  Cache records;
  records.set_capacity(kCapacity);
  ReferenceLru record_model(kCapacity);
  Rng rng(2024);
  SimTime now = 0;
  for (int op = 0; op < 20000; ++op) {
    now += static_cast<SimTime>(rng.uniform_int(0, 3000)) * kMillisecond;
    const std::string text = "n" + std::to_string(rng.uniform_int(0, 15)) +
                             ".example";
    const DnsName name = DnsName::parse(text);
    const RRType type = rng.uniform_int(0, 3) == 0 ? RRType::kAAAA
                                                   : RRType::kA;
    const ReferenceLru::Key key{text, type};
    if (rng.uniform_int(0, 2) == 0) {
      std::vector<ResourceRecord> rrs;
      std::uint32_t ttl_s = kNegativeTtlSeconds;
      const int count = static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < count; ++i) {
        rrs.push_back(make_a(name,
                             static_cast<std::uint32_t>(
                                 rng.uniform_int(0, 30)),
                             static_cast<std::uint32_t>(i)));
        ttl_s = i == 0 ? rrs.back().ttl : std::min(ttl_s, rrs.back().ttl);
      }
      images.insert(name, type,
                    ResponseImage::answer_to(
                        Question{name, type, RRClass::kIN}, rrs),
                    now);
      image_model.insert(key, ttl_s, now);
      records.insert(name, type, std::move(rrs), now);
      record_model.insert(key, ttl_s, now);
    } else {
      const SimTime max_stale = rng.uniform_int(0, 1) == 0 ? 0 : kMaxStale;
      const auto expected = image_model.lookup(key, now, max_stale);
      const auto actual = images.lookup(name, type, now, max_stale);
      ASSERT_EQ(expected.has_value(), actual.has_value()) << "op " << op;
      if (expected) {
        EXPECT_EQ(expected->stale, actual->stale) << "op " << op;
        EXPECT_EQ(expected->age_s, actual->age_s) << "op " << op;
      }
      if (max_stale == 0) {
        const auto expected_record = record_model.lookup(key, now, 0);
        const auto actual_record = records.lookup_ref(name, type, now);
        ASSERT_EQ(expected_record.has_value(), actual_record.has_value())
            << "op " << op;
        if (expected_record) {
          EXPECT_EQ(expected_record->age_s, actual_record->age_s)
              << "op " << op;
        }
      }
    }
    ASSERT_EQ(image_model.size(), images.size()) << "op " << op;
    ASSERT_EQ(record_model.size(), records.size()) << "op " << op;
  }
  const TierStats stats = images.tier_stats();
  EXPECT_EQ(stats.lookups, image_model.lookups);
  EXPECT_EQ(stats.hits, image_model.hits);
  EXPECT_EQ(stats.stale_hits, image_model.stale_hits);
  EXPECT_EQ(stats.inserts, image_model.inserts);
  EXPECT_EQ(images.evictions(), image_model.evictions);
  EXPECT_EQ(records.evictions(), record_model.evictions);
  EXPECT_GT(images.evictions(), 0u);
  EXPECT_GT(stats.stale_hits, 0u);
}

TEST(ResponseImageTest, AdoptZeroesTheIdAndRejectsMalformedBytes) {
  Message response = rich_response(query_for(0x4242, "www.example.com"));
  const auto wire = response.encode();
  const ResponseImage image = ResponseImage::adopt(wire);
  ASSERT_FALSE(image.empty());
  EXPECT_EQ(image.wire()[0], 0);
  EXPECT_EQ(image.wire()[1], 0);
  EXPECT_TRUE(std::ranges::equal(image.wire().subspan(2),
                                 std::span(wire).subspan(2)));
  // Truncated, or not exactly one question.
  EXPECT_TRUE(
      ResponseImage::adopt(std::span(wire).first(wire.size() - 3)).empty());
  response.questions.push_back(response.questions[0]);
  EXPECT_TRUE(ResponseImage::adopt(response.encode()).empty());
}

TEST(ResponseImageTest, DecayedBuildsANewImage) {
  const ResponseImage image = a_image("a.example", 300);
  const ResponseImage older = image.decayed(100);
  EXPECT_EQ(older.min_ttl(), 200u);
  EXPECT_EQ(image.min_ttl(), 300u);  // the original is never patched
  const auto decoded = Message::decode(
      older.answer(1, RRClass::kIN, TtlRewrite::decay(0)).view());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->answers[0].ttl, 200u);
  EXPECT_TRUE(older.wire().data() != image.wire().data());
  EXPECT_TRUE(image.decayed(0).wire().data() == image.wire().data());
}

}  // namespace
}  // namespace doxlab::dns
