// Unit tests for the DNS wire codec: names, compression, messages, EDNS0,
// cache — including the byte-size anchors the paper's Table 1 relies on.
#include <gtest/gtest.h>

#include <cstring>

#include "dns/cache.h"
#include "dns/message.h"
#include "dns/name.h"
#include "dns/types.h"

namespace doxlab::dns {
namespace {

TEST(DnsName, ParseBasics) {
  DnsName n = DnsName::parse("WWW.Google.COM");
  EXPECT_EQ(n.to_string(), "www.google.com");
  ASSERT_EQ(n.labels().size(), 3u);
  EXPECT_EQ(n.labels()[0], "www");
}

TEST(DnsName, TrailingDotAndRoot) {
  EXPECT_EQ(DnsName::parse("google.com.").to_string(), "google.com");
  EXPECT_TRUE(DnsName::parse(".").is_root());
  EXPECT_TRUE(DnsName::parse("").is_root());
  EXPECT_EQ(DnsName::root().to_string(), ".");
}

TEST(DnsName, RejectsInvalid) {
  EXPECT_THROW(DnsName::parse("a..b"), std::invalid_argument);
  EXPECT_THROW(DnsName::parse(std::string(64, 'a') + ".com"),
               std::invalid_argument);
  std::string too_long;
  for (int i = 0; i < 50; ++i) too_long += "abcdef.";
  too_long += "com";
  EXPECT_THROW(DnsName::parse(too_long), std::invalid_argument);
}

TEST(DnsName, WireLength) {
  // google.com = 1+6 + 1+3 + 1 = 12
  EXPECT_EQ(DnsName::parse("google.com").wire_length(), 12u);
  EXPECT_EQ(DnsName::root().wire_length(), 1u);
}

TEST(DnsName, SubdomainAndParent) {
  DnsName www = DnsName::parse("www.google.com");
  DnsName google = DnsName::parse("google.com");
  EXPECT_TRUE(www.is_subdomain_of(google));
  EXPECT_TRUE(google.is_subdomain_of(google));
  EXPECT_FALSE(google.is_subdomain_of(www));
  EXPECT_EQ(www.parent(), google);
}

TEST(DnsName, HasSuffixWalksLabelBoundaries) {
  const DnsName name = DnsName::parse("a.b.flood.example");
  EXPECT_TRUE(name.has_suffix(DnsName::parse("flood.example")));
  EXPECT_TRUE(name.has_suffix(DnsName::parse("b.flood.example")));
  EXPECT_TRUE(name.has_suffix(DnsName::parse("example")));
  EXPECT_TRUE(name.has_suffix(name));  // a name is its own suffix
  EXPECT_FALSE(name.has_suffix(DnsName::parse("x.flood.example")));
  // A textual suffix that is not a label suffix must not match: the "ood"
  // tail of the "flood" label is inside a label, not at a boundary.
  EXPECT_FALSE(name.has_suffix(DnsName::parse("ood.example")));
  // Longer than the name: never a suffix.
  EXPECT_FALSE(DnsName::parse("example")
                   .has_suffix(DnsName::parse("flood.example")));
}

TEST(DnsName, HasSuffixCaseInsensitiveByConstruction) {
  // Wire storage is lowercased at parse, so differently-cased spellings
  // compare equal label-for-label (RFC 1035 case-insensitive matching).
  EXPECT_TRUE(DnsName::parse("WWW.Flood.EXAMPLE")
                  .has_suffix(DnsName::parse("flood.example")));
  EXPECT_TRUE(DnsName::parse("www.flood.example")
                  .has_suffix(DnsName::parse("FLOOD.example")));
}

TEST(DnsName, HasSuffixRootEdges) {
  // The root is a suffix of every name, including itself.
  EXPECT_TRUE(DnsName::parse("a.example").has_suffix(DnsName::root()));
  EXPECT_TRUE(DnsName::root().has_suffix(DnsName::root()));
  EXPECT_FALSE(DnsName::root().has_suffix(DnsName::parse("example")));
}

TEST(DnsName, CompressionSharesSuffixes) {
  // Written names must outlive the compressor (it keys on views into
  // their label storage), so bind them to locals.
  const DnsName google = DnsName::parse("google.com");
  const DnsName www = DnsName::parse("www.google.com");
  ByteWriter w;
  NameCompressor nc;
  nc.write(w, google);
  const std::size_t first = w.size();
  EXPECT_EQ(first, 12u);
  nc.write(w, google);
  EXPECT_EQ(w.size(), first + 2);  // pure pointer
  nc.write(w, www);
  EXPECT_EQ(w.size(), first + 2 + 4 + 2);  // "www" label + pointer
}

TEST(DnsName, CompressedRoundTrip) {
  const DnsName mail = DnsName::parse("mail.google.com");
  const DnsName chat = DnsName::parse("chat.google.com");
  ByteWriter w;
  NameCompressor nc;
  nc.write(w, mail);
  nc.write(w, chat);
  ByteReader r(w.view());
  EXPECT_EQ(read_name(r)->to_string(), "mail.google.com");
  EXPECT_EQ(read_name(r)->to_string(), "chat.google.com");
  EXPECT_TRUE(r.at_end());
}

TEST(DnsName, DecodeRejectsPointerLoops) {
  // A name that points at itself: offset 0 contains a pointer to 0.
  std::vector<std::uint8_t> evil = {0xC0, 0x00};
  ByteReader r(evil);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(DnsName, DecodeRejectsForwardPointer) {
  std::vector<std::uint8_t> evil = {0xC0, 0x04, 0x00, 0x00, 0x00};
  ByteReader r(evil);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(DnsName, DecodeRejectsTruncation) {
  std::vector<std::uint8_t> truncated = {0x06, 'g', 'o', 'o'};
  ByteReader r(truncated);
  EXPECT_FALSE(read_name(r).has_value());
}

TEST(Message, QueryEncodesToPaperAnchorSize) {
  // dnsperf-style query: A google.com, EDNS0 + 8-byte COOKIE.
  // Header 12 + question 16 + OPT 23 = 51 bytes; +8 UDP header = the 59-byte
  // DoUDP query IP payload in Table 1 of the paper.
  Message q = make_query(0x1234, DnsName::parse("google.com"), RRType::kA);
  EXPECT_EQ(q.encode().size(), 51u);
}

TEST(Message, CachedResponseEncodesToPaperAnchorSize) {
  // Response: header 12 + question 16 + compressed A answer 16 + OPT 11 =
  // 55 bytes; +8 UDP header = the 63-byte DoUDP response in Table 1.
  Message q = make_query(0x1234, DnsName::parse("google.com"), RRType::kA);
  Message r = make_response(q);
  r.answers.push_back(
      make_a(DnsName::parse("google.com"), 300, 0x8EFA'B00Eu));
  EXPECT_EQ(r.encode().size(), 55u);
}

TEST(Message, PooledEncodeMatchesVectorEncodeByteForByte) {
  // The zero-copy path must not change a single wire byte: Table 1 and the
  // fig2/fig3/fig4 CSVs are pinned to these exact encodings (59/63-byte
  // DoUDP query/response IP payloads with the 8-byte UDP header).
  Message q = make_query(0x1234, DnsName::parse("google.com"), RRType::kA);
  Message r = make_response(q);
  r.answers.push_back(make_a(DnsName::parse("google.com"), 300, 0x08080404));

  for (const Message* m : {&q, &r}) {
    const std::vector<std::uint8_t> vec = m->encode();
    const util::Buffer plain = m->encode_buffer();
    const util::Buffer roomy = m->encode_buffer(/*headroom=*/14);
    ASSERT_EQ(plain.size(), vec.size());
    EXPECT_EQ(std::memcmp(plain.data(), vec.data(), vec.size()), 0);
    ASSERT_EQ(roomy.size(), vec.size());
    EXPECT_EQ(std::memcmp(roomy.data(), vec.data(), vec.size()), 0);
    EXPECT_GE(roomy.headroom(), 14u);
  }
  EXPECT_EQ(q.encode_buffer().size(), 51u);  // + 8-byte UDP header = 59
  EXPECT_EQ(r.encode_buffer().size(), 55u);  // + 8-byte UDP header = 63
}

TEST(Message, DecodeIntoMatchesDecodeAndReusesScratch) {
  Message q = make_query(0x4321, DnsName::parse("example.org"), RRType::kAAAA);
  Message r = make_response(q);
  r.answers.push_back(make_a(DnsName::parse("example.org"), 60, 0x01020304));

  Message scratch;
  // Decode the (larger) response first, then the query into the same
  // scratch: stale answers/additionals must be fully overwritten.
  const std::vector<std::uint8_t> response_wire = r.encode();
  ASSERT_TRUE(Message::decode_into(response_wire, scratch));
  EXPECT_EQ(scratch.encode(), response_wire);

  const std::vector<std::uint8_t> query_wire = q.encode();
  ASSERT_TRUE(Message::decode_into(query_wire, scratch));
  auto fresh = Message::decode(query_wire);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(scratch.encode(), fresh->encode());
  EXPECT_TRUE(scratch.answers.empty());
}

TEST(Message, RoundTripPreservesEverything) {
  Message m = make_query(7, DnsName::parse("example.org"), RRType::kAAAA);
  m.answers.push_back(make_a(DnsName::parse("example.org"), 60, 0x01020304));
  m.answers.push_back(
      make_cname(DnsName::parse("alias.example.org"), 120,
                 DnsName::parse("example.org")));
  m.authorities.push_back(
      make_txt(DnsName::parse("example.org"), 30, "hello world"));
  m.qr = true;
  m.ra = true;
  m.rcode = RCode::kNoError;

  auto wire = m.encode();
  auto decoded = Message::decode(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(Message, DecodeRejectsTruncatedHeader) {
  std::vector<std::uint8_t> short_msg = {0x00, 0x01, 0x00};
  EXPECT_FALSE(Message::decode(short_msg).has_value());
}

TEST(Message, DecodeRejectsTruncatedRecord) {
  Message m = make_query(7, DnsName::parse("example.org"), RRType::kA);
  auto wire = m.encode();
  wire.resize(wire.size() - 5);
  EXPECT_FALSE(Message::decode(wire).has_value());
}

TEST(Message, FlagsRoundTrip) {
  Message m;
  m.id = 0xFFFF;
  m.qr = true;
  m.aa = true;
  m.tc = true;
  m.rd = false;
  m.ra = true;
  m.ad = true;
  m.cd = true;
  m.rcode = RCode::kNXDomain;
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, m);
}

TEST(Message, TypedRdataAccessors) {
  auto a = make_a(DnsName::parse("x.com"), 1, 0x7F000001);
  EXPECT_EQ(rdata_as_a(a), 0x7F000001u);
  EXPECT_FALSE(rdata_as_name(a).has_value());

  auto cname = make_cname(DnsName::parse("x.com"), 1, DnsName::parse("y.com"));
  EXPECT_EQ(rdata_as_name(cname)->to_string(), "y.com");
  EXPECT_FALSE(rdata_as_a(cname).has_value());
}

TEST(Message, OptCarriesUdpSizeAndOptions) {
  Message q = make_query(1, DnsName::parse("a.com"), RRType::kA,
                         /*udp_payload_size=*/4096, /*with_cookie=*/true);
  const ResourceRecord* opt = q.opt();
  ASSERT_NE(opt, nullptr);
  EXPECT_EQ(opt->klass_or_udpsize, 4096);
  auto options = rdata_as_options(*opt);
  ASSERT_TRUE(options.has_value());
  ASSERT_EQ(options->size(), 1u);
  EXPECT_EQ(options->front().code, kEdnsCookieOption);
  EXPECT_EQ(options->front().value.size(), 8u);
}

TEST(Message, ResponseEchoesIdAndQuestion) {
  Message q = make_query(42, DnsName::parse("google.com"), RRType::kA);
  Message r = make_response(q, RCode::kNXDomain);
  EXPECT_EQ(r.id, 42);
  EXPECT_TRUE(r.qr);
  EXPECT_TRUE(r.ra);
  EXPECT_EQ(r.rcode, RCode::kNXDomain);
  ASSERT_EQ(r.questions.size(), 1u);
  EXPECT_EQ(r.questions[0].name.to_string(), "google.com");
}

TEST(Message, CnameRdataDecompressesAgainstMessage) {
  // Hand-build a message where CNAME RDATA uses a compression pointer into
  // the question name, and check the decoder resolves it.
  Message m = make_query(9, DnsName::parse("target.net"), RRType::kCNAME);
  m.qr = true;
  m.answers.push_back(make_cname(DnsName::parse("alias.net"), 60,
                                 DnsName::parse("target.net")));
  auto decoded = Message::decode(m.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(rdata_as_name(decoded->answers[0])->to_string(), "target.net");
}

class PaddingBlocks : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PaddingBlocks, PadsToBlockMultiple) {
  const std::size_t block = GetParam();
  Message q = make_query(1, DnsName::parse("google.com"), RRType::kA);
  pad_to_block(q, block);
  EXPECT_EQ(q.encode().size() % block, 0u);
  // The padding option must be parseable.
  auto options = rdata_as_options(*q.opt());
  ASSERT_TRUE(options.has_value());
  bool has_padding = false;
  for (const auto& option : *options) {
    if (option.code == kEdnsPaddingOption) has_padding = true;
  }
  EXPECT_TRUE(has_padding);
  // And the padded message still decodes.
  EXPECT_TRUE(Message::decode(q.encode()).has_value());
}

INSTANTIATE_TEST_SUITE_P(Rfc8467, PaddingBlocks,
                         ::testing::Values(std::size_t(128), std::size_t(256),
                                           std::size_t(468)));

TEST(Padding, AlreadyAlignedIsNoop) {
  Message q = make_query(1, DnsName::parse("google.com"), RRType::kA);
  pad_to_block(q, 128);
  const auto once = q.encode();
  pad_to_block(q, 128);
  EXPECT_EQ(q.encode().size(), once.size());
}

TEST(Padding, AddsOptWhenMissing) {
  Message m;
  m.id = 1;
  m.questions.push_back(Question{DnsName::parse("a.com"), RRType::kA,
                                 RRClass::kIN});
  pad_to_block(m, 128);
  EXPECT_NE(m.opt(), nullptr);
  EXPECT_EQ(m.encode().size() % 128, 0u);
}

TEST(Truncation, AdvertisedSizeDefaultsTo512) {
  Message no_opt;
  no_opt.questions.push_back(Question{DnsName::parse("a.com"), RRType::kA,
                                      RRClass::kIN});
  EXPECT_EQ(advertised_udp_size(no_opt), 512);
  Message with_opt = make_query(1, DnsName::parse("a.com"), RRType::kA,
                                /*udp_payload_size=*/4096);
  EXPECT_EQ(advertised_udp_size(with_opt), 4096);
}

TEST(Truncation, SetsTcAndDropsAnswers) {
  Message q = make_query(1, DnsName::parse("big.example"), RRType::kTXT);
  Message r = make_response(q);
  r.answers.push_back(
      make_txt(DnsName::parse("big.example"), 300, std::string(2000, 'x')));
  EXPECT_TRUE(truncate_for_udp(r, 1232));
  EXPECT_TRUE(r.tc);
  EXPECT_TRUE(r.answers.empty());
  EXPECT_LE(r.encode().size(), 1232u);
}

TEST(Truncation, SmallResponseUntouched) {
  Message q = make_query(1, DnsName::parse("a.com"), RRType::kA);
  Message r = make_response(q);
  r.answers.push_back(make_a(DnsName::parse("a.com"), 300, 1));
  EXPECT_FALSE(truncate_for_udp(r, 1232));
  EXPECT_FALSE(r.tc);
  EXPECT_EQ(r.answers.size(), 1u);
}

TEST(Cache, HitWithinTtl) {
  Cache cache;
  DnsName name = DnsName::parse("google.com");
  cache.insert(name, RRType::kA, {make_a(name, 300, 1)}, /*now=*/0);
  auto hit = cache.lookup(name, RRType::kA, 100 * kSecond);
  ASSERT_TRUE(hit.has_value());
  ASSERT_EQ(hit->size(), 1u);
  EXPECT_EQ((*hit)[0].ttl, 200u);  // decayed
}

TEST(Cache, ExpiryAtTtlBoundary) {
  Cache cache;
  DnsName name = DnsName::parse("google.com");
  cache.insert(name, RRType::kA, {make_a(name, 300, 1)}, 0);
  EXPECT_TRUE(cache.lookup(name, RRType::kA, 299 * kSecond).has_value());
  EXPECT_FALSE(cache.lookup(name, RRType::kA, 300 * kSecond).has_value());
}

TEST(Cache, LookupRefBorrowsRecordsWithoutTtlDecay) {
  // The allocation-free engine path: EntryRef points at the cached records
  // (original TTLs); the caller applies `age_s` itself.
  Cache cache;
  DnsName name = DnsName::parse("ref.example");
  cache.insert(name, RRType::kA, {make_a(name, 300, 7)}, 0);

  auto ref = cache.lookup_ref(name, RRType::kA, 100 * kSecond);
  ASSERT_TRUE(ref.has_value());
  EXPECT_EQ(ref->age_s, 100u);
  ASSERT_EQ(ref->records->size(), 1u);
  EXPECT_EQ((*ref->records)[0].ttl, 300u);  // undecayed — borrowed storage
  EXPECT_FALSE(cache.lookup_ref(name, RRType::kA, 300 * kSecond));
}

TEST(Cache, TypeAndNameAreKeyed) {
  Cache cache;
  DnsName name = DnsName::parse("google.com");
  cache.insert(name, RRType::kA, {make_a(name, 300, 1)}, 0);
  EXPECT_FALSE(cache.lookup(name, RRType::kAAAA, 0).has_value());
  EXPECT_FALSE(
      cache.lookup(DnsName::parse("g00gle.com"), RRType::kA, 0).has_value());
}

TEST(Cache, NegativeEntriesExpireAfter60s) {
  Cache cache;
  DnsName name = DnsName::parse("nxdomain.example");
  cache.insert(name, RRType::kA, {}, 0);
  auto hit = cache.lookup(name, RRType::kA, 59 * kSecond);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->empty());
  EXPECT_FALSE(cache.lookup(name, RRType::kA, 61 * kSecond).has_value());
}

TEST(Cache, InsertReplaces) {
  Cache cache;
  DnsName name = DnsName::parse("a.com");
  cache.insert(name, RRType::kA, {make_a(name, 10, 1)}, 0);
  cache.insert(name, RRType::kA, {make_a(name, 999, 2)}, 0);
  auto hit = cache.lookup(name, RRType::kA, 0);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(rdata_as_a((*hit)[0]), 2u);
}

TEST(Cache, TtlDecrementsToOneJustBeforeExpiry) {
  Cache cache;
  DnsName name = DnsName::parse("edge.com");
  cache.insert(name, RRType::kA, {make_a(name, 300, 1)}, 0);
  auto hit = cache.lookup(name, RRType::kA, 299 * kSecond);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].ttl, 1u);  // one second of life left
  // One microsecond short of the boundary still answers.
  EXPECT_TRUE(
      cache.lookup(name, RRType::kA, 300 * kSecond - 1).has_value());
  // The boundary itself is a miss.
  EXPECT_FALSE(cache.lookup(name, RRType::kA, 300 * kSecond).has_value());
}

TEST(Cache, NegativeEntryExpiresExactlyAtNegativeTtlBoundary) {
  Cache cache;
  DnsName name = DnsName::parse("nxdomain.example");
  cache.insert(name, RRType::kA, {}, 0);
  EXPECT_TRUE(cache.lookup(name, RRType::kA, 60 * kSecond - 1).has_value());
  EXPECT_FALSE(cache.lookup(name, RRType::kA, 60 * kSecond).has_value());
}

TEST(Cache, UnboundedByDefaultNeverEvicts) {
  Cache cache;
  for (int i = 0; i < 100; ++i) {
    DnsName name = DnsName::parse("n" + std::to_string(i) + ".example");
    cache.insert(name, RRType::kA, {make_a(name, 300, 1)}, 0);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(Cache, CapacityBoundEvictsLeastRecentlyUsed) {
  Cache cache;
  cache.set_capacity(2);
  DnsName a = DnsName::parse("a.com");
  DnsName b = DnsName::parse("b.com");
  DnsName c = DnsName::parse("c.com");
  cache.insert(a, RRType::kA, {make_a(a, 300, 1)}, 0);
  cache.insert(b, RRType::kA, {make_a(b, 300, 2)}, 0);
  // Touch a so b becomes least recently used.
  EXPECT_TRUE(cache.lookup(a, RRType::kA, 0).has_value());
  cache.insert(c, RRType::kA, {make_a(c, 300, 3)}, 0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.lookup(a, RRType::kA, 0).has_value());
  EXPECT_FALSE(cache.lookup(b, RRType::kA, 0).has_value());  // evicted
  EXPECT_TRUE(cache.lookup(c, RRType::kA, 0).has_value());
}

TEST(Cache, ShrinkingCapacityEvictsDownToBound) {
  Cache cache;
  for (int i = 0; i < 10; ++i) {
    DnsName name = DnsName::parse("n" + std::to_string(i) + ".example");
    cache.insert(name, RRType::kA, {make_a(name, 300, 1)}, 0);
  }
  cache.set_capacity(3);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 7u);
  // The three most recently inserted names survive.
  for (int i = 7; i < 10; ++i) {
    EXPECT_TRUE(cache
                    .lookup(DnsName::parse("n" + std::to_string(i) +
                                           ".example"),
                            RRType::kA, 0)
                    .has_value());
  }
}

TEST(Cache, ReplacingInsertDoesNotGrowLruState) {
  Cache cache;
  cache.set_capacity(2);
  DnsName a = DnsName::parse("a.com");
  for (int i = 0; i < 5; ++i) {
    cache.insert(a, RRType::kA, {make_a(a, 300, i)}, 0);
  }
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

}  // namespace
}  // namespace doxlab::dns
