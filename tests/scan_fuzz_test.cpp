// Parity fuzz for dns::scan_message against Message::decode_into: seeded
// mutations of four base messages — the swarm client's query, the same
// query with a mixed-case name, an answer with a CNAME chain, and a query
// without EDNS — must be accepted by the scan, which skips every name,
// exactly when the full decode accepts them. An accepted message must scan
// to the decode's id, flags and first question type and class, and the
// engine's one-pass read of the question name must give the decode's name,
// which is the wire name case-folded. Mutations are bit flips, truncation
// at every byte, rewritten section counts and RDATA lengths, and
// compression-pointer loops and forward pointers.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "dns/message.h"
#include "util/rng.h"

namespace doxlab::dns {
namespace {

using Wire = std::vector<std::uint8_t>;

/// The header flags word decode_into keeps (the Z bit is dropped).
std::uint16_t decoded_flags(const Message& m) {
  std::uint16_t flags = 0;
  if (m.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(static_cast<std::uint16_t>(m.opcode)
                                      << 11);
  if (m.aa) flags |= 0x0400;
  if (m.tc) flags |= 0x0200;
  if (m.rd) flags |= 0x0100;
  if (m.ra) flags |= 0x0080;
  if (m.ad) flags |= 0x0020;
  if (m.cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(m.rcode) & 0x0F;
  return flags;
}

/// The first question's name of an accepted message as flat label bytes,
/// read the slow way: follow each pointer, copy each label, then fold its
/// ASCII letters to lower case.
std::string folded_question_name(const Wire& wire) {
  std::string flat;
  std::size_t pos = 12;
  while (wire[pos] != 0) {
    if ((wire[pos] & 0xC0) == 0xC0) {
      pos = (std::size_t{wire[pos] & 0x3Fu} << 8) | wire[pos + 1];
      continue;
    }
    const std::size_t len = wire[pos];
    flat.push_back(static_cast<char>(len));
    flat.append(reinterpret_cast<const char*>(&wire[pos + 1]), len);
    pos += 1 + len;
  }
  for (std::size_t i = 0; i < flat.size(); i += 1 + std::uint8_t(flat[i])) {
    for (std::size_t j = i + 1; j <= i + std::uint8_t(flat[i]); ++j) {
      if (flat[j] >= 'A' && flat[j] <= 'Z') flat[j] += 'a' - 'A';
    }
  }
  return flat;
}

/// Checks one input; returns whether the decode accepted it.
bool check_parity(const Wire& wire, Message& decoded, MessageHead& head) {
  const bool decode_ok = Message::decode_into(wire, decoded);
  const bool scan_ok = scan_message(wire, head);
  EXPECT_EQ(decode_ok, scan_ok) << "input " << to_hex(wire);
  if (decode_ok && scan_ok) {
    EXPECT_EQ(head.id, decoded.id);
    EXPECT_EQ(head.flags & ~0x0040, decoded_flags(decoded));
    EXPECT_EQ(head.qdcount, decoded.questions.size());
    if (!decoded.questions.empty()) {
      const Question& question = decoded.questions.front();
      EXPECT_EQ(head.qtype, question.type) << "input " << to_hex(wire);
      EXPECT_EQ(head.qclass, question.klass) << "input " << to_hex(wire);
      DnsName name = DnsName::parse("stale.storage.example");
      EXPECT_TRUE(read_question_name(wire, name)) << "input " << to_hex(wire);
      EXPECT_EQ(name, question.name) << "input " << to_hex(wire);
      EXPECT_EQ(name.wire_labels(), folded_question_name(wire))
          << "input " << to_hex(wire);
    }
  }
  return decode_ok;
}

/// Offsets of every record's RDLENGTH field in `wire` (a valid message).
std::vector<std::size_t> rdlen_offsets(const Wire& wire) {
  std::vector<std::size_t> out;
  ByteReader r(wire);
  (void)r.seek(4);
  const std::uint16_t qd = *r.u16();
  const std::uint32_t records = std::uint32_t{*r.u16()} + *r.u16() + *r.u16();
  for (std::uint16_t i = 0; i < qd; ++i) {
    skip_name(r);
    (void)r.bytes(4);
  }
  for (std::uint32_t i = 0; i < records; ++i) {
    skip_name(r);
    (void)r.bytes(8);
    out.push_back(r.position());
    const std::uint16_t rdlen = *r.u16();
    (void)r.bytes(rdlen);
  }
  return out;
}

/// The three base messages.
std::vector<Wire> bases() {
  // What the swarm client sends: an A query with EDNS and a client cookie.
  const Wire swarm =
      make_query(0x1234, DnsName::parse("name17.load.example"), RRType::kA)
          .encode();
  // An answer with a CNAME chain: compressed owner names and a compressed
  // CNAME target in RDATA.
  const Message query =
      make_query(7, DnsName::parse("www.chain.example"), RRType::kA);
  Message answer = make_response(query);
  answer.answers.push_back(make_cname(DnsName::parse("www.chain.example"),
                                      300,
                                      DnsName::parse("edge.chain.example")));
  answer.answers.push_back(
      make_cname(DnsName::parse("edge.chain.example"), 60,
                 DnsName::parse("host.cdn.chain.example")));
  answer.answers.push_back(
      make_a(DnsName::parse("host.cdn.chain.example"), 30, 0x0A000001));
  Wire chain = answer.encode();
  // Compress the first CNAME's RDATA name against the question, as real
  // resolvers do: "edge" + a pointer to "chain.example" at offset 16.
  const std::size_t rdlen_at = rdlen_offsets(chain).front();
  const std::size_t rdata_at = rdlen_at + 2;
  const std::size_t rdlen =
      std::size_t{chain[rdlen_at]} << 8 | chain[rdlen_at + 1];
  const Wire compressed = {4, 'e', 'd', 'g', 'e', 0xC0, 16};
  chain.erase(chain.begin() + static_cast<std::ptrdiff_t>(rdata_at),
              chain.begin() + static_cast<std::ptrdiff_t>(rdata_at + rdlen));
  chain.insert(chain.begin() + static_cast<std::ptrdiff_t>(rdata_at),
               compressed.begin(), compressed.end());
  chain[rdlen_at] = 0;
  chain[rdlen_at + 1] = static_cast<std::uint8_t>(compressed.size());
  // A plain query with no OPT record.
  Message bare;
  bare.id = 0xBEEF;
  bare.questions.push_back(
      Question{DnsName::parse("bare.example"), RRType::kAAAA, RRClass::kIN});
  // The swarm query with every other letter of its name upper-cased on the
  // wire.
  Wire mixed = swarm;
  for (std::size_t i = 13; mixed[i - 1] != 0; ++i) {
    if (i % 2 == 0 && mixed[i] >= 'a' && mixed[i] <= 'z') mixed[i] -= 'a' - 'A';
  }
  return {swarm, chain, bare.encode(), mixed};
}

/// Offsets where a name starts or a label length byte sits — the places a
/// compression pointer can be planted.
std::vector<std::size_t> label_offsets(const Wire& wire) {
  std::vector<std::size_t> out;
  for (std::size_t i = 12; i < wire.size(); ++i) {
    if (wire[i] > 0 && wire[i] < 64) out.push_back(i);
  }
  return out;
}

void fuzz(const Wire& base, std::uint64_t seed, int iterations) {
  Message decoded;
  MessageHead head;
  ASSERT_TRUE(check_parity(base, decoded, head));

  // Truncation at every byte.
  for (std::size_t cut = 0; cut < base.size(); ++cut) {
    check_parity(Wire(base.begin(), base.begin() + cut), decoded, head);
  }

  Rng rng(seed);
  const auto pick = [&](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::vector<std::size_t> rdlens = rdlen_offsets(base);
  const std::vector<std::size_t> labels = label_offsets(base);
  int accepted = 0;
  for (int i = 0; i < iterations; ++i) {
    Wire wire = base;
    switch (i % 5) {
      case 0: {  // bit flips
        const int flips = 1 + static_cast<int>(pick(3));
        for (int f = 0; f < flips; ++f) {
          wire[pick(wire.size())] ^= static_cast<std::uint8_t>(1u << pick(8));
        }
        break;
      }
      case 1: {  // a rewritten section count
        const std::size_t at = 4 + 2 * pick(4);
        const std::uint16_t count = static_cast<std::uint16_t>(
            pick(2) == 0 ? pick(6) : pick(0x10000));
        wire[at] = static_cast<std::uint8_t>(count >> 8);
        wire[at + 1] = static_cast<std::uint8_t>(count);
        break;
      }
      case 2: {  // a rewritten RDATA length
        if (rdlens.empty()) break;
        const std::size_t at = rdlens[pick(rdlens.size())];
        const std::uint16_t len = static_cast<std::uint16_t>(
            pick(2) == 0 ? pick(64) : pick(0x10000));
        wire[at] = static_cast<std::uint8_t>(len >> 8);
        wire[at + 1] = static_cast<std::uint8_t>(len);
        break;
      }
      case 3: {  // a pointer loop: a label replaced by a pointer to itself
                 // or to any later (forward) offset
        const std::size_t at = labels[pick(labels.size())];
        const std::size_t target =
            pick(2) == 0 ? at : at + pick(wire.size() - at + 8);
        wire[at] = static_cast<std::uint8_t>(0xC0 | ((target >> 8) & 0x3F));
        if (at + 1 < wire.size()) {
          wire[at + 1] = static_cast<std::uint8_t>(target);
        }
        break;
      }
      case 4: {  // a backward pointer to an arbitrary earlier offset
        const std::size_t at = labels[pick(labels.size())];
        const std::size_t target = pick(at + 1);
        wire[at] = static_cast<std::uint8_t>(0xC0 | ((target >> 8) & 0x3F));
        if (at + 1 < wire.size()) {
          wire[at + 1] = static_cast<std::uint8_t>(target);
        }
        if (pick(2) == 0) wire.resize(pick(wire.size()) + 1);
        break;
      }
    }
    accepted += check_parity(wire, decoded, head) ? 1 : 0;
    if (::testing::Test::HasFailure()) return;
  }
  // The mutations must exercise both verdicts.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, iterations);
}

constexpr int kIterations = 20000;

TEST(ScanParity, SwarmQuery) { fuzz(bases()[0], 101, kIterations); }

TEST(ScanParity, CnameChainAnswer) { fuzz(bases()[1], 202, kIterations); }

TEST(ScanParity, QueryWithoutEdns) { fuzz(bases()[2], 303, kIterations); }

TEST(ScanParity, MixedCaseQuery) { fuzz(bases()[3], 404, kIterations); }

TEST(ScanParity, HandWrittenEdgeCases) {
  Message decoded;
  MessageHead head;
  // A header alone (no questions, no records) is a message.
  EXPECT_TRUE(check_parity(Wire(12, 0), decoded, head));
  // A name of exactly 255 octets decodes; one more octet does not.
  const auto name_query = [](std::size_t labels63, std::size_t tail) {
    Wire wire(12, 0);
    wire[5] = 1;
    for (std::size_t i = 0; i < labels63; ++i) {
      wire.push_back(63);
      wire.insert(wire.end(), 63, 'a');
    }
    wire.push_back(static_cast<std::uint8_t>(tail));
    wire.insert(wire.end(), tail, 'b');
    wire.push_back(0);
    wire.insert(wire.end(), {0, 1, 0, 1});
    return wire;
  };
  EXPECT_TRUE(check_parity(name_query(3, 61), decoded, head));
  EXPECT_FALSE(check_parity(name_query(3, 62), decoded, head));
  // A CNAME whose RDATA name overruns its RDLENGTH is rejected; one that
  // leaves slack inside RDLENGTH is skipped past.
  Message answer = make_response(
      make_query(1, DnsName::parse("c.example"), RRType::kA));
  answer.answers.push_back(make_cname(DnsName::parse("c.example"), 60,
                                      DnsName::parse("t.example")));
  Wire wire = answer.encode();
  const std::size_t rdlen_at = rdlen_offsets(wire).front();
  Wire shorter = wire;
  shorter[rdlen_at + 1] -= 1;
  EXPECT_FALSE(check_parity(shorter, decoded, head));
  Wire slack = wire;
  const std::size_t rdata_end = rdlen_at + 2 + slack[rdlen_at + 1];
  slack[rdlen_at + 1] += 2;
  slack.insert(slack.begin() + static_cast<std::ptrdiff_t>(rdata_end),
               {0xAA, 0xBB});
  EXPECT_TRUE(check_parity(slack, decoded, head));
}

}  // namespace
}  // namespace doxlab::dns
