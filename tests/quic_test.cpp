// Unit + integration tests for the QUIC model: wire codec (against the
// frozen vector codec too), packet-number expansion, handshake round-trip
// counts, padding/amplification behaviour, resumption, 0-RTT, Retry,
// Version Negotiation, streams, loss recovery, teardown, the received-packet
// range set behind every ACK and the ACK walk over the packets in flight.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <deque>
#include <map>
#include <set>

#include "legacy_quic_codec.h"
#include "net/network.h"
#include "net/udp.h"
#include "quic/connection.h"
#include "quic/range_set.h"
#include "quic/sent_packets.h"
#include "quic/server.h"
#include "quic/wire.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace doxlab::quic {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

/// A pooled copy of `bytes`: the form stream and CRYPTO payloads take.
util::Buffer buf(const std::vector<std::uint8_t>& bytes) {
  return util::Buffer::copy_of(bytes);
}

std::vector<std::uint8_t> bytes_of(const util::Buffer& buffer) {
  return {buffer.data(), buffer.data() + buffer.size()};
}

std::vector<AckRange> ranges_of(const Frame& frame) {
  return {frame.ack_ranges.begin(), frame.ack_ranges.end()};
}

std::vector<AckRange> descending(const RangeSet& set) {
  std::vector<AckRange> out;
  set.descending(out);
  return out;
}

// ---------------------------------------------------------------- wire codec

TEST(QuicWire, InitialPacketRoundTrip) {
  QuicPacket p;
  p.type = PacketType::kInitial;
  p.version = QuicVersion::kV1;
  p.dcid = 0x1111;
  p.scid = 0x2222;
  p.packet_number = 7;
  p.token = {1, 2, 3};
  p.frames.push_back(Frame::crypto(0, buf({9, 9, 9, 9})));
  const AckRange acked[] = {{0, 5}};
  p.frames.push_back(Frame::ack(acked));

  DecodedDatagram decoded;
  ASSERT_TRUE(decode_datagram(encode_packet(p), decoded));
  ASSERT_EQ(decoded.packets.size(), 1u);
  const QuicPacket& q = decoded.packets[0];
  EXPECT_EQ(q.type, PacketType::kInitial);
  EXPECT_EQ(q.version, QuicVersion::kV1);
  EXPECT_EQ(q.dcid, 0x1111u);
  EXPECT_EQ(q.scid, 0x2222u);
  EXPECT_EQ(q.packet_number, 7u);
  EXPECT_EQ(q.token, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_EQ(q.frames.size(), 2u);
  EXPECT_EQ(q.frames[0].type, FrameType::kCrypto);
  EXPECT_EQ(q.frames[0].data.size(), 4u);
  EXPECT_EQ(q.frames[1].type, FrameType::kAck);
  ASSERT_EQ(q.frames[1].ack_ranges.size(), 1u);
  EXPECT_EQ(q.frames[1].ack_ranges[0], (AckRange{0, 5}));
  EXPECT_TRUE(q.frames[1].acks(3));
  EXPECT_FALSE(q.frames[1].acks(6));
}

TEST(QuicWire, StreamFrameRoundTripWithFin) {
  QuicPacket p;
  p.type = PacketType::kOneRtt;
  p.dcid = 0xAB;
  p.packet_number = 3;
  p.frames.push_back(Frame::stream(4, 100, buf({1, 2}), true));
  DecodedDatagram decoded;
  ASSERT_TRUE(decode_datagram(encode_packet(p), decoded));
  const Frame& f = decoded.packets[0].frames[0];
  EXPECT_EQ(f.type, FrameType::kStream);
  EXPECT_EQ(f.stream_id, 4u);
  EXPECT_EQ(f.offset, 100u);
  EXPECT_TRUE(f.fin);
}

TEST(QuicWire, ConnectionCloseRoundTrip) {
  QuicPacket p;
  p.type = PacketType::kOneRtt;
  p.packet_number = 1;
  p.frames.push_back(Frame::connection_close(0x0A, "bye"));
  DecodedDatagram decoded;
  ASSERT_TRUE(decode_datagram(encode_packet(p), decoded));
  EXPECT_EQ(decoded.packets[0].frames[0].error_code, 0x0Au);
  EXPECT_EQ(decoded.packets[0].frames[0].reason, "bye");
}

TEST(QuicWire, ClientPadsEveryInitialDatagram) {
  QuicPacket ack_only;
  ack_only.type = PacketType::kInitial;
  const AckRange acked[] = {{0, 0}};
  ack_only.frames.push_back(Frame::ack(acked));
  auto client_dgram =
      encode_datagram(std::span(&ack_only, 1), /*sender_is_client=*/true);
  EXPECT_GE(client_dgram.size(), kMinInitialDatagram);
  // Servers only pad ack-eliciting INITIALs; a bare ACK stays small.
  auto server_dgram =
      encode_datagram(std::span(&ack_only, 1), /*sender_is_client=*/false);
  EXPECT_LT(server_dgram.size(), 100u);
}

TEST(QuicWire, ServerPadsAckElicitingInitial) {
  QuicPacket initial;
  initial.type = PacketType::kInitial;
  initial.frames.push_back(Frame::crypto(0, buf({1})));
  auto dgram =
      encode_datagram(std::span(&initial, 1), /*sender_is_client=*/false);
  EXPECT_GE(dgram.size(), kMinInitialDatagram);
}

TEST(QuicWire, CoalescedPacketsDecodeInOrder) {
  QuicPacket a;
  a.type = PacketType::kInitial;
  a.frames.push_back(Frame::crypto(0, buf({1})));
  QuicPacket b;
  b.type = PacketType::kHandshake;
  b.frames.push_back(Frame::crypto(0, buf({2})));
  QuicPacket c;
  c.type = PacketType::kOneRtt;
  c.frames.push_back(Frame::ping());
  std::vector<QuicPacket> packets = {a, b, c};
  DecodedDatagram decoded;
  ASSERT_TRUE(decode_datagram(encode_datagram(packets, true), decoded));
  ASSERT_EQ(decoded.packets.size(), 3u);
  EXPECT_EQ(decoded.packets[0].type, PacketType::kInitial);
  EXPECT_EQ(decoded.packets[1].type, PacketType::kHandshake);
  EXPECT_EQ(decoded.packets[2].type, PacketType::kOneRtt);
}

TEST(QuicWire, VersionNegotiationRoundTrip) {
  QuicPacket vn;
  vn.type = PacketType::kVersionNegotiation;
  vn.dcid = 1;
  vn.scid = 2;
  vn.supported_versions = {QuicVersion::kV1, QuicVersion::kDraft34};
  DecodedDatagram decoded;
  ASSERT_TRUE(decode_datagram(encode_packet(vn), decoded));
  EXPECT_EQ(decoded.packets[0].type, PacketType::kVersionNegotiation);
  EXPECT_EQ(decoded.packets[0].supported_versions.size(), 2u);
}

TEST(QuicWire, TruncatedDatagramRejected) {
  QuicPacket p;
  p.type = PacketType::kInitial;
  p.frames.push_back(Frame::crypto(0, buf({1, 2, 3})));
  util::Buffer bytes = encode_packet(p);
  bytes.drop_back(4);
  DecodedDatagram decoded;
  EXPECT_FALSE(decode_datagram(bytes, decoded));
}

TEST(QuicWire, AddressTokenRoundTripAndValidation) {
  AddressToken t;
  t.server_secret = 0xFEED;
  t.client_ip = 0x0A000001;
  t.issued_at = 100;
  t.lifetime = kDay;
  auto decoded = AddressToken::decode(t.encode());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(decoded->valid_for(0xFEED, 0x0A000001, 200));
  EXPECT_FALSE(decoded->valid_for(0xBEEF, 0x0A000001, 200));   // wrong secret
  EXPECT_FALSE(decoded->valid_for(0xFEED, 0x0A000002, 200));   // wrong ip
  EXPECT_FALSE(decoded->valid_for(0xFEED, 0x0A000001, 2 * kDay));  // stale
}

TEST(QuicWire, ExpandsPacketNumbersAcrossTheTwoByteWrap) {
  // Before anything arrives, and well inside the first window.
  EXPECT_EQ(expand_packet_number(0, 0), 0u);
  EXPECT_EQ(expand_packet_number(0, 5), 5u);
  EXPECT_EQ(expand_packet_number(100, 0x7FFF), 0x7FFFu);
  // The wrap: after 65,535 the next numbers are 65,536 on, not 0 again.
  EXPECT_EQ(expand_packet_number(0x10000, 0x0000), 0x10000u);
  EXPECT_EQ(expand_packet_number(0x10000, 0x0002), 0x10002u);
  EXPECT_EQ(expand_packet_number(0xFFF0, 0x0001), 0x10001u);
  // A late packet from just before the wrap stays below it.
  EXPECT_EQ(expand_packet_number(0x10005, 0xFFFE), 0xFFFEu);
  EXPECT_EQ(expand_packet_number(0x20003, 0xFFFF), 0x1FFFFu);
  // Half a window is the turning point (RFC 9000 Appendix A.3).
  EXPECT_EQ(expand_packet_number(0x18000, 0x0000), 0x20000u);
  EXPECT_EQ(expand_packet_number(0x18001, 0x0000), 0x20000u);
  EXPECT_EQ(expand_packet_number(0x17FFF, 0x0000), 0x10000u);
  // RFC 9000 Appendix A.3's example, with 16 bits on the wire.
  EXPECT_EQ(expand_packet_number(0xA82F30EA + 1, 0x9B32), 0xA82F9B32u);
  // Every number within half a window of the expected one round-trips.
  for (const std::uint64_t expected :
       {std::uint64_t{1}, std::uint64_t{0x8000}, std::uint64_t{0xFFFF},
        std::uint64_t{0x10000}, std::uint64_t{0x10001}, std::uint64_t{0x2FFFF},
        std::uint64_t{0x123456789}}) {
    const std::uint64_t low = expected > 0x7FFF ? expected - 0x7FFF : 0;
    for (std::uint64_t pn = low; pn < expected + 0x8000; pn += 97) {
      ASSERT_EQ(expand_packet_number(expected, pn & 0xFFFF), pn)
          << "expected " << expected << " pn " << pn;
    }
  }
}

TEST(QuicWire, DecodedPayloadOutlivesTheDatagramBuffer) {
  std::vector<std::uint8_t> payload(300);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 7);
  }
  QuicPacket p;
  p.type = PacketType::kOneRtt;
  p.packet_number = 9;
  p.frames.push_back(Frame::stream(8, 0, buf(payload), true));
  util::Buffer datagram = encode_datagram(std::span(&p, 1), true);
  const std::uint8_t* const wire = datagram.data();
  const std::size_t wire_size = datagram.size();

  DecodedDatagram decoded;
  ASSERT_TRUE(decode_datagram(datagram, decoded));
  const Frame frame = decoded.packets[0].frames[0];
  // A slice of the datagram, not a copy of it.
  EXPECT_GE(frame.data.data(), wire);
  EXPECT_LE(frame.data.data() + frame.data.size(), wire + wire_size);

  decoded.packets.clear();
  datagram.clear();
  // Had the slab gone back to the pool, one of these would now hold it.
  std::vector<util::Buffer> churn;
  for (int i = 0; i < 8; ++i) {
    util::Buffer b = util::Buffer::allocate(wire_size);
    std::memset(b.append(wire_size), 0xEE, wire_size);
    churn.push_back(std::move(b));
  }
  EXPECT_EQ(bytes_of(frame.data), payload);
  EXPECT_EQ(frame.stream_id, 8u);
  EXPECT_TRUE(frame.fin);
}

// A differential check against the codec as it stood when every payload
// and ACK range list was its own vector (legacy_quic_codec.h): the slices
// must not move a byte on the wire nor a field in a decoded frame.
class FrozenCodecDiff {
 public:
  explicit FrozenCodecDiff(std::uint64_t seed) : rng_(seed) {}

  /// One packet of `type` in both representations, with identical content.
  std::pair<legacy::QuicPacket, QuicPacket> packet(PacketType type) {
    legacy::QuicPacket want;
    QuicPacket got;
    want.type = got.type = type;
    want.version = got.version =
        rng_.chance(0.5) ? QuicVersion::kV1 : QuicVersion::kDraft29;
    want.dcid = got.dcid = u64(0, 1ll << 40);
    want.scid = got.scid = u64(0, 1ll << 40);
    want.packet_number = got.packet_number = u64(0, 0xFFFF);
    if (type == PacketType::kVersionNegotiation) {
      want.version = got.version = QuicVersion::kV1;
      const int n = static_cast<int>(rng_.uniform_int(0, 4));
      for (int i = 0; i < n; ++i) {
        const auto v = static_cast<QuicVersion>(u64(1, 0xFFFFFFFF));
        want.supported_versions.push_back(v);
        got.supported_versions.push_back(v);
      }
      return {std::move(want), std::move(got)};
    }
    if (type == PacketType::kRetry ||
        (type == PacketType::kInitial && rng_.chance(0.5))) {
      want.token = got.token = bytes(type == PacketType::kRetry ? 1 : 0, 64);
    }
    if (type == PacketType::kRetry) return {std::move(want), std::move(got)};
    const int frames = static_cast<int>(rng_.uniform_int(1, 5));
    for (int i = 0; i < frames; ++i) add_frame(want, got);
    return {std::move(want), std::move(got)};
  }

  Rng& rng() { return rng_; }

 private:
  std::uint64_t u64(std::int64_t lo, std::int64_t hi) {
    return static_cast<std::uint64_t>(rng_.uniform_int(lo, hi));
  }
  std::vector<std::uint8_t> bytes(std::int64_t min, std::int64_t max) {
    std::vector<std::uint8_t> out(u64(min, max));
    for (auto& b : out) b = static_cast<std::uint8_t>(u64(0, 255));
    return out;
  }
  /// `payload` as the middle of a larger buffer, as a split frame holds it.
  util::Buffer slice(const std::vector<std::uint8_t>& payload) {
    const std::vector<std::uint8_t> head = bytes(0, 40);
    const std::vector<std::uint8_t> tail = bytes(0, 40);
    std::vector<std::uint8_t> whole = head;
    whole.insert(whole.end(), payload.begin(), payload.end());
    whole.insert(whole.end(), tail.begin(), tail.end());
    util::Buffer b = util::Buffer::copy_of(whole);
    b.drop_front(head.size());
    b.drop_back(tail.size());
    return b;
  }

  void add_frame(legacy::QuicPacket& want, QuicPacket& got) {
    switch (rng_.uniform_int(0, 7)) {
      case 0: {  // ACK, up to six ranges, varints of every width
        std::vector<AckRange> ranges;
        std::uint64_t next = u64(0, 1) == 0 ? u64(0, 100) : u64(0, 1ll << 40);
        const int count = static_cast<int>(rng_.uniform_int(1, 6));
        for (int i = 0; i < count; ++i) {
          const std::uint64_t first = next;
          const std::uint64_t last = first + u64(0, 300);
          ranges.push_back({first, last});
          next = last + 2 + u64(0, 20000);
        }
        std::reverse(ranges.begin(), ranges.end());
        const auto& stored = ack_storage_.emplace_back(ranges);
        want.frames.push_back(legacy::Frame::ack(ranges));
        got.frames.push_back(Frame::ack(stored));
        break;
      }
      case 1: {
        const std::uint64_t offset = u64(0, 1ll << 20);
        const std::vector<std::uint8_t> data = bytes(0, 600);
        want.frames.push_back(legacy::Frame::crypto(offset, data));
        got.frames.push_back(Frame::crypto(offset, slice(data)));
        break;
      }
      case 2: {
        const std::uint64_t id = u64(0, 5000) * 4;
        const std::uint64_t offset = u64(0, 1ll << 32);
        const std::vector<std::uint8_t> data = bytes(0, 600);
        const bool fin = rng_.chance(0.5);
        want.frames.push_back(legacy::Frame::stream(id, offset, data, fin));
        got.frames.push_back(Frame::stream(id, offset, slice(data), fin));
        break;
      }
      case 3: {
        const std::vector<std::uint8_t> token = bytes(1, 64);
        want.frames.push_back(legacy::Frame::new_token(token));
        got.frames.push_back(Frame::new_token(token));
        break;
      }
      case 4: {
        const std::uint64_t code = u64(0, 0x1FF);
        const std::vector<std::uint8_t> text = bytes(0, 30);
        const std::string reason(text.begin(), text.end());
        want.frames.push_back(legacy::Frame::connection_close(code, reason));
        got.frames.push_back(Frame::connection_close(code, reason));
        break;
      }
      case 5:
        want.frames.push_back(legacy::Frame::ping());
        got.frames.push_back(Frame::ping());
        break;
      case 6:
        want.frames.push_back(legacy::Frame::handshake_done());
        got.frames.push_back(Frame::handshake_done());
        break;
      default:
        want.frames.push_back(legacy::Frame{});  // PADDING
        got.frames.push_back(Frame{});
        break;
    }
  }

  Rng rng_;
  std::deque<std::vector<AckRange>> ack_storage_;
};

void expect_same_packet(const legacy::QuicPacket& want, const QuicPacket& got) {
  EXPECT_EQ(got.type, want.type);
  EXPECT_EQ(got.version, want.version);
  EXPECT_EQ(got.dcid, want.dcid);
  EXPECT_EQ(got.scid, want.scid);
  EXPECT_EQ(got.packet_number, want.packet_number);
  EXPECT_EQ(got.token, want.token);
  EXPECT_EQ(got.supported_versions, want.supported_versions);
  ASSERT_EQ(got.frames.size(), want.frames.size());
  for (std::size_t i = 0; i < want.frames.size(); ++i) {
    const legacy::Frame& w = want.frames[i];
    const Frame& g = got.frames[i];
    EXPECT_EQ(g.type, w.type) << "frame " << i;
    EXPECT_EQ(ranges_of(g), w.ack_ranges) << "frame " << i;
    EXPECT_EQ(g.offset, w.offset) << "frame " << i;
    EXPECT_EQ(bytes_of(g.data), w.data) << "frame " << i;
    EXPECT_EQ(g.stream_id, w.stream_id) << "frame " << i;
    EXPECT_EQ(g.fin, w.fin) << "frame " << i;
    EXPECT_EQ(g.token, w.token) << "frame " << i;
    EXPECT_EQ(g.error_code, w.error_code) << "frame " << i;
    EXPECT_EQ(g.reason, w.reason) << "frame " << i;
  }
}

TEST(QuicWire, MatchesFrozenVectorCodec) {
  const PacketType types[] = {
      PacketType::kInitial,   PacketType::kZeroRtt,
      PacketType::kHandshake, PacketType::kOneRtt,
      PacketType::kRetry,     PacketType::kVersionNegotiation};
  FrozenCodecDiff diff(4242);
  DecodedDatagram decoded;
  for (int i = 0; i < 3000; ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    // One packet: identical bytes and size, then identical fields.
    auto [want, got] = diff.packet(types[i % 6]);
    const std::vector<std::uint8_t> legacy_wire = legacy::encode_packet(want);
    const util::Buffer wire = encode_packet(got);
    ASSERT_EQ(bytes_of(wire), legacy_wire);
    ASSERT_EQ(encoded_packet_size(got), legacy::encoded_packet_size(want));
    auto legacy_decoded = legacy::decode_datagram(legacy_wire);
    ASSERT_EQ(decode_datagram(wire, decoded), legacy_decoded.has_value());
    if (legacy_decoded) {
      ASSERT_EQ(decoded.packets.size(), legacy_decoded->size());
      for (std::size_t p = 0; p < decoded.packets.size(); ++p) {
        expect_same_packet((*legacy_decoded)[p], decoded.packets[p]);
      }
    }

    // Coalesced long-header and 1-RTT packets: the ACK ranges of several
    // packets share one decode target.
    std::vector<QuicPacket> coalesced;
    std::vector<std::uint8_t> legacy_datagram;
    const int count = static_cast<int>(diff.rng().uniform_int(2, 3));
    for (int c = 0; c < count; ++c) {
      auto [w, g] = diff.packet(types[diff.rng().uniform_int(0, 3)]);
      const auto bytes = legacy::encode_packet(w);
      legacy_datagram.insert(legacy_datagram.end(), bytes.begin(), bytes.end());
      coalesced.push_back(std::move(g));
    }
    const util::Buffer datagram =
        encode_datagram(coalesced, /*sender_is_client=*/false);
    // The same packets back to back, then the server's padding, if any.
    ASSERT_GE(datagram.size(), legacy_datagram.size());
    ASSERT_TRUE(std::equal(legacy_datagram.begin(), legacy_datagram.end(),
                           datagram.data()));

    // Corrupted and truncated bytes: both accept, or both reject.
    std::vector<std::uint8_t> mangled = bytes_of(datagram);
    mangled[static_cast<std::size_t>(diff.rng().uniform_int(
        0, static_cast<std::int64_t>(mangled.size()) - 1))] ^=
        static_cast<std::uint8_t>(diff.rng().uniform_int(1, 255));
    if (diff.rng().chance(0.3)) {
      mangled.resize(static_cast<std::size_t>(diff.rng().uniform_int(
          0, static_cast<std::int64_t>(mangled.size()))));
    }
    for (const std::vector<std::uint8_t>& input :
         {bytes_of(datagram), mangled}) {
      auto want_packets = legacy::decode_datagram(input);
      ASSERT_EQ(decode_datagram(buf(input), decoded),
                want_packets.has_value());
      if (!want_packets) continue;
      ASSERT_EQ(decoded.packets.size(), want_packets->size());
      for (std::size_t p = 0; p < decoded.packets.size(); ++p) {
        expect_same_packet((*want_packets)[p], decoded.packets[p]);
      }
    }
  }
}

// ------------------------------------------------------------- ACK walk

TEST(QuicAckWalk, MatchesFullScanOnRandomQueues) {
  Rng rng(2424);
  for (int round = 0; round < 2000; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Packets in flight: ascending numbers with gaps where earlier
    // packets were acknowledged or declared lost.
    std::deque<SentPacket> sent;
    std::uint64_t pn = static_cast<std::uint64_t>(
        rng.chance(0.5) ? rng.uniform_int(0, 50) : rng.uniform_int(0, 1 << 20));
    const int in_flight = static_cast<int>(rng.uniform_int(0, 300));
    for (int i = 0; i < in_flight; ++i) {
      SentPacket p;
      p.pn = pn;
      p.sent_at = 1000 * pn + rng.uniform_int(0, 999);
      p.size = static_cast<std::size_t>(rng.uniform_int(30, 1252));
      p.retransmittable.push_back(Frame::ping());
      sent.push_back(std::move(p));
      pn += 1 + (rng.chance(0.2)
                     ? static_cast<std::uint64_t>(rng.uniform_int(1, 6))
                     : 0);
    }
    // An ACK frame: descending ranges from around the newest packet down,
    // some reaching below the oldest in flight.
    std::vector<AckRange> ranges;
    std::int64_t top = static_cast<std::int64_t>(pn) + rng.uniform_int(-40, 10);
    const int count = static_cast<int>(rng.uniform_int(1, 12));
    for (int i = 0; i < count && top >= 0; ++i) {
      const std::int64_t first =
          std::max<std::int64_t>(0, top - rng.uniform_int(0, 40));
      ranges.push_back({static_cast<std::uint64_t>(first),
                        static_cast<std::uint64_t>(top)});
      top = first - 2 - rng.uniform_int(0, 30);
    }
    const Frame ack = Frame::ack(ranges);

    // The full scan the walk replaces: every packet against every range.
    std::vector<std::uint64_t> want_left;
    std::size_t want_bytes = 0;
    std::size_t want_count = 0;
    std::optional<SimTime> want_rtt_sent_at;
    SimTime want_newest = 0;
    for (const SentPacket& p : sent) {
      if (!ack.acks(p.pn)) {
        want_left.push_back(p.pn);
        continue;
      }
      ++want_count;
      want_bytes += p.size;
      want_newest = p.sent_at;
      if (p.pn == ranges.front().last) want_rtt_sent_at = p.sent_at;
    }
    std::size_t in_flight_bytes = 0;
    for (const SentPacket& p : sent) in_flight_bytes += p.size;

    std::vector<std::vector<Frame>> spare;
    const AckedPackets acked = acknowledge(sent, ack.ack_ranges, spare);
    std::vector<std::uint64_t> left;
    std::size_t left_bytes = 0;
    for (const SentPacket& p : sent) {
      left.push_back(p.pn);
      left_bytes += p.size;
    }
    ASSERT_EQ(left, want_left);
    ASSERT_EQ(acked.count, want_count);
    ASSERT_EQ(acked.bytes, want_bytes);
    ASSERT_EQ(in_flight_bytes - acked.bytes, left_bytes);
    ASSERT_EQ(acked.largest_sent_at, want_rtt_sent_at);
    if (want_count > 0) {
      ASSERT_EQ(acked.newest_sent_at, want_newest);
    }
    ASSERT_EQ(spare.size(), want_count);
    for (const auto& frames : spare) ASSERT_TRUE(frames.empty());
  }
}

// ------------------------------------------------------------- range set

/// The ACK ranges of a plain std::set of packet numbers: maximal runs,
/// largest first.
std::vector<AckRange> reference_ack_ranges(const std::set<std::uint64_t>& pns) {
  std::vector<AckRange> ranges;
  for (std::uint64_t pn : pns) {
    if (!ranges.empty() && ranges.back().last + 1 == pn) {
      ranges.back().last = pn;
    } else {
      ranges.push_back(AckRange{pn, pn});
    }
  }
  std::reverse(ranges.begin(), ranges.end());
  return ranges;
}

/// A seeded packet-number arrival stream. Odd seeds: a fully shuffled block
/// with duplicates. Even seeds: mostly in order, with numbers held back and
/// delivered later (gaps that fill), numbers never sent (gaps that stay),
/// duplicates of earlier arrivals and adjacent swaps.
std::vector<std::uint64_t> arrival_stream(std::uint64_t seed,
                                          std::size_t count) {
  Rng rng(seed);
  std::vector<std::uint64_t> out;
  if (seed % 2 == 1) {
    for (std::uint64_t pn = 0; pn < count; ++pn) out.push_back(pn);
    for (std::size_t i = 0; i < count / 5; ++i) {
      out.push_back(static_cast<std::uint64_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(count) - 1)));
    }
    rng.shuffle(out);
    return out;
  }
  std::vector<std::uint64_t> held;
  std::uint64_t next = static_cast<std::uint64_t>(rng.uniform_int(0, 3));
  while (out.size() < count) {
    const double roll = rng.uniform_real(0.0, 1.0);
    if (roll < 0.55) {
      out.push_back(next++);
    } else if (roll < 0.65) {
      held.push_back(next++);
    } else if (roll < 0.72) {
      next += static_cast<std::uint64_t>(rng.uniform_int(1, 20));
    } else if (roll < 0.82 && !out.empty()) {
      out.push_back(out[static_cast<std::size_t>(rng.uniform_int(
          0, static_cast<std::int64_t>(out.size()) - 1))]);
    } else if (roll < 0.95 && !held.empty()) {
      const auto i = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(held.size()) - 1));
      out.push_back(held[i]);
      held.erase(held.begin() + static_cast<std::ptrdiff_t>(i));
    } else {
      out.push_back(next + 1);
      out.push_back(next);
      next += 2;
    }
  }
  return out;
}

TEST(RangeSet, MatchesStdSetReferenceOnRandomStreams) {
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    RangeSet ranges;
    std::set<std::uint64_t> reference;
    Rng probe(seed * 977);
    for (std::uint64_t pn : arrival_stream(seed, 1500)) {
      ASSERT_EQ(ranges.insert(pn), reference.insert(pn).second)
          << "seed " << seed << " pn " << pn;
      ASSERT_EQ(descending(ranges), reference_ack_ranges(reference))
          << "seed " << seed << " after pn " << pn;
      const std::uint64_t top = *reference.rbegin();
      for (std::uint64_t v :
           {pn - 1, pn, pn + 1, top + 1,
            static_cast<std::uint64_t>(probe.uniform_int(
                0, static_cast<std::int64_t>(top) + 2))}) {
        ASSERT_EQ(ranges.contains(v), reference.contains(v))
            << "seed " << seed << " probe " << v;
      }
    }
  }
}

TEST(RangeSet, MergesBothNeighboursAndKeepsRunsMaximal) {
  RangeSet ranges;
  EXPECT_TRUE(ranges.empty());
  for (std::uint64_t pn : {0, 1, 2, 5, 6, 9}) EXPECT_TRUE(ranges.insert(pn));
  EXPECT_EQ(descending(ranges),
            (std::vector<AckRange>{{9, 9}, {5, 6}, {0, 2}}));
  EXPECT_FALSE(ranges.insert(6));
  EXPECT_TRUE(ranges.insert(4));  // extends {5, 6} downwards
  EXPECT_TRUE(ranges.insert(3));  // joins {0, 2} and {4, 6}
  EXPECT_TRUE(ranges.insert(8));  // extends {9, 9} downwards
  EXPECT_EQ(descending(ranges), (std::vector<AckRange>{{8, 9}, {0, 6}}));
  EXPECT_TRUE(ranges.insert(7));
  EXPECT_EQ(descending(ranges), (std::vector<AckRange>{{0, 9}}));
  ranges.clear();
  EXPECT_TRUE(ranges.empty());
  EXPECT_FALSE(ranges.contains(0));
}

/// A client connection driven by hand: server packets are fed straight into
/// it and its datagrams are kept for inspection.
class BareClient {
 public:
  BareClient() {
    QuicConnection::Callbacks callbacks;
    callbacks.send_datagram = [this](util::Buffer bytes) {
      sent_.push_back(std::move(bytes));
    };
    QuicConfig config;
    config.tls.alpn = {"doq"};
    config.tls.sni = "resolver.example";
    conn_ = QuicConnection::make_client(sim_, config, std::move(callbacks));
    conn_->connect();
  }

  QuicConnection& conn() { return *conn_; }

  void deliver(const QuicPacket& packet) {
    conn_->on_datagram(encode_packet(packet));
  }

  /// An ack-eliciting server INITIAL with packet number `pn`.
  void deliver_initial(std::uint64_t pn) {
    QuicPacket p;
    p.type = PacketType::kInitial;
    p.version = conn_->version();
    p.scid = 0x5EC0DE5EC0DE5EC0ull;
    p.packet_number = pn;
    p.frames.push_back(Frame::ping());
    deliver(p);
  }

  /// Ranges of the last INITIAL ACK the client sent since `clear()`, or
  /// none.
  std::vector<AckRange> last_initial_ack() const {
    DecodedDatagram decoded;
    for (auto it = sent_.rbegin(); it != sent_.rend(); ++it) {
      if (!decode_datagram(*it, decoded)) continue;
      for (const QuicPacket& p : decoded.packets) {
        if (p.type != PacketType::kInitial) continue;
        for (const Frame& f : p.frames) {
          if (f.type == FrameType::kAck) return ranges_of(f);
        }
      }
    }
    return {};
  }

  void clear() { sent_.clear(); }
  bool sent_anything() const { return !sent_.empty(); }

 private:
  sim::Simulator sim_;
  std::vector<util::Buffer> sent_;
  std::shared_ptr<QuicConnection> conn_;
};

TEST(QuicAckState, RetryAndVersionNegotiationResetReceivedPackets) {
  for (const bool retry : {true, false}) {
    SCOPED_TRACE(retry ? "Retry" : "Version Negotiation");
    BareClient client;
    client.deliver_initial(5);
    client.deliver_initial(6);
    EXPECT_EQ(client.last_initial_ack(), (std::vector<AckRange>{{5, 6}}));
    client.deliver_initial(6);  // duplicate: dropped, nothing to ack
    EXPECT_EQ(client.last_initial_ack(), (std::vector<AckRange>{{5, 6}}));

    client.clear();
    QuicPacket restart;
    if (retry) {
      restart.type = PacketType::kRetry;
      AddressToken token;
      token.from_retry = true;
      restart.token = token.encode();
    } else {
      restart.type = PacketType::kVersionNegotiation;
      restart.supported_versions = {QuicVersion::kDraft29};
    }
    client.deliver(restart);
    ASSERT_TRUE(client.sent_anything());  // the handshake restarted
    EXPECT_EQ(client.conn().version(),
              retry ? QuicVersion::kV1 : QuicVersion::kDraft29);

    // Packet 5 is new again after the restart, and 6 is forgotten.
    client.clear();
    client.deliver_initial(5);
    EXPECT_EQ(client.last_initial_ack(), (std::vector<AckRange>{{5, 5}}));
  }
}

// ------------------------------------------------------------- connections

class QuicFixture : public ::testing::Test {
 protected:
  QuicFixture()
      : network_(sim_, Rng(11)),
        client_host_(network_.add_host("client",
                                       IpAddress::from_octets(10, 0, 0, 1),
                                       {50.11, 8.68}, Continent::kEurope)),
        server_host_(network_.add_host("server",
                                       IpAddress::from_octets(10, 0, 0, 2),
                                       {52.37, 4.90}, Continent::kEurope)),
        client_udp_(client_host_),
        server_udp_(server_host_) {
    network_.set_loss_rate(0.0);
    network_.set_path_override(client_host_.address(), server_host_.address(),
                               from_ms(10));
  }

  QuicConfig server_config() {
    QuicConfig c;
    c.tls.alpn = {"doq"};
    c.tls.ticket_secret = 0xD0C;
    c.tls.certificate_chain_size = 3000;
    return c;
  }

  /// Starts a DoQ-style echo server: answers every stream with its own
  /// payload reversed, fin set.
  void start_server(QuicConfig config) {
    server_ = std::make_unique<QuicServer>(sim_, server_udp_, 853, config);
    server_->on_accept([this](const std::shared_ptr<QuicConnection>& conn,
                              const Endpoint&) {
      accepted_.push_back(conn);
      // Raw capture: the server (and accepted_) own the connection; a
      // shared capture in its own handler would leak it as a cycle.
      conn->set_on_stream_data([c = conn.get()](
                                   std::uint64_t id,
                                   std::span<const std::uint8_t> data,
                                   bool fin) {
        if (!fin) return;
        c->send_stream(id, buf({data.rbegin(), data.rend()}), true);
      });
    });
  }

  /// Creates a client connection with standard bookkeeping.
  std::shared_ptr<QuicConnection> make_client(QuicConfig config) {
    client_socket_ = client_udp_.bind_ephemeral();
    QuicConnection::Callbacks callbacks;
    callbacks.send_datagram = [this](util::Buffer bytes) {
      client_socket_->send_to(Endpoint{server_host_.address(), 853},
                              std::move(bytes));
    };
    callbacks.on_handshake_complete = [this](const QuicHandshakeInfo& info) {
      client_info_ = info;
      handshake_done_at_ = sim_.now();
    };
    callbacks.on_stream_data = [this](std::uint64_t id,
                                      std::span<const std::uint8_t> data,
                                      bool fin) {
      stream_data_[id].insert(stream_data_[id].end(), data.begin(),
                              data.end());
      if (fin) {
        stream_fin_[id] = true;
        stream_fin_at_[id] = sim_.now();
      }
    };
    callbacks.on_new_ticket = [this](const tls::SessionTicket& t) {
      tickets_.push_back(t);
    };
    callbacks.on_new_token = [this](const AddressToken& t) {
      tokens_.push_back(t);
    };
    callbacks.on_closed = [this](const util::Error& error) {
      close_reasons_.push_back(error);
    };
    auto conn = QuicConnection::make_client(sim_, std::move(config),
                                            std::move(callbacks));
    client_socket_->on_datagram(
        [conn](const Endpoint&, util::Buffer payload) {
          conn->on_datagram(payload);
        });
    return conn;
  }

  QuicConfig client_config() {
    QuicConfig c;
    c.tls.alpn = {"doq"};
    c.tls.sni = "resolver.example";
    return c;
  }

  /// Warm a session fully: returns (ticket, token) learned from the server.
  std::pair<tls::SessionTicket, AddressToken> warm_session() {
    auto conn = make_client(client_config());
    conn->connect();
    sim_.run_until(sim_.now() + 3 * kSecond);
    EXPECT_FALSE(tickets_.empty());
    EXPECT_FALSE(tokens_.empty());
    conn->close();
    auto result = std::make_pair(tickets_.back(), tokens_.back());
    tickets_.clear();
    tokens_.clear();
    client_info_.reset();
    return result;
  }

  sim::Simulator sim_;
  net::Network network_;
  net::Host& client_host_;
  net::Host& server_host_;
  net::UdpStack client_udp_;
  net::UdpStack server_udp_;
  std::unique_ptr<QuicServer> server_;
  std::unique_ptr<net::UdpSocket> client_socket_;
  std::vector<std::shared_ptr<QuicConnection>> accepted_;
  std::optional<QuicHandshakeInfo> client_info_;
  SimTime handshake_done_at_ = -1;
  std::map<std::uint64_t, std::vector<std::uint8_t>> stream_data_;
  std::map<std::uint64_t, bool> stream_fin_;
  std::map<std::uint64_t, SimTime> stream_fin_at_;
  std::vector<tls::SessionTicket> tickets_;
  std::vector<AddressToken> tokens_;
  std::vector<util::Error> close_reasons_;
};

TEST_F(QuicFixture, FullHandshakeCompletesInOneRtt) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->resumed);
  EXPECT_EQ(client_info_->alpn, "doq");
  EXPECT_EQ(client_info_->version, QuicVersion::kV1);
  // 1 RTT = 20 ms; full handshake with a 3000-byte cert may stall on the
  // amplification limit (client INITIAL is 1208+8 bytes -> budget ~3.6KB,
  // server flight ~4.3KB) costing one extra RTT.
  EXPECT_GE(handshake_done_at_, from_ms(20));
  EXPECT_LT(handshake_done_at_, from_ms(65));
}

TEST_F(QuicFixture, HandshakeIssuesTicketAndToken) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_FALSE(tickets_.empty());
  EXPECT_EQ(tickets_[0].server_secret, 0xD0Cu);
  ASSERT_FALSE(tokens_.empty());
  EXPECT_EQ(tokens_[0].client_ip, client_host_.address().value());
}

TEST_F(QuicFixture, StreamEchoRoundTrip) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  std::uint64_t id = conn->open_stream(buf({1, 2, 3}), true);
  sim_.run_until(3 * kSecond);
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{3, 2, 1}));
  EXPECT_TRUE(stream_fin_[id]);
}

TEST_F(QuicFixture, MultipleStreamsGetDistinctIds) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  std::uint64_t a = conn->open_stream(buf({1}), true);
  std::uint64_t b = conn->open_stream(buf({2}), true);
  sim_.run_until(3 * kSecond);
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 4u);
  EXPECT_EQ(stream_data_[a], (std::vector<std::uint8_t>{1}));
  EXPECT_EQ(stream_data_[b], (std::vector<std::uint8_t>{2}));
}

TEST_F(QuicFixture, ResumedHandshakeAvoidsAmplificationStall) {
  start_server(server_config());
  auto [ticket, token] = warm_session();

  auto conn = make_client(client_config());
  conn->connect(ticket, token);
  const SimTime t0 = sim_.now();
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->resumed);
  EXPECT_TRUE(client_info_->presented_token);
  EXPECT_FALSE(client_info_->amplification_stall);
  // Exactly 1 RTT (20ms) + jitter.
  EXPECT_GE(handshake_done_at_ - t0, from_ms(20));
  EXPECT_LT(handshake_done_at_ - t0, from_ms(30));
}

TEST_F(QuicFixture, FullHandshakeWithLargeCertStallsOnAmplification) {
  QuicConfig cfg = server_config();
  cfg.tls.certificate_chain_size = 5000;  // server flight far above 3x budget
  start_server(cfg);
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  // The *server* saw the block; the client paid an extra round trip.
  ASSERT_FALSE(accepted_.empty());
  ASSERT_TRUE(accepted_[0]->info().has_value());
  EXPECT_TRUE(accepted_[0]->info()->amplification_stall);
  EXPECT_GE(handshake_done_at_, from_ms(40));  // 2+ RTT
}

TEST_F(QuicFixture, TokenAloneSkipsAmplificationLimit) {
  QuicConfig cfg = server_config();
  cfg.tls.certificate_chain_size = 5000;
  start_server(cfg);
  auto [ticket, token] = warm_session();
  (void)ticket;

  // Token without ticket: full handshake (cert flight) but address is
  // validated up front, so no stall despite the big cert.
  auto conn = make_client(client_config());
  conn->connect(std::nullopt, token);
  const SimTime t0 = sim_.now();
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->resumed);
  ASSERT_FALSE(accepted_.empty());
  ASSERT_GE(accepted_.size(), 2u);
  ASSERT_TRUE(accepted_[1]->info().has_value());
  EXPECT_FALSE(accepted_[1]->info()->amplification_stall);
  EXPECT_LT(handshake_done_at_ - t0, from_ms(30));
}

TEST_F(QuicFixture, ZeroRttDeliversQueryWithFirstFlight) {
  QuicConfig scfg = server_config();
  scfg.tls.enable_0rtt = true;
  start_server(scfg);
  auto [ticket, token] = warm_session();
  EXPECT_TRUE(ticket.allow_early_data);

  QuicConfig ccfg = client_config();
  ccfg.tls.enable_0rtt = true;
  auto conn = make_client(ccfg);
  const SimTime t0 = sim_.now();
  std::uint64_t id = conn->open_stream(buf({5, 6, 7}), true);  // queued pre-connect
  conn->connect(ticket, token);
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->early_data_accepted);
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{7, 6, 5}));
  // Reply arrives ~1 RTT after the first flight (echo sent with the
  // server's handshake flight).
  EXPECT_LT(stream_fin_at_[id] - t0, from_ms(30));
}

TEST_F(QuicFixture, ZeroRttRejectedIsRetransmitted) {
  QuicConfig issuing = server_config();
  issuing.tls.enable_0rtt = true;
  start_server(issuing);
  auto [ticket, token] = warm_session();

  // Server restarts with 0-RTT disabled (what the paper observed: nobody
  // accepts early data).
  server_.reset();
  accepted_.clear();
  QuicConfig strict = server_config();
  strict.tls.enable_0rtt = false;
  start_server(strict);

  QuicConfig ccfg = client_config();
  ccfg.tls.enable_0rtt = true;
  auto conn = make_client(ccfg);
  std::uint64_t id = conn->open_stream(buf({9}), true);
  conn->connect(ticket, token);
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->early_data_accepted);
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{9}));
}

TEST_F(QuicFixture, RetryAddsRoundTripWithoutToken) {
  QuicConfig cfg = server_config();
  cfg.require_retry = true;
  start_server(cfg);
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->used_retry);
  EXPECT_EQ(server_->retries_sent(), 1u);
  // Retry costs a full extra RTT before the normal handshake.
  EXPECT_GE(handshake_done_at_, from_ms(40));
}

TEST_F(QuicFixture, TokenSuppressesRetry) {
  QuicConfig cfg = server_config();
  cfg.require_retry = true;
  start_server(cfg);
  auto [ticket, token] = warm_session();

  auto conn = make_client(client_config());
  conn->connect(ticket, token);
  const SimTime t0 = sim_.now();
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->used_retry);
  EXPECT_LT(handshake_done_at_ - t0, from_ms(30));
}

TEST_F(QuicFixture, VersionNegotiationWhenClientGuessesWrong) {
  QuicConfig scfg = server_config();
  scfg.supported = {QuicVersion::kDraft29};  // old server
  start_server(scfg);
  QuicConfig ccfg = client_config();
  ccfg.version = QuicVersion::kV1;
  auto conn = make_client(ccfg);
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_TRUE(client_info_->used_version_negotiation);
  EXPECT_EQ(client_info_->version, QuicVersion::kDraft29);
  EXPECT_EQ(server_->version_negotiations_sent(), 1u);
  EXPECT_GE(handshake_done_at_, from_ms(40));  // +1 RTT
}

TEST_F(QuicFixture, KnownVersionAvoidsNegotiation) {
  QuicConfig scfg = server_config();
  scfg.supported = {QuicVersion::kDraft29};
  start_server(scfg);
  QuicConfig ccfg = client_config();
  ccfg.version = QuicVersion::kDraft29;  // learned during cache warming
  auto conn = make_client(ccfg);
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(client_info_->used_version_negotiation);
  EXPECT_EQ(server_->version_negotiations_sent(), 0u);
}

TEST_F(QuicFixture, HandshakeSurvivesHeavyLoss) {
  network_.set_loss_override(client_host_.address(), server_host_.address(),
                             0.3);
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  std::uint64_t id = conn->open_stream(buf({1, 2}), true);
  sim_.run_until(60 * kSecond);
  EXPECT_TRUE(client_info_.has_value());
  EXPECT_EQ(stream_data_[id], (std::vector<std::uint8_t>{2, 1}));
  EXPECT_GT(conn->pto_count_total() +
                (accepted_.empty() ? 0 : accepted_[0]->pto_count_total()),
            0u);
}

TEST_F(QuicFixture, UnreachableServerTimesOut) {
  // No server started; INITIAL PTOs then gives up.
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(600 * kSecond);
  EXPECT_TRUE(conn->closed());
  ASSERT_FALSE(close_reasons_.empty());
  EXPECT_EQ(close_reasons_[0].cls, util::ErrorClass::kTimeout);
}

TEST_F(QuicFixture, ClientCloseSendsConnectionClose) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_EQ(accepted_.size(), 1u);
  bool server_closed = false;
  accepted_[0]->set_on_closed(
      [&](const util::Error&) { server_closed = true; });
  conn->close();
  sim_.run_until(sim_.now() + kSecond);
  EXPECT_TRUE(conn->closed());
  EXPECT_TRUE(server_closed);
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(QuicFixture, IdleTimeoutClosesConnection) {
  QuicConfig scfg = server_config();
  scfg.idle_timeout = 5 * kSecond;
  start_server(scfg);
  QuicConfig ccfg = client_config();
  ccfg.idle_timeout = 5 * kSecond;
  auto conn = make_client(ccfg);
  conn->connect();
  sim_.run_until(30 * kSecond);
  EXPECT_TRUE(conn->closed());
  // The server's side closed on its own idle timer, and left the map.
  EXPECT_EQ(server_->connection_count(), 0u);
}

TEST_F(QuicFixture, StreamsSurviveExtremeJitterReordering) {
  // Crank jitter so datagrams frequently reorder; stream payloads must
  // still deliver exactly once, in order.
  net::LatencyConfig lat;
  lat.jitter_mu_ms = 2.0;  // median ~7 ms jitter vs 10 ms propagation
  lat.jitter_sigma = 1.0;
  // Rebuild the fixture network pieces with the aggressive latency model.
  sim::Simulator sim;
  net::Network network(sim, Rng(77), net::LatencyModel(lat));
  network.set_loss_rate(0.0);
  auto& ch = network.add_host("c", IpAddress::from_octets(10, 9, 0, 1),
                              {50, 8}, Continent::kEurope);
  auto& sh = network.add_host("s", IpAddress::from_octets(10, 9, 0, 2),
                              {51, 9}, Continent::kEurope);
  network.set_path_override(ch.address(), sh.address(), from_ms(10));
  net::UdpStack cu(ch), su(sh);
  QuicConfig scfg;
  scfg.tls.alpn = {"doq"};
  scfg.tls.ticket_secret = 0x1;
  QuicServer server(sim, su, 853, scfg);
  std::map<std::uint64_t, std::vector<std::uint8_t>> echoed;
  server.on_accept([&](const std::shared_ptr<QuicConnection>& conn,
                       const Endpoint&) {
    // Accumulate per stream: reordering may deliver a stream in chunks.
    auto buffers = std::make_shared<
        std::map<std::uint64_t, std::vector<std::uint8_t>>>();
    // Raw capture: the server owns the connection; a shared capture in its
    // own handler would leak it as a cycle.
    conn->set_on_stream_data([c = conn.get(), buffers](
                                 std::uint64_t id,
                                 std::span<const std::uint8_t> d, bool fin) {
      auto& buffer = (*buffers)[id];
      buffer.insert(buffer.end(), d.begin(), d.end());
      if (fin) c->send_stream(id, buf(buffer), true);
    });
  });
  auto socket = cu.bind_ephemeral();
  QuicConnection::Callbacks callbacks;
  callbacks.send_datagram = [&](util::Buffer bytes) {
    socket->send_to(Endpoint{sh.address(), 853}, std::move(bytes));
  };
  callbacks.on_stream_data = [&](std::uint64_t id,
                                 std::span<const std::uint8_t> d, bool) {
    echoed[id].insert(echoed[id].end(), d.begin(), d.end());
  };
  auto conn = QuicConnection::make_client(
      sim, QuicConfig{.tls = {.alpn = {"doq"}, .sni = "s"}},
      std::move(callbacks));
  socket->on_datagram([conn](const Endpoint&,
                             util::Buffer payload) {
    conn->on_datagram(payload);
  });
  conn->connect();
  std::map<std::uint64_t, std::vector<std::uint8_t>> sent;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::uint8_t> payload(200 + i * 37);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>(i + j);
    }
    std::uint64_t id = conn->open_stream(buf(payload), true);
    sent[id] = std::move(payload);
  }
  sim.run_until(60 * kSecond);
  ASSERT_EQ(echoed.size(), sent.size());
  for (const auto& [id, payload] : sent) {
    EXPECT_EQ(echoed[id], payload) << "stream " << id;
  }
}

TEST(QuicStreams, LongConnectionRetiresFinishedStreams) {
  // 20k request/response streams over one connection on a reordering,
  // lossy path. Retransmitted frames for finished streams keep arriving
  // after both ends retired them; each must be dropped, never re-create the
  // stream, and every exchange must complete exactly once.
  net::LatencyConfig lat;
  lat.jitter_mu_ms = 1.0;
  lat.jitter_sigma = 1.0;
  sim::Simulator sim;
  net::Network network(sim, Rng(91), net::LatencyModel(lat));
  network.set_loss_rate(0.0);
  auto& ch = network.add_host("c", IpAddress::from_octets(10, 9, 0, 1),
                              {50, 8}, Continent::kEurope);
  auto& sh = network.add_host("s", IpAddress::from_octets(10, 9, 0, 2),
                              {51, 9}, Continent::kEurope);
  network.set_path_override(ch.address(), sh.address(), from_ms(10));
  network.set_loss_override(ch.address(), sh.address(), 0.03);
  net::UdpStack cu(ch), su(sh);

  QuicConfig scfg;
  scfg.tls.alpn = {"doq"};
  scfg.tls.ticket_secret = 0x1;
  QuicServer server(sim, su, 853, scfg);
  std::shared_ptr<QuicConnection> server_conn;
  std::map<std::uint64_t, int> requests;  // stream id -> FINs delivered
  auto buffers =
      std::make_shared<std::map<std::uint64_t, std::vector<std::uint8_t>>>();
  server.on_accept([&](const std::shared_ptr<QuicConnection>& conn,
                       const Endpoint&) {
    server_conn = conn;
    conn->set_on_stream_data([&requests, buffers, c = conn.get()](
                                 std::uint64_t id,
                                 std::span<const std::uint8_t> d, bool fin) {
      auto& buffer = (*buffers)[id];
      buffer.insert(buffer.end(), d.begin(), d.end());
      if (!fin) return;
      ++requests[id];
      util::Buffer reply = buf({buffer.rbegin(), buffer.rend()});
      buffers->erase(id);
      c->send_stream(id, std::move(reply), true);
    });
  });

  auto socket = cu.bind_ephemeral();
  std::map<std::uint64_t, std::vector<std::uint8_t>> responses;
  std::map<std::uint64_t, int> response_fins;
  std::size_t finished = 0;
  QuicConnection::Callbacks callbacks;
  callbacks.send_datagram = [&](util::Buffer bytes) {
    socket->send_to(Endpoint{sh.address(), 853}, std::move(bytes));
  };
  callbacks.on_stream_data = [&](std::uint64_t id,
                                 std::span<const std::uint8_t> d, bool fin) {
    responses[id].insert(responses[id].end(), d.begin(), d.end());
    if (fin && ++response_fins[id] == 1) ++finished;
  };
  auto conn = QuicConnection::make_client(
      sim, QuicConfig{.tls = {.alpn = {"doq"}, .sni = "s"}},
      std::move(callbacks));
  socket->on_datagram([conn](const Endpoint&, util::Buffer payload) {
    conn->on_datagram(payload);
  });
  conn->connect();

  constexpr std::size_t kStreams = 20'000;
  constexpr std::size_t kWindow = 64;
  auto payload = [](std::size_t i) {
    return std::vector<std::uint8_t>{static_cast<std::uint8_t>(i),
                                     static_cast<std::uint8_t>(i >> 8), 0xD0,
                                     0x0C};
  };
  std::size_t opened = 0;
  while (finished < kStreams && !conn->closed()) {
    while (opened < kStreams && opened - finished < kWindow) {
      ASSERT_EQ(conn->open_stream(buf(payload(opened)), true), 4 * opened);
      ++opened;
    }
    sim.run_until(sim.now() + from_ms(5));
  }
  sim.run_until(sim.now() + 10 * kSecond);  // drain retransmissions

  ASSERT_FALSE(conn->closed());
  ASSERT_EQ(finished, kStreams);
  ASSERT_EQ(responses.size(), kStreams);
  ASSERT_EQ(requests.size(), kStreams);
  for (std::size_t i = 0; i < kStreams; ++i) {
    const std::uint64_t id = 4 * i;
    const std::vector<std::uint8_t> sent = payload(i);
    ASSERT_EQ(requests[id], 1) << "stream " << id;
    ASSERT_EQ(response_fins[id], 1) << "stream " << id;
    ASSERT_EQ(responses[id],
              std::vector<std::uint8_t>(sent.rbegin(), sent.rend()))
        << "stream " << id;
  }
  ASSERT_NE(server_conn, nullptr);
  EXPECT_GT(conn->pto_count_total() + server_conn->pto_count_total(), 0u);
  EXPECT_EQ(conn->live_streams(), 0u);
  EXPECT_EQ(server_conn->live_streams(), 0u);
}

TEST_F(QuicFixture, HandshakeTimeoutWhenServerVanishesMidway) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  // Kill the server host after the first flight leaves.
  sim_.schedule(from_ms(5), [this] { server_host_.set_up(false); });
  sim_.run_until(600 * kSecond);
  EXPECT_TRUE(conn->closed());
  ASSERT_FALSE(close_reasons_.empty());
  EXPECT_EQ(close_reasons_[0].cls, util::ErrorClass::kTimeout);
}

TEST_F(QuicFixture, ClientInitialDatagramIsPadded) {
  start_server(server_config());
  std::size_t first_c2s = 0;
  network_.set_tap([&](const net::Packet& p) {
    if (first_c2s == 0 && p.src.address == client_host_.address()) {
      first_c2s = p.payload.size();
    }
  });
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(kSecond);
  EXPECT_GE(first_c2s, kMinInitialDatagram);
}

TEST_F(QuicFixture, ResumedHandshakeBytesMatchPaperShape) {
  start_server(server_config());
  auto [ticket, token] = warm_session();

  auto conn = make_client(client_config());
  conn->connect(ticket, token);
  std::uint64_t sent_at_complete = 0, received_at_complete = 0;
  conn->set_on_handshake_complete([&](const QuicHandshakeInfo& info) {
    client_info_ = info;
    sent_at_complete = conn->bytes_sent();
    received_at_complete = conn->bytes_received();
  });
  sim_.run_until(sim_.now() + 3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  // Paper Table 1: DoQ handshake C->R 2564 bytes, R->C 1304 bytes. The
  // client sends two padded 1200-byte datagrams (CH, then ACK+Fin); the
  // server sends one padded INITIAL plus a small handshake flight.
  EXPECT_GE(sent_at_complete, 2400u);
  EXPECT_LE(sent_at_complete, 2800u);
  EXPECT_GE(received_at_complete, 1200u);
  EXPECT_LE(received_at_complete, 1500u);
}

// ------------------------------------------- RFC 9002 congestion control

TEST_F(QuicFixture, CcDisabledByDefaultKeepsSeedBehaviour) {
  start_server(server_config());
  auto conn = make_client(client_config());
  conn->connect();
  sim_.run_until(3 * kSecond);
  ASSERT_TRUE(client_info_.has_value());
  EXPECT_FALSE(conn->congestion().config().trace);
  EXPECT_TRUE(conn->congestion().trace().empty());
}

TEST_F(QuicFixture, PacketThresholdLossDetectionDeclaresLosses) {
  // Moderate iid loss with CC on: ack-triggered kPacketThreshold reordering
  // detection must declare losses well before a PTO would fire, and the
  // transfer still completes.
  network_.set_loss_override(client_host_.address(), server_host_.address(),
                             0.1);
  // Custom server that accumulates the whole stream and acks the byte count
  // back once the fin lands (the fixture echo only reflects the last span).
  server_ = std::make_unique<QuicServer>(sim_, server_udp_, 853,
                                         server_config());
  std::size_t server_received = 0;
  server_->on_accept([&](const std::shared_ptr<QuicConnection>& conn,
                         const Endpoint&) {
    accepted_.push_back(conn);
    conn->set_on_stream_data([&server_received, c = conn.get()](
                                 std::uint64_t id,
                                 std::span<const std::uint8_t> data,
                                 bool fin) {
      server_received += data.size();
      if (fin) c->send_stream(id, buf({1}), true);
    });
  });
  QuicConfig config = client_config();
  config.enable_cc = true;
  auto conn = make_client(config);
  conn->connect();
  sim_.run_until(kSecond);
  const std::uint64_t id =
      conn->open_stream(buf(std::vector<std::uint8_t>(120000, 0x3C)), true);
  sim_.run_until(60 * kSecond);
  ASSERT_TRUE(stream_fin_[id]);
  EXPECT_EQ(server_received, 120000u);
  EXPECT_GT(conn->packets_declared_lost(), 0u);
  EXPECT_GT(conn->congestion().loss_episodes(), 0u);
  EXPECT_EQ(conn->bytes_in_flight(), 0u);  // everything acked or declared
}

TEST_F(QuicFixture, CwndTraceShowsSlowStartThenRecovery) {
  network_.set_loss_override(client_host_.address(), server_host_.address(),
                             0.08);
  start_server(server_config());
  QuicConfig config = client_config();
  config.enable_cc = true;
  config.cc_trace = true;
  auto conn = make_client(config);
  conn->connect();
  sim_.run_until(kSecond);
  conn->open_stream(buf(std::vector<std::uint8_t>(150000, 0x77)), true);
  sim_.run_until(30 * kSecond);
  const auto& trace = conn->congestion().trace();
  ASSERT_FALSE(trace.empty());
  bool saw_slow_start = false;
  bool recovery_after_slow_start = false;
  for (const auto& point : trace) {
    if (point.phase == cc::CcPhase::kSlowStart) saw_slow_start = true;
    if (saw_slow_start && point.phase == cc::CcPhase::kRecovery) {
      recovery_after_slow_start = true;
    }
  }
  EXPECT_TRUE(saw_slow_start);
  EXPECT_TRUE(recovery_after_slow_start);
}

TEST_F(QuicFixture, BlackholeCollapsesWindowViaPersistentCongestion) {
  start_server(server_config());
  QuicConfig config = client_config();
  config.enable_cc = true;
  auto conn = make_client(config);
  conn->connect();
  sim_.run_until(kSecond);
  const std::size_t cwnd_before = conn->congestion().cwnd();
  // Black-hole the path mid-transfer: consecutive PTOs with nothing acked
  // in between must trip persistent congestion and floor the window.
  conn->open_stream(buf(std::vector<std::uint8_t>(50000, 0x2A)), true);
  sim_.at(sim_.now() + from_ms(5), [&] {
    network_.set_loss_override(client_host_.address(),
                               server_host_.address(), 1.0);
  });
  sim_.run_until(sim_.now() + 10 * kSecond);
  EXPECT_LT(conn->congestion().cwnd(), cwnd_before);
  EXPECT_EQ(conn->congestion().cwnd(),
            conn->congestion().config().min_window_segments *
                conn->congestion().config().mss);
}

}  // namespace
}  // namespace doxlab::quic
