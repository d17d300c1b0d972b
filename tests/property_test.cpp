// Property-based tests: randomized round-trip, robustness and invariant
// sweeps across the wire codecs, the transport state machines and the
// statistics — the "no input crashes, every encode decodes, order never
// inverts" guarantees that unit examples cannot cover.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>

#include "dns/message.h"
#include "dox/framing.h"
#include "h2/hpack.h"
#include "net/network.h"
#include "net/udp.h"
#include "quic/wire.h"
#include "sim/simulator.h"
#include "stats/stats.h"
#include "tcp/tcp.h"
#include "tls/session.h"
#include "util/rng.h"

namespace doxlab {
namespace {

// ------------------------------------------------------------ DNS codec

dns::DnsName random_name(Rng& rng) {
  const int labels = static_cast<int>(rng.uniform_int(1, 5));
  std::vector<std::string> parts;
  for (int i = 0; i < labels; ++i) {
    const int len = static_cast<int>(rng.uniform_int(1, 20));
    std::string label;
    for (int j = 0; j < len; ++j) {
      label.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    }
    parts.push_back(std::move(label));
  }
  std::string joined;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) joined.push_back('.');
    joined += parts[i];
  }
  return dns::DnsName::parse(joined);
}

dns::Message random_message(Rng& rng) {
  dns::Message m;
  m.id = static_cast<std::uint16_t>(rng.uniform_int(0, 0xFFFF));
  m.qr = rng.chance(0.5);
  m.rd = rng.chance(0.5);
  m.ra = rng.chance(0.5);
  m.tc = rng.chance(0.1);
  m.rcode = rng.chance(0.8) ? dns::RCode::kNoError : dns::RCode::kNXDomain;
  const int questions = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < questions; ++i) {
    m.questions.push_back(dns::Question{
        random_name(rng),
        rng.chance(0.5) ? dns::RRType::kA : dns::RRType::kAAAA,
        dns::RRClass::kIN});
  }
  const int answers = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < answers; ++i) {
    switch (rng.uniform_int(0, 2)) {
      case 0:
        m.answers.push_back(dns::make_a(
            random_name(rng), static_cast<std::uint32_t>(
                                  rng.uniform_int(0, 86400)),
            static_cast<std::uint32_t>(rng.uniform_int(0, INT32_MAX))));
        break;
      case 1:
        m.answers.push_back(
            dns::make_cname(random_name(rng), 60, random_name(rng)));
        break;
      default: {
        const int len = static_cast<int>(rng.uniform_int(0, 600));
        m.answers.push_back(dns::make_txt(random_name(rng), 30,
                                          std::string(len, 't')));
        break;
      }
    }
  }
  if (rng.chance(0.5)) {
    m.additionals.push_back(dns::make_opt(
        static_cast<std::uint16_t>(rng.uniform_int(512, 4096))));
  }
  return m;
}

TEST(DnsProperty, EncodeDecodeRoundTripsRandomMessages) {
  Rng rng(1001);
  for (int i = 0; i < 300; ++i) {
    dns::Message m = random_message(rng);
    auto wire = m.encode();
    auto decoded = dns::Message::decode(wire);
    ASSERT_TRUE(decoded.has_value()) << "iteration " << i;
    EXPECT_EQ(*decoded, m) << "iteration " << i;
  }
}

TEST(DnsProperty, CorruptedBytesNeverCrashDecoder) {
  Rng rng(1002);
  for (int i = 0; i < 500; ++i) {
    dns::Message m = random_message(rng);
    auto wire = m.encode();
    // Flip, truncate or extend.
    switch (rng.uniform_int(0, 2)) {
      case 0: {
        const std::size_t pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
        wire[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        break;
      }
      case 1:
        wire.resize(static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
        break;
      default:
        wire.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
        break;
    }
    // Must not crash; may return nullopt or a different message.
    auto decoded = dns::Message::decode(wire);
    (void)decoded;
  }
}

TEST(DnsProperty, CompressionNeverGrowsBeyondUncompressed) {
  Rng rng(1003);
  for (int i = 0; i < 200; ++i) {
    std::vector<dns::DnsName> names;
    std::size_t uncompressed = 0;
    for (int j = 0; j < 6; ++j) {
      names.push_back(random_name(rng));
      uncompressed += names.back().wire_length();
    }
    ByteWriter w;
    dns::NameCompressor nc;
    for (const auto& name : names) nc.write(w, name);
    EXPECT_LE(w.size(), uncompressed);
    // And every name reads back.
    ByteReader r(w.view());
    for (const auto& name : names) {
      auto back = dns::read_name(r);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, name);
    }
  }
}

TEST(DnsProperty, PaddingAlwaysAlignsAndDecodes) {
  Rng rng(1004);
  for (int i = 0; i < 200; ++i) {
    dns::Message m = random_message(rng);
    const std::size_t block = static_cast<std::size_t>(
        rng.uniform_int(16, 512));
    dns::pad_to_block(m, block);
    EXPECT_EQ(m.encode().size() % block, 0u) << "block " << block;
    EXPECT_TRUE(dns::Message::decode(m.encode()).has_value());
  }
}

// ----------------------------------------------------- DNS stream framing

// The RFC 1035 stream reader that the clients and the resolver's listeners
// share reads outside bytes: how the stream is cut never changes what it
// yields, a prefix too short for a DNS header poisons it, and it never holds
// more than one message.

std::vector<std::uint8_t> framed_stream(
    const std::vector<std::vector<std::uint8_t>>& messages) {
  std::vector<std::uint8_t> stream;
  for (const auto& m : messages) {
    const auto framed = dox::length_prefixed(m);
    stream.insert(stream.end(), framed.begin(), framed.end());
  }
  return stream;
}

TEST(FramingProperty, ReassemblyIgnoresSegmentBoundaries) {
  Rng rng(1005);
  std::vector<std::vector<std::uint8_t>> messages;
  for (int i = 0; i < 3; ++i) messages.push_back(random_message(rng).encode());
  const std::vector<std::uint8_t> stream = framed_stream(messages);
  const std::span<const std::uint8_t> bytes(stream);
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    dox::StreamMessageReader reader;
    auto got = reader.feed(bytes.first(cut));
    auto rest = reader.feed(bytes.subspan(cut));
    got.insert(got.end(), rest.begin(), rest.end());
    ASSERT_FALSE(reader.failed()) << "cut at " << cut;
    ASSERT_EQ(got, messages) << "cut at " << cut;
  }
  dox::StreamMessageReader reader;
  std::vector<std::vector<std::uint8_t>> got;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    for (auto& m : reader.feed(bytes.subspan(i, 1))) {
      got.push_back(std::move(m));
    }
  }
  EXPECT_EQ(got, messages);
}

TEST(FramingProperty, PrefixBelowDnsHeaderPoisonsReader) {
  Rng rng(1006);
  for (std::size_t len = 0;
       len < dox::StreamMessageReader::kMinMessageBytes; ++len) {
    const std::vector<std::uint8_t> good = random_message(rng).encode();
    // A valid message, the garbage prefix and its bytes, a valid message.
    std::vector<std::uint8_t> garbage = {0x00,
                                         static_cast<std::uint8_t>(len)};
    garbage.insert(garbage.end(), len, 0xAB);
    std::vector<std::uint8_t> stream = framed_stream({good});
    stream.insert(stream.end(), garbage.begin(), garbage.end());
    const std::vector<std::uint8_t> tail = framed_stream({good});
    stream.insert(stream.end(), tail.begin(), tail.end());

    dox::StreamMessageReader whole;
    EXPECT_EQ(whole.feed(stream).size(), 1u) << "prefix " << len;
    EXPECT_TRUE(whole.failed()) << "prefix " << len;
    EXPECT_TRUE(whole.feed(tail).empty()) << "prefix " << len;

    dox::StreamMessageReader bytewise;
    std::size_t yielded = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      yielded += bytewise.feed(std::span(stream).subspan(i, 1)).size();
    }
    EXPECT_EQ(yielded, 1u) << "prefix " << len;
    EXPECT_TRUE(bytewise.failed()) << "prefix " << len;
    EXPECT_EQ(bytewise.buffered(), 0u) << "prefix " << len;
  }
}

TEST(FramingProperty, BufferNeverExceedsOneMessage) {
  Rng rng(1007);
  std::vector<std::vector<std::uint8_t>> messages;
  for (int i = 0; i < 24; ++i) {
    // Any length a prefix can announce, including the 65535-byte maximum.
    const std::size_t len =
        i % 8 == 0 ? dox::StreamMessageReader::kMaxMessageBytes
                   : static_cast<std::size_t>(rng.uniform_int(
                         dox::StreamMessageReader::kMinMessageBytes,
                         dox::StreamMessageReader::kMaxMessageBytes));
    std::vector<std::uint8_t> m(len);
    for (auto& b : m) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    messages.push_back(std::move(m));
  }
  const std::vector<std::uint8_t> stream = framed_stream(messages);
  dox::StreamMessageReader reader;
  std::vector<std::vector<std::uint8_t>> got;
  for (std::size_t at = 0; at < stream.size();) {
    const std::size_t chunk = std::min<std::size_t>(
        static_cast<std::size_t>(rng.uniform_int(1, 140000)),
        stream.size() - at);
    for (auto& m : reader.feed(std::span(stream).subspan(at, chunk))) {
      got.push_back(std::move(m));
    }
    at += chunk;
    ASSERT_FALSE(reader.failed());
    ASSERT_LE(reader.buffered(), dox::StreamMessageReader::kMaxBufferedBytes);
  }
  EXPECT_EQ(reader.buffered(), 0u);
  EXPECT_EQ(got, messages);
}

// ------------------------------------------------------------- QUIC codec

/// ACK frames view their ranges, which `ack_storage` keeps alive.
quic::Frame random_frame(Rng& rng,
                         std::deque<std::vector<quic::AckRange>>& ack_storage) {
  switch (rng.uniform_int(0, 5)) {
    case 0: {
      std::vector<quic::AckRange>& ranges = ack_storage.emplace_back();
      std::uint64_t low = static_cast<std::uint64_t>(rng.uniform_int(0, 50));
      const int count = static_cast<int>(rng.uniform_int(1, 3));
      std::vector<quic::AckRange> ascending;
      for (int i = 0; i < count; ++i) {
        const std::uint64_t first = low;
        const std::uint64_t last =
            first + static_cast<std::uint64_t>(rng.uniform_int(0, 9));
        ascending.push_back({first, last});
        low = last + 2 + static_cast<std::uint64_t>(rng.uniform_int(0, 5));
      }
      for (auto it = ascending.rbegin(); it != ascending.rend(); ++it) {
        ranges.push_back(*it);
      }
      return quic::Frame::ack(ranges);
    }
    case 1: {
      std::vector<std::uint8_t> data(
          static_cast<std::size_t>(rng.uniform_int(0, 800)));
      for (auto& b : data) {
        b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      return quic::Frame::crypto(
          static_cast<std::uint64_t>(rng.uniform_int(0, 10000)),
          util::Buffer::copy_of(data));
    }
    case 2: {
      std::vector<std::uint8_t> data(
          static_cast<std::size_t>(rng.uniform_int(0, 800)));
      return quic::Frame::stream(
          static_cast<std::uint64_t>(rng.uniform_int(0, 100)) * 4,
          static_cast<std::uint64_t>(rng.uniform_int(0, 10000)),
          util::Buffer::copy_of(data), rng.chance(0.5));
    }
    case 3: {
      std::vector<std::uint8_t> token(
          static_cast<std::size_t>(rng.uniform_int(1, 64)));
      return quic::Frame::new_token(std::move(token));
    }
    case 4:
      return quic::Frame::connection_close(
          static_cast<std::uint64_t>(rng.uniform_int(0, 32)), "reason");
    default:
      return quic::Frame::ping();
  }
}

TEST(QuicProperty, PacketRoundTripsRandomFrames) {
  Rng rng(2001);
  const quic::PacketType types[] = {
      quic::PacketType::kInitial, quic::PacketType::kHandshake,
      quic::PacketType::kZeroRtt, quic::PacketType::kOneRtt};
  for (int i = 0; i < 300; ++i) {
    quic::QuicPacket p;
    p.type = types[rng.uniform_int(0, 3)];
    p.version = quic::QuicVersion::kV1;
    p.dcid = static_cast<std::uint64_t>(rng.uniform_int(0, INT32_MAX));
    p.scid = static_cast<std::uint64_t>(rng.uniform_int(0, INT32_MAX));
    p.packet_number =
        static_cast<std::uint64_t>(rng.uniform_int(0, 0xFFFF));
    if (p.type == quic::PacketType::kInitial && rng.chance(0.5)) {
      p.token.resize(static_cast<std::size_t>(rng.uniform_int(1, 48)));
    }
    const int frames = static_cast<int>(rng.uniform_int(1, 4));
    std::deque<std::vector<quic::AckRange>> ack_storage;
    for (int j = 0; j < frames; ++j) {
      p.frames.push_back(random_frame(rng, ack_storage));
    }

    quic::DecodedDatagram decoded;
    ASSERT_TRUE(quic::decode_datagram(quic::encode_packet(p), decoded))
        << "iteration " << i;
    ASSERT_EQ(decoded.packets.size(), 1u);
    const quic::QuicPacket& q = decoded.packets[0];
    EXPECT_EQ(q.type, p.type);
    EXPECT_EQ(q.packet_number, p.packet_number);
    ASSERT_EQ(q.frames.size(), p.frames.size());
    for (std::size_t f = 0; f < p.frames.size(); ++f) {
      EXPECT_EQ(q.frames[f].type, p.frames[f].type);
      EXPECT_TRUE(std::ranges::equal(q.frames[f].data.view(),
                                     p.frames[f].data.view()));
      EXPECT_EQ(q.frames[f].offset, p.frames[f].offset);
      EXPECT_EQ(q.frames[f].stream_id, p.frames[f].stream_id);
      EXPECT_EQ(q.frames[f].fin, p.frames[f].fin);
      EXPECT_TRUE(std::ranges::equal(q.frames[f].ack_ranges,
                                     p.frames[f].ack_ranges));
      EXPECT_EQ(q.frames[f].token, p.frames[f].token);
    }
  }
}

TEST(QuicProperty, CorruptedDatagramsNeverCrashDecoder) {
  Rng rng(2002);
  for (int i = 0; i < 500; ++i) {
    quic::QuicPacket p;
    p.type = quic::PacketType::kInitial;
    std::deque<std::vector<quic::AckRange>> ack_storage;
    p.frames.push_back(random_frame(rng, ack_storage));
    const util::Buffer encoded = quic::encode_packet(p);
    std::vector<std::uint8_t> wire(encoded.data(),
                                   encoded.data() + encoded.size());
    const std::size_t pos = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
    wire[pos] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
    if (rng.chance(0.3)) {
      wire.resize(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(wire.size()))));
    }
    quic::DecodedDatagram decoded;
    // Rejection or garbage are both fine; crashing is not.
    (void)quic::decode_datagram(util::Buffer::copy_of(wire), decoded);
  }
}

TEST(QuicProperty, AckFrameCoverageMatchesRanges) {
  Rng rng(2003);
  for (int i = 0; i < 200; ++i) {
    std::deque<std::vector<quic::AckRange>> ack_storage;
    auto frame = random_frame(rng, ack_storage);
    if (frame.type != quic::FrameType::kAck) continue;
    // acks(pn) must be true exactly within the ranges.
    for (const auto& range : frame.ack_ranges) {
      EXPECT_TRUE(frame.acks(range.first));
      EXPECT_TRUE(frame.acks(range.last));
      if (range.first > 0) {
        bool covered_elsewhere = false;
        for (const auto& other : frame.ack_ranges) {
          if (range.first - 1 >= other.first &&
              range.first - 1 <= other.last) {
            covered_elsewhere = true;
          }
        }
        if (!covered_elsewhere) {
          EXPECT_FALSE(frame.acks(range.first - 1));
        }
      }
    }
  }
}

// ----------------------------------------------------------------- HPACK

TEST(HpackProperty, RandomHeaderBlocksRoundTripAcrossRequests) {
  Rng rng(3001);
  h2::HpackEncoder encoder;
  h2::HpackDecoder decoder;
  std::vector<h2::Header> pool;
  for (int i = 0; i < 20; ++i) {
    std::string name, value;
    for (int j = 0; j < 8; ++j) {
      name.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    }
    for (int j = 0; j < 12; ++j) {
      value.push_back(static_cast<char>('a' + rng.uniform_int(0, 25)));
    }
    pool.push_back({name, value});
  }
  // Sequential blocks reusing the pool: tables must stay in sync.
  for (int round = 0; round < 50; ++round) {
    std::vector<h2::Header> block;
    const int n = static_cast<int>(rng.uniform_int(1, 6));
    for (int i = 0; i < n; ++i) {
      block.push_back(pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))]);
    }
    auto encoded = encoder.encode(block);
    auto decoded = decoder.decode(encoded);
    ASSERT_TRUE(decoded.has_value()) << "round " << round;
    EXPECT_EQ(*decoded, block) << "round " << round;
  }
}

// ----------------------------------------------------------------- stats

TEST(StatsProperty, QuantilesAreMonotone) {
  Rng rng(4001);
  for (int i = 0; i < 50; ++i) {
    std::vector<double> samples;
    const int n = static_cast<int>(rng.uniform_int(1, 500));
    for (int j = 0; j < n; ++j) {
      samples.push_back(rng.normal(0, 100));
    }
    stats::Cdf cdf(samples);
    double previous = -1e18;
    for (double q = 0.0; q <= 1.0; q += 0.05) {
      const double value = cdf.quantile(q).value_or(previous);
      EXPECT_GE(value, previous);
      previous = value;
    }
  }
}

TEST(StatsProperty, FractionBelowInvertsQuantile) {
  Rng rng(4002);
  std::vector<double> samples;
  for (int j = 0; j < 400; ++j) samples.push_back(rng.uniform_real(0, 1000));
  stats::Cdf cdf(samples);
  for (double q = 0.1; q < 1.0; q += 0.1) {
    const double value = *cdf.quantile(q);
    // fraction_below(quantile(q)) must bracket q.
    EXPECT_NEAR(cdf.fraction_below(value), q, 0.05);
  }
}

TEST(StatsProperty, MedianBoundedByExtremes) {
  Rng rng(4003);
  for (int i = 0; i < 100; ++i) {
    std::vector<double> samples;
    const int n = static_cast<int>(rng.uniform_int(1, 50));
    for (int j = 0; j < n; ++j) samples.push_back(rng.normal(50, 30));
    auto summary = stats::Summary::of(samples);
    EXPECT_GE(summary.median, summary.min);
    EXPECT_LE(summary.median, summary.max);
    EXPECT_GE(summary.p75, summary.p25);
    EXPECT_GE(summary.p99, summary.p90);
  }
}

// ------------------------------------------------------- TCP under stress

struct TcpSweepParam {
  double loss;
  std::size_t bytes;
};

class TcpLossSweep : public ::testing::TestWithParam<TcpSweepParam> {};

TEST_P(TcpLossSweep, ReliableDeliveryUnderLossAndReordering) {
  const auto& param = GetParam();
  sim::Simulator sim;
  net::Network network(sim, Rng(static_cast<std::uint64_t>(
                                    param.bytes * 7919 +
                                    std::llround(param.loss * 1000))));
  auto& a = network.add_host("a", net::IpAddress::from_octets(10, 7, 0, 1),
                             {50, 8}, net::Continent::kEurope);
  auto& b = network.add_host("b", net::IpAddress::from_octets(10, 7, 0, 2),
                             {51, 9}, net::Continent::kEurope);
  network.set_loss_override(a.address(), b.address(), param.loss);
  tcp::TcpStack stack_a(a);
  tcp::TcpStack stack_b(b);

  std::vector<std::uint8_t> received;
  auto& listener = stack_b.listen(80);
  listener.on_accept([&](const std::shared_ptr<tcp::TcpConnection>& conn) {
    conn->on_data([&](std::span<const std::uint8_t> d) {
      received.insert(received.end(), d.begin(), d.end());
    });
  });

  std::vector<std::uint8_t> payload(param.bytes);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  auto conn = stack_a.connect(net::Endpoint{b.address(), 80});
  conn->send(payload);
  sim.run_until(10 * kMinute);

  ASSERT_EQ(received.size(), payload.size())
      << "loss " << param.loss << " bytes " << param.bytes;
  EXPECT_EQ(received, payload);
}

INSTANTIATE_TEST_SUITE_P(
    LossByteMatrix, TcpLossSweep,
    ::testing::Values(TcpSweepParam{0.0, 1}, TcpSweepParam{0.0, 100000},
                      TcpSweepParam{0.05, 5000}, TcpSweepParam{0.05, 50000},
                      TcpSweepParam{0.15, 5000}, TcpSweepParam{0.15, 30000},
                      TcpSweepParam{0.30, 2000}, TcpSweepParam{0.30, 10000}),
    [](const auto& info) {
      return "loss" + std::to_string(int(info.param.loss * 100)) + "_bytes" +
             std::to_string(info.param.bytes);
    });

// -------------------------------------------------- TLS cert-size sweep

class TlsCertSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TlsCertSweep, ServerFlightGrowsWithChainSize) {
  const std::size_t chain = GetParam();
  std::size_t server_bytes = 0;
  bool complete = false;

  tls::TlsConfig server_config;
  server_config.is_server = true;
  server_config.alpn = {"dot"};
  server_config.ticket_secret = 5;
  server_config.certificate_chain_size = chain;

  tls::TlsSession* server_ptr = nullptr;
  tls::TlsSession* client_ptr = nullptr;
  std::vector<util::Buffer> to_server, to_client;

  tls::TlsSession::Callbacks server_callbacks;
  server_callbacks.send_transport = [&](util::Buffer bytes) {
    server_bytes += bytes.size();
    to_client.push_back(std::move(bytes));
  };
  server_callbacks.now = [] { return SimTime(0); };
  tls::TlsSession server(server_config, std::move(server_callbacks));
  server_ptr = &server;

  tls::TlsSession::Callbacks client_callbacks;
  client_callbacks.send_transport = [&](util::Buffer bytes) {
    to_server.push_back(std::move(bytes));
  };
  client_callbacks.on_handshake_complete =
      [&](const tls::HandshakeInfo&) { complete = true; };
  client_callbacks.now = [] { return SimTime(0); };
  tls::TlsSession client(
      tls::TlsConfig{.alpn = {"dot"}, .sni = "x"},
      std::move(client_callbacks));
  client_ptr = &client;

  client.start();
  for (int round = 0; round < 6; ++round) {
    auto a = std::move(to_server);
    to_server.clear();
    for (auto& bytes : a) server_ptr->on_transport_data(bytes);
    auto b = std::move(to_client);
    to_client.clear();
    for (auto& bytes : b) client_ptr->on_transport_data(bytes);
  }
  ASSERT_TRUE(complete) << "chain " << chain;
  EXPECT_GT(server_bytes, chain);          // the chain is on the wire
  EXPECT_LT(server_bytes, chain + 1500);   // plus bounded overhead
}

INSTANTIATE_TEST_SUITE_P(ChainSizes, TlsCertSweep,
                         ::testing::Values(std::size_t(800),
                                           std::size_t(1500),
                                           std::size_t(2500),
                                           std::size_t(4000),
                                           std::size_t(8000),
                                           std::size_t(12000)));

// ------------------------------------------------ simulator determinism

TEST(SimulatorProperty, RandomSchedulesExecuteInTimeOrder) {
  Rng rng(5001);
  for (int trial = 0; trial < 30; ++trial) {
    sim::Simulator sim;
    std::vector<SimTime> fired;
    const int events = static_cast<int>(rng.uniform_int(1, 200));
    for (int i = 0; i < events; ++i) {
      sim.schedule(rng.uniform_int(0, 10000),
                   [&fired, &sim] { fired.push_back(sim.now()); });
    }
    sim.run();
    ASSERT_EQ(fired.size(), static_cast<std::size_t>(events));
    EXPECT_TRUE(std::is_sorted(fired.begin(), fired.end()));
  }
}

TEST(SimulatorProperty, IdenticalSeedsGiveIdenticalRuns) {
  auto run_once = [](std::uint64_t seed) {
    sim::Simulator sim;
    net::Network network(sim, Rng(seed));
    auto& a = network.add_host("a", net::IpAddress::from_octets(10, 8, 0, 1),
                               {50, 8}, net::Continent::kEurope);
    auto& b = network.add_host("b", net::IpAddress::from_octets(10, 8, 0, 2),
                               {30, 100}, net::Continent::kAsia);
    net::UdpStack ua(a), ub(b);
    auto server = ub.bind(53);
    std::vector<SimTime> arrivals;
    server->on_datagram([&](const net::Endpoint&, util::Buffer) {
      arrivals.push_back(sim.now());
    });
    auto client = ua.bind_ephemeral();
    for (int i = 0; i < 50; ++i) {
      client->send_to(net::Endpoint{b.address(), 53}, {1});
    }
    sim.run();
    return arrivals;
  };
  EXPECT_EQ(run_once(77), run_once(77));
  EXPECT_NE(run_once(77), run_once(78));
}

}  // namespace
}  // namespace doxlab
