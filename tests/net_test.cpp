// Unit tests for the network fabric: addressing, geography, latency model,
// packet delivery, loss, overrides, and UDP sockets.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.h"
#include "net/flat_index.h"
#include "net/geo.h"
#include "net/latency.h"
#include "net/link.h"
#include "net/network.h"
#include "net/udp.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace doxlab::net {
namespace {

TEST(IpAddress, ParseValid) {
  auto a = IpAddress::parse("192.168.1.42");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->to_string(), "192.168.1.42");
  EXPECT_EQ(a->value(), 0xC0A8012Au);
}

TEST(IpAddress, ParseRejectsMalformed) {
  EXPECT_FALSE(IpAddress::parse("").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.4.5").has_value());
  EXPECT_FALSE(IpAddress::parse("256.1.1.1").has_value());
  EXPECT_FALSE(IpAddress::parse("a.b.c.d").has_value());
  EXPECT_FALSE(IpAddress::parse("1..2.3").has_value());
  EXPECT_FALSE(IpAddress::parse("1.2.3.1234").has_value());
}

TEST(IpAddress, OctetConstruction) {
  EXPECT_EQ(IpAddress::from_octets(8, 8, 8, 8).to_string(), "8.8.8.8");
  EXPECT_EQ(kLoopback.to_string(), "127.0.0.1");
}

TEST(Endpoint, Formatting) {
  Endpoint e{IpAddress::from_octets(1, 2, 3, 4), 853};
  EXPECT_EQ(e.to_string(), "1.2.3.4:853");
}

TEST(Geo, HaversineKnownDistances) {
  // Frankfurt <-> Singapore is roughly 10,260 km.
  GeoPoint fra{50.11, 8.68};
  GeoPoint sin{1.35, 103.82};
  EXPECT_NEAR(haversine_km(fra, sin), 10260, 300);
  // Zero distance.
  EXPECT_NEAR(haversine_km(fra, fra), 0.0, 1e-9);
}

TEST(Geo, ContinentCodesRoundTrip) {
  for (Continent c : all_continents()) {
    EXPECT_EQ(continent_from_code(continent_code(c)), c);
  }
  EXPECT_THROW(continent_from_code("XX"), std::invalid_argument);
}

TEST(Geo, SixVantagePointsOnePerContinent) {
  const auto& vps = vantage_point_cities();
  ASSERT_EQ(vps.size(), 6u);
  std::set<Continent> seen;
  for (const auto& vp : vps) seen.insert(vp.continent);
  EXPECT_EQ(seen.size(), 6u);
}

TEST(Latency, GrowsWithDistance) {
  LatencyModel model;
  GeoPoint fra{50.11, 8.68};
  GeoPoint ams{52.37, 4.90};
  GeoPoint sin{1.35, 103.82};
  const SimTime near = model.base_one_way(fra, ams, 1000, 1000);
  const SimTime far = model.base_one_way(fra, sin, 1000, 1000);
  EXPECT_LT(near, far);
  // Frankfurt->Singapore one-way should be in the tens of milliseconds.
  EXPECT_GT(far, from_ms(50));
  EXPECT_LT(far, from_ms(150));
}

TEST(Latency, RespectsMinimumPropagation) {
  LatencyModel model;
  GeoPoint p{10, 10};
  EXPECT_GE(model.base_one_way(p, p, 0, 0),
            model.config().min_propagation);
}

TEST(Latency, JitterIsPositiveAndBounded) {
  LatencyModel model;
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    SimTime j = model.jitter(rng);
    EXPECT_GE(j, 0);
    EXPECT_LE(j, from_ms(250));
  }
}

class NetworkFixture : public ::testing::Test {
 protected:
  NetworkFixture()
      : network_(sim_, Rng(123)),
        a_(network_.add_host("a", IpAddress::from_octets(10, 0, 0, 1),
                             {50.11, 8.68}, Continent::kEurope)),
        b_(network_.add_host("b", IpAddress::from_octets(10, 0, 0, 2),
                             {52.37, 4.90}, Continent::kEurope)) {
    network_.set_loss_rate(0.0);
  }

  sim::Simulator sim_;
  Network network_;
  Host& a_;
  Host& b_;
};

TEST_F(NetworkFixture, DuplicateAddressThrows) {
  EXPECT_THROW(network_.add_host("dup", a_.address(), {0, 0},
                                 Continent::kEurope),
               std::invalid_argument);
}

TEST_F(NetworkFixture, UdpDelivery) {
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();

  std::vector<std::uint8_t> received;
  Endpoint from{};
  server->on_datagram([&](const Endpoint& src, util::Buffer d) {
    from = src;
    received.assign(d.data(), d.data() + d.size());
  });

  client->send_to(Endpoint{b_.address(), 53}, {1, 2, 3});
  sim_.run();
  EXPECT_EQ(received, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(from.address, a_.address());
  EXPECT_EQ(from.port, client->port());
  // Accounting includes the 8-byte UDP header.
  EXPECT_EQ(client->bytes_sent(), 11u);
  EXPECT_EQ(server->bytes_received(), 11u);
}

TEST_F(NetworkFixture, DeliveryDelayMatchesPathOverride) {
  network_.set_path_override(a_.address(), b_.address(), from_ms(10));
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();
  SimTime arrival = -1;
  server->on_datagram(
      [&](const Endpoint&, util::Buffer) { arrival = sim_.now(); });
  client->send_to(Endpoint{b_.address(), 53}, {0});
  sim_.run();
  // Path override pins the base delay; jitter is still added.
  EXPECT_GE(arrival, from_ms(10));
  EXPECT_LT(arrival, from_ms(260));
}

// Batched delivery: a window wide enough to swallow the base delay plus
// worst-case jitter (250 ms) makes bucket membership deterministic — every
// datagram sent before the boundary lands in the same flush.
TEST_F(NetworkFixture, BatchWindowCoalescesDatagramsInSendOrder) {
  network_.set_batch_window(kSecond);
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();

  std::size_t batches = 0;
  std::vector<std::uint8_t> order;
  SimTime delivered_at = -1;
  server->on_batch([&](std::span<Datagram> batch) {
    ++batches;
    delivered_at = sim_.now();
    for (const Datagram& d : batch) order.push_back(d.payload.view()[0]);
  });

  client->send_to(Endpoint{b_.address(), 53}, {1});
  client->send_to(Endpoint{b_.address(), 53}, {2});
  client->send_to(Endpoint{b_.address(), 53}, {3});
  sim_.run();

  // One event for the burst, payloads in send order (staging order is send
  // order, independent of per-packet jitter), at the bucket boundary.
  EXPECT_EQ(batches, 1u);
  EXPECT_EQ(order, (std::vector<std::uint8_t>{1, 2, 3}));
  EXPECT_EQ(delivered_at, kSecond);
  // Byte accounting still counts every datagram (8-byte UDP header each).
  EXPECT_EQ(server->bytes_received(), 3u * 9u);
}

TEST_F(NetworkFixture, UdpPayloadArrivesAsTheSendersSlab) {
  // Per-packet delivery, and batched delivery through the per-datagram
  // and the burst handler: the handler gets the very slab the sender
  // encoded into, held by nobody else.
  for (const SimTime window : {SimTime{0}, kSecond}) {
    for (const bool burst : {false, true}) {
      if (window == 0 && burst) continue;  // bursts need batching
      SCOPED_TRACE("window " + std::to_string(window) + " burst " +
                   std::to_string(burst));
      network_.set_batch_window(window);
      UdpStack stack_a(a_);
      UdpStack stack_b(b_);
      auto server = stack_b.bind(53);
      auto client = stack_a.bind_ephemeral();
      const std::uint8_t* received = nullptr;
      bool unique = false;
      if (burst) {
        server->on_batch([&](std::span<Datagram> batch) {
          ASSERT_EQ(batch.size(), 1u);
          received = batch[0].payload.data();
          unique = batch[0].payload.unique();
        });
      } else {
        server->on_datagram([&](const Endpoint&, util::Buffer payload) {
          received = payload.data();
          unique = payload.unique();
        });
      }
      const std::vector<std::uint8_t> bytes = {1, 2, 3, 4};
      util::Buffer payload = util::Buffer::copy_of(bytes);
      const std::uint8_t* sent = payload.data();
      client->send_to(Endpoint{b_.address(), 53}, std::move(payload));
      sim_.run();
      EXPECT_EQ(received, sent);
      EXPECT_TRUE(unique);
    }
  }
}

TEST_F(NetworkFixture, TcpHandlerSeesThePacketAsSent) {
  // A protocol handler reads the delivered packet in place: every field
  // the sender set, the payload slab and the metadata sidecar included.
  const auto meta = std::make_shared<const int>(42);
  const std::vector<std::uint8_t> bytes = {9, 8, 7};
  util::Buffer payload = util::Buffer::copy_of(bytes);
  const std::uint8_t* sent = payload.data();
  bool seen = false;
  b_.set_protocol_handler(kProtoTcp, [&](Packet& packet) {
    seen = true;
    EXPECT_EQ(packet.src, (Endpoint{a_.address(), 40000}));
    EXPECT_EQ(packet.dst, (Endpoint{b_.address(), 853}));
    EXPECT_EQ(packet.protocol, kProtoTcp);
    EXPECT_EQ(packet.header_bytes, 32u);
    EXPECT_EQ(packet.payload.data(), sent);
    EXPECT_TRUE(packet.payload.unique());
    EXPECT_EQ(packet.meta.get(), meta.get());
  });
  Packet packet;
  packet.src = Endpoint{a_.address(), 40000};
  packet.dst = Endpoint{b_.address(), 853};
  packet.protocol = kProtoTcp;
  packet.header_bytes = 32;
  packet.payload = std::move(payload);
  packet.meta = meta;
  network_.send(std::move(packet));
  sim_.run();
  EXPECT_TRUE(seen);
}

TEST_F(NetworkFixture, BatchFallsBackToPerDatagramHandler) {
  network_.set_batch_window(kSecond);
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();

  // No on_batch handler: the batch unrolls into the per-datagram callback.
  std::vector<std::uint8_t> seen;
  server->on_datagram([&](const Endpoint&, util::Buffer payload) {
    seen.push_back(payload.view()[0]);
  });
  client->send_to(Endpoint{b_.address(), 53}, {7});
  client->send_to(Endpoint{b_.address(), 53}, {8});
  sim_.run();
  EXPECT_EQ(seen, (std::vector<std::uint8_t>{7, 8}));
}

TEST_F(NetworkFixture, BatchSplitsRunsPerDestinationPort) {
  network_.set_batch_window(kSecond);
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto dns = stack_b.bind(53);
  auto other = stack_b.bind(54);
  auto client = stack_a.bind_ephemeral();

  std::vector<std::size_t> dns_runs;
  std::size_t other_count = 0;
  dns->on_batch(
      [&](std::span<Datagram> batch) { dns_runs.push_back(batch.size()); });
  other->on_batch(
      [&](std::span<Datagram> batch) { other_count += batch.size(); });

  // Interleaved ports: consecutive same-port runs stay batched, a port
  // switch cuts the run — order across the whole burst is preserved.
  client->send_to(Endpoint{b_.address(), 53}, {1});
  client->send_to(Endpoint{b_.address(), 53}, {2});
  client->send_to(Endpoint{b_.address(), 54}, {3});
  client->send_to(Endpoint{b_.address(), 53}, {4});
  sim_.run();
  EXPECT_EQ(dns_runs, (std::vector<std::size_t>{2, 1}));
  EXPECT_EQ(other_count, 1u);
}

TEST_F(NetworkFixture, BatchDroppedWhenHostGoesDownBeforeFlush) {
  network_.set_batch_window(kSecond);
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();
  std::size_t received = 0;
  server->on_batch(
      [&](std::span<Datagram> batch) { received += batch.size(); });

  client->send_to(Endpoint{b_.address(), 53}, {1});
  b_.set_up(false);  // goes down between send and the bucket boundary
  sim_.run();
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(network_.counters().packets_unroutable, 1u);
}

TEST_F(NetworkFixture, SendBatchShipsEveryDatagramAndClears) {
  // The latency model routes SOURCES too: a spoofed address must resolve
  // to a fronting host (same contract the engine swarm's client prefix
  // route provides).
  network_.add_prefix_route(IpAddress::from_octets(10, 99, 0, 0), 24,
                            a_.address());
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();

  std::vector<std::pair<std::uint32_t, std::uint8_t>> seen;
  server->on_datagram([&](const Endpoint& from, util::Buffer payload) {
    seen.emplace_back(from.address.value(), payload.view()[0]);
  });

  std::vector<OutboundDatagram> out;
  {
    OutboundDatagram d;
    d.to = Endpoint{b_.address(), 53};
    const std::uint8_t byte1[] = {1};
    d.payload = util::Buffer::copy_of(byte1);
    out.push_back(std::move(d));
  }
  {
    // Spoofed source: the response path the engine swarm relies on.
    OutboundDatagram d;
    d.to = Endpoint{b_.address(), 53};
    d.source = IpAddress::from_octets(10, 99, 0, 7);
    const std::uint8_t byte2[] = {2};
    d.payload = util::Buffer::copy_of(byte2);
    out.push_back(std::move(d));
  }
  client->send_batch(out);
  EXPECT_TRUE(out.empty());  // consumed
  sim_.run();
  // Per-packet jitter may reorder unbatched delivery: compare as a set.
  std::sort(seen.begin(), seen.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_EQ(seen[0].first, a_.address().value());
  EXPECT_EQ(seen[0].second, 1);
  EXPECT_EQ(seen[1].first, IpAddress::from_octets(10, 99, 0, 7).value());
  EXPECT_EQ(seen[1].second, 2);
}

TEST_F(NetworkFixture, FullLossDropsEverything) {
  network_.set_loss_override(a_.address(), b_.address(), 1.0);
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();
  bool got = false;
  server->on_datagram(
      [&](const Endpoint&, util::Buffer) { got = true; });
  for (int i = 0; i < 50; ++i) {
    client->send_to(Endpoint{b_.address(), 53}, {0});
  }
  sim_.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(network_.counters().packets_lost, 50u);
}

TEST_F(NetworkFixture, PairKeepsPathAndLossOverridesInEitherOrder) {
  // A pair's path and loss overrides live in one entry: setting one keeps
  // the other, whichever is set first and whichever way round the second
  // call names the pair.
  Host& c = network_.add_host("c", IpAddress::from_octets(10, 0, 0, 3),
                              {48.85, 2.35}, Continent::kEurope);
  network_.set_loss_rate(1.0);
  network_.set_path_override(a_.address(), b_.address(), from_ms(10));
  network_.set_loss_override(b_.address(), a_.address(), 0.0);
  network_.set_loss_override(a_.address(), c.address(), 0.0);
  network_.set_path_override(c.address(), a_.address(), from_ms(20));

  EXPECT_EQ(network_.base_one_way(a_, b_), from_ms(10));
  EXPECT_EQ(network_.base_one_way(b_, a_), from_ms(10));
  EXPECT_EQ(network_.base_one_way(a_, c), from_ms(20));
  EXPECT_EQ(network_.base_one_way(c, a_), from_ms(20));

  // Both lossless overrides beat the fabric's full loss in both
  // directions; the b-c pair has none and loses its packet.
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  UdpStack stack_c(c);
  auto from_a = stack_a.bind_ephemeral();
  auto from_b = stack_b.bind_ephemeral();
  auto from_c = stack_c.bind_ephemeral();
  from_a->send_to(Endpoint{b_.address(), 53}, {0});
  from_b->send_to(Endpoint{a_.address(), 53}, {0});
  from_a->send_to(Endpoint{c.address(), 53}, {0});
  from_c->send_to(Endpoint{a_.address(), 53}, {0});
  from_b->send_to(Endpoint{c.address(), 53}, {0});
  sim_.run();
  EXPECT_EQ(network_.counters().packets_delivered, 4u);
  EXPECT_EQ(network_.counters().packets_lost, 1u);
}

TEST_F(NetworkFixture, DownHostDropsAtDelivery) {
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();
  bool got = false;
  server->on_datagram(
      [&](const Endpoint&, util::Buffer) { got = true; });
  b_.set_up(false);
  client->send_to(Endpoint{b_.address(), 53}, {0});
  sim_.run();
  EXPECT_FALSE(got);
  EXPECT_EQ(network_.counters().packets_unroutable, 1u);
}

TEST_F(NetworkFixture, UnboundPortIsSilentlyDropped) {
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto client = stack_a.bind_ephemeral();
  client->send_to(Endpoint{b_.address(), 999}, {0});
  sim_.run();  // must not crash
  EXPECT_EQ(network_.counters().packets_delivered, 1u);
}

TEST_F(NetworkFixture, TapSeesEveryPacket) {
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();
  int tapped = 0;
  network_.set_tap([&](const Packet& p) {
    ++tapped;
    EXPECT_EQ(p.protocol, kProtoUdp);
  });
  client->send_to(Endpoint{b_.address(), 53}, {9, 9});
  sim_.run();
  EXPECT_EQ(tapped, 1);
}

TEST_F(NetworkFixture, LoopbackIsFastAndLossless) {
  network_.set_loss_rate(1.0);  // loopback must ignore loss
  UdpStack stack_a(a_);
  auto server = stack_a.bind(53);
  auto client = stack_a.bind_ephemeral();
  SimTime arrival = -1;
  server->on_datagram(
      [&](const Endpoint&, util::Buffer) { arrival = sim_.now(); });
  client->send_to(Endpoint{a_.address(), 53}, {0});
  sim_.run();
  EXPECT_GE(arrival, 0);
  EXPECT_LE(arrival, from_ms(1));
}

TEST_F(NetworkFixture, EphemeralPortsAreDistinct) {
  UdpStack stack_a(a_);
  auto s1 = stack_a.bind_ephemeral();
  auto s2 = stack_a.bind_ephemeral();
  EXPECT_NE(s1->port(), s2->port());
}

TEST_F(NetworkFixture, RebindAfterCloseWorks) {
  UdpStack stack_a(a_);
  {
    auto s = stack_a.bind(5353);
    EXPECT_THROW(stack_a.bind(5353), std::invalid_argument);
  }
  auto s2 = stack_a.bind(5353);  // destructor unbinds
  EXPECT_EQ(s2->port(), 5353);
}

TEST_F(NetworkFixture, UnbindAndRebindTrackBoundCount) {
  // Sockets come and go through the port index: every unbind frees its
  // port for a rebind, and the count follows. A datagram reaches the
  // socket bound at delivery.
  UdpStack stack_b(b_);
  UdpStack stack_a(a_);
  auto client = stack_a.bind_ephemeral();
  std::vector<std::unique_ptr<UdpSocket>> sockets;
  for (std::uint16_t port = 5000; port < 5040; ++port) {
    sockets.push_back(stack_b.bind(port));
  }
  EXPECT_EQ(stack_b.bound_count(), 40u);
  for (std::size_t i = 0; i < sockets.size(); i += 2) sockets[i].reset();
  EXPECT_EQ(stack_b.bound_count(), 20u);
  for (std::size_t i = 1; i < sockets.size(); i += 2) {
    EXPECT_THROW(stack_b.bind(sockets[i]->port()), std::invalid_argument);
  }
  EXPECT_EQ(stack_b.bound_count(), 20u);
  for (std::size_t i = 0; i < sockets.size(); i += 2) {
    sockets[i] = stack_b.bind(static_cast<std::uint16_t>(5000 + i));
  }
  EXPECT_EQ(stack_b.bound_count(), 40u);

  int received = 0;
  sockets[6]->on_datagram([&](const Endpoint&, util::Buffer) { ++received; });
  client->send_to(Endpoint{b_.address(), 5006}, {1});
  sim_.run();
  EXPECT_EQ(received, 1);
  sockets.clear();
  EXPECT_EQ(stack_b.bound_count(), 0u);
  client->send_to(Endpoint{b_.address(), 5006}, {1});
  sim_.run();
  EXPECT_EQ(received, 1);
}

TEST_F(NetworkFixture, PrefixRoutedHostDownInFlightIsUnroutable) {
  // The destination is routed once, at send; the packet then dies at
  // delivery if the routed host went down while it was in flight.
  network_.add_prefix_route(IpAddress::from_octets(10, 77, 0, 0), 16,
                            b_.address());
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();
  int received = 0;
  server->on_datagram([&](const Endpoint&, util::Buffer) { ++received; });

  const Endpoint routed{IpAddress::from_octets(10, 77, 3, 4), 53};
  client->send_to(routed, {1});
  sim_.run();
  EXPECT_EQ(received, 1);

  client->send_to(routed, {2});
  b_.set_up(false);
  sim_.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(network_.counters().packets_unroutable, 1u);
  EXPECT_EQ(network_.counters().packets_delivered, 1u);
}

TEST(FlatIndex, MatchesUnorderedMapUnderRandomOps) {
  // Seeded inserts, finds and erases against std::unordered_map, from an
  // empty index through several doublings and back. Keys come from a
  // small pool, so probe runs form, grow and wrap around the table.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::uint32_t> pool;
    for (int i = 0; i < 300; ++i) {
      pool.push_back(static_cast<std::uint32_t>(
          rng.uniform_int(0, std::int64_t{0xFFFFFFFF})));
    }
    std::vector<int> values(pool.size());
    FlatIndex<int> index;
    std::unordered_map<std::uint32_t, int*> reference;
    for (int op = 0; op < 20000; ++op) {
      // Grow for the first half, then shrink.
      const std::size_t k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1));
      const std::uint32_t key = pool[k];
      const bool grow = op < 10000;
      switch (rng.uniform_int(0, 3)) {
        case 0:
        case 1: {
          if (!grow && rng.chance(0.7)) break;
          const bool fresh = reference.emplace(key, &values[k]).second;
          EXPECT_EQ(index.insert(key, &values[k]), fresh);
          break;
        }
        case 2: {
          if (grow && rng.chance(0.7)) break;
          EXPECT_EQ(index.erase(key), reference.erase(key) == 1);
          break;
        }
        default:
          break;
      }
      auto it = reference.find(key);
      EXPECT_EQ(index.find(key), it == reference.end() ? nullptr : it->second);
      ASSERT_EQ(index.size(), reference.size());
      EXPECT_GE(index.capacity(), 2 * index.size());
    }
    for (std::size_t k = 0; k < pool.size(); ++k) {
      auto it = reference.find(pool[k]);
      EXPECT_EQ(index.find(pool[k]),
                it == reference.end() ? nullptr : it->second);
    }
  }
}

TEST(FlatIndex, EraseRepairsCollidingRuns) {
  // At 64 slots, two keys homed at slot 62, two at slot 0 and one at slot
  // 1 form one probe run that wraps around the table's end: 62, 63, 0, 1,
  // 2. Erasing any one of them must leave every other findable. That takes
  // the slot repair, which moves a later entry back into the hole unless
  // its home lies cyclically between the two (the run's second key homed
  // at 0 sits at its home once the first moves back).
  constexpr std::size_t kCapacity = 64;
  const auto keys_homed_at = [](std::size_t home, std::size_t count,
                                std::uint32_t from) {
    std::vector<std::uint32_t> keys;
    for (std::uint32_t key = from; keys.size() < count; ++key) {
      if (FlatIndex<int>::home(key, kCapacity) == home) keys.push_back(key);
    }
    return keys;
  };
  std::vector<std::uint32_t> keys = keys_homed_at(62, 2, 1);
  for (const std::uint32_t key : keys_homed_at(0, 2, 1)) keys.push_back(key);
  keys.push_back(keys_homed_at(1, 1, 1).front());
  // Fillers homed well away from the run.
  std::vector<std::uint32_t> fillers;
  for (std::uint32_t key = 1u << 20; fillers.size() < 12; ++key) {
    const std::size_t h = FlatIndex<int>::home(key, kCapacity);
    if (h >= 10 && h <= 50) fillers.push_back(key);
  }

  for (std::size_t victim = 0; victim < keys.size(); ++victim) {
    SCOPED_TRACE("victim " + std::to_string(victim));
    FlatIndex<int> index;
    int filler = 0;
    std::vector<int> values(keys.size());
    // 12 fillers and the run's 5 keys size the table at 64 slots.
    for (const std::uint32_t key : fillers) {
      ASSERT_TRUE(index.insert(key, &filler));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_TRUE(index.insert(keys[i], &values[i]));
    }
    ASSERT_EQ(index.capacity(), kCapacity);
    ASSERT_TRUE(index.erase(keys[victim]));
    EXPECT_FALSE(index.erase(keys[victim]));
    EXPECT_EQ(index.find(keys[victim]), nullptr);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      if (i != victim) {
        EXPECT_EQ(index.find(keys[i]), &values[i]) << "key " << i;
      }
    }
    EXPECT_EQ(index.size(), fillers.size() + keys.size() - 1);
  }
}

// ------------------------------------------------------------- link models

/// Fixture helpers for pushing N datagrams a->b and counting arrivals.
class LinkFixture : public NetworkFixture {
 protected:
  /// Sends `count` one-byte datagrams at `spacing` intervals; returns how
  /// many arrive and records the last arrival time.
  std::size_t pump(std::size_t count, SimTime spacing,
                   std::size_t payload_bytes = 1) {
    UdpStack stack_a(a_);
    UdpStack stack_b(b_);
    auto server = stack_b.bind(53);
    auto client = stack_a.bind_ephemeral();
    std::size_t received = 0;
    server->on_datagram([&](const Endpoint&, util::Buffer) {
      ++received;
      last_arrival_ = sim_.now();
    });
    const std::vector<std::uint8_t> payload(payload_bytes, 0x55);
    for (std::size_t i = 0; i < count; ++i) {
      sim_.schedule(static_cast<SimTime>(i) * spacing,
                    [client = client.get(), &payload, this] {
                      client->send_to(Endpoint{b_.address(), 53}, payload);
                    });
    }
    sim_.run();
    return received;
  }

  SimTime last_arrival_ = -1;
};

TEST_F(LinkFixture, InfiniteRateLinkIsTransparent) {
  network_.set_host_ingress_link(b_.address(),
                                 network_.add_link(LinkConfig{}));
  EXPECT_EQ(pump(10, from_ms(1)), 10u);
  EXPECT_EQ(network_.counters().packets_link_dropped, 0u);
  EXPECT_EQ(network_.link_totals().packets, 10u);
}

TEST_F(LinkFixture, FiniteRateLinkAddsSerializationDelay) {
  // 1200-byte payload at 100 kbit/s: ~97 ms of serialization per packet
  // (1208 wire bytes * 8 / 1e5) on top of the fabric's base delay.
  LinkConfig slow;
  slow.rate_bps = 1e5;
  network_.set_host_ingress_link(b_.address(), network_.add_link(slow));
  ASSERT_EQ(pump(1, from_ms(1), 1200), 1u);
  EXPECT_GE(last_arrival_, from_ms(96));
}

TEST_F(LinkFixture, FullQueueTailDropsAndCounts) {
  // A burst of back-to-back packets into a slow, shallow queue: the first
  // fills the transmitter, a few queue, the rest tail-drop.
  LinkConfig slow;
  slow.rate_bps = 1e5;      // 12.5 kB/s
  slow.queue_bytes = 2000;  // fits only one ~1208-byte packet behind it
  network_.set_host_ingress_link(b_.address(), network_.add_link(slow));
  const std::size_t received = pump(10, 0, 1200);
  EXPECT_LT(received, 10u);
  const LinkStats totals = network_.link_totals();
  EXPECT_EQ(totals.tail_drops, 10u - received);
  EXPECT_EQ(network_.counters().packets_link_dropped, 10u - received);
  EXPECT_GT(totals.queued_bytes_max, 0u);
  EXPECT_LE(totals.queued_bytes_max, slow.queue_bytes);
}

TEST_F(LinkFixture, DeepQueueIsBufferbloatNotLoss) {
  LinkConfig bloated;
  bloated.rate_bps = 1e5;
  bloated.queue_bytes = 64 * 1024;  // swallows the whole burst
  network_.set_host_ingress_link(b_.address(), network_.add_link(bloated));
  EXPECT_EQ(pump(10, 0, 1200), 10u);
  // The 10th packet waited behind ~9 x 97 ms of backlog.
  EXPECT_GE(last_arrival_, from_ms(850));
  EXPECT_EQ(network_.link_totals().tail_drops, 0u);
}

TEST_F(LinkFixture, DelayStepsApplyByScheduledTime) {
  LinkConfig handover;
  handover.delay_steps = {{0, 0}, {kSecond, from_ms(500)}};
  network_.set_host_ingress_link(b_.address(), network_.add_link(handover));
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto client = stack_a.bind_ephemeral();
  std::vector<SimTime> arrivals;
  server->on_datagram(
      [&](const Endpoint&, util::Buffer) { arrivals.push_back(sim_.now()); });
  client->send_to(Endpoint{b_.address(), 53}, {1});
  sim_.at(kSecond + from_ms(1), [&] {
    client->send_to(Endpoint{b_.address(), 53}, {2});
  });
  sim_.run();
  ASSERT_EQ(arrivals.size(), 2u);
  // Before the step: base delay + jitter only (well under 500 ms). After:
  // the extra 500 ms one-way applies.
  EXPECT_LT(arrivals[0], from_ms(400));
  EXPECT_GE(arrivals[1], kSecond + from_ms(500));
}

TEST_F(LinkFixture, UnsortedDelayStepsThrow) {
  LinkConfig bad;
  bad.delay_steps = {{kSecond, from_ms(10)}, {0, 0}};
  EXPECT_THROW(network_.add_link(bad), std::invalid_argument);
}

TEST_F(LinkFixture, GilbertElliottMatchesStationaryLossAndBurstLength) {
  // Drive one link directly: the empirical loss rate must approach the
  // chain's stationary distribution and the mean burst length 1/p_bad_good.
  GilbertElliott chain;  // defaults: 2% enter, 25% leave, 50% loss in bad
  LinkConfig config;
  config.burst_loss = chain;
  Link link(config, /*seed=*/0xFEEDu);
  const int packets = 200000;
  int lost = 0;
  int bursts = 0;
  int burst_len = 0;
  std::vector<int> burst_lengths;
  for (int i = 0; i < packets; ++i) {
    if (!link.admit(100, static_cast<SimTime>(i) * 100)) {
      ++lost;
      ++burst_len;
    } else if (burst_len > 0) {
      ++bursts;
      burst_lengths.push_back(burst_len);
      burst_len = 0;
    }
  }
  const double empirical = static_cast<double>(lost) / packets;
  EXPECT_NEAR(empirical, chain.stationary_loss(), 0.005);
  double mean_burst = 0;
  for (int len : burst_lengths) mean_burst += len;
  mean_burst /= bursts;
  // Consecutive losses: geometric-ish runs while the chain sits in bad
  // state at 50% loss. Mean run length for the default chain is ~1.6-1.7;
  // allow generous tolerance, the point is "bursty, not iid".
  EXPECT_GT(mean_burst, 1.3);
  EXPECT_LT(mean_burst, 2.5);
  EXPECT_EQ(link.stats().burst_losses, static_cast<std::uint64_t>(lost));
}

TEST_F(LinkFixture, LinkLossIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    GilbertElliott chain;
    LinkConfig config;
    config.burst_loss = chain;
    Link link(config, seed);
    std::vector<bool> outcomes;
    for (int i = 0; i < 1000; ++i) {
      outcomes.push_back(link.admit(100, i * 100).has_value());
    }
    return outcomes;
  };
  EXPECT_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST_F(LinkFixture, DefaultLinkMaterializesPerDirectionAndIsDeterministic) {
  // A default link lazily materializes one instance per directed pair:
  // saturating a->b must not consume b->a's queue, and identical runs must
  // produce identical outcomes.
  GilbertElliott chain;
  LinkConfig config;
  config.rate_bps = 1e5;
  config.queue_bytes = 4000;
  config.burst_loss = chain;

  auto run = [&] {
    sim::Simulator sim;
    Network network(sim, Rng(123));
    network.set_loss_rate(0.0);
    Host& a = network.add_host("a", IpAddress::from_octets(10, 0, 0, 1),
                               {50.11, 8.68}, Continent::kEurope);
    Host& b = network.add_host("b", IpAddress::from_octets(10, 0, 0, 2),
                               {52.37, 4.90}, Continent::kEurope);
    network.set_default_link(config);
    UdpStack stack_a(a);
    UdpStack stack_b(b);
    auto server = stack_b.bind(53);
    auto reverse = stack_a.bind(54);
    auto client = stack_a.bind_ephemeral();
    auto back = stack_b.bind_ephemeral();
    std::size_t forward = 0;
    std::size_t backward = 0;
    server->on_datagram([&](const Endpoint&, util::Buffer) { ++forward; });
    reverse->on_datagram([&](const Endpoint&, util::Buffer) { ++backward; });
    const std::vector<std::uint8_t> big(1200, 0x66);
    // Saturate a->b with a back-to-back burst while b->a sends one sparse
    // packet per 100 ms — the reverse direction's own queue stays empty.
    for (int i = 0; i < 40; ++i) {
      client->send_to(Endpoint{b.address(), 53}, big);
    }
    for (int i = 0; i < 5; ++i) {
      sim.schedule(i * from_ms(100), [&back, &a] {
        back->send_to(Endpoint{a.address(), 54}, {9});
      });
    }
    sim.run();
    return std::make_pair(forward, backward);
  };
  const auto first = run();
  const auto second = run();
  EXPECT_EQ(first, second);             // fully deterministic end to end
  EXPECT_LT(first.first, 40u);          // forward burst overflows its queue
  EXPECT_GE(first.second, 4u);          // reverse path unaffected by it
}

TEST_F(LinkFixture, LossOverrideAppliesSymmetricallyBothDirections) {
  // set_loss_override is keyed on the unordered pair: full loss must kill
  // BOTH a->b and b->a traffic regardless of argument order.
  network_.set_loss_override(b_.address(), a_.address(), 1.0);
  UdpStack stack_a(a_);
  UdpStack stack_b(b_);
  auto server = stack_b.bind(53);
  auto reverse = stack_a.bind(54);
  auto client = stack_a.bind_ephemeral();
  auto back = stack_b.bind_ephemeral();
  std::size_t forward = 0;
  std::size_t backward = 0;
  server->on_datagram([&](const Endpoint&, util::Buffer) { ++forward; });
  reverse->on_datagram([&](const Endpoint&, util::Buffer) { ++backward; });
  for (int i = 0; i < 20; ++i) {
    client->send_to(Endpoint{b_.address(), 53}, {1});
    back->send_to(Endpoint{a_.address(), 54}, {2});
  }
  sim_.run();
  EXPECT_EQ(forward, 0u);
  EXPECT_EQ(backward, 0u);
}

TEST_F(LinkFixture, LossOverrideComposesWithLinkModels) {
  // A lossless override does not disable link-level drops: the iid draw
  // happens first, then the link's queue/chain — the layers compose.
  network_.set_loss_override(a_.address(), b_.address(), 0.0);
  LinkConfig slow;
  slow.rate_bps = 1e5;
  slow.queue_bytes = 2000;
  network_.set_host_ingress_link(b_.address(), network_.add_link(slow));
  const std::size_t received = pump(10, 0, 1200);
  EXPECT_LT(received, 10u);  // link still tail-drops the burst
  EXPECT_EQ(network_.link_totals().tail_drops, 10u - received);

  // And a full-loss override still kills traffic before it reaches the
  // link: no packets are even offered to it afterwards.
  network_.set_loss_override(a_.address(), b_.address(), 1.0);
  const std::uint64_t offered_before = network_.link_totals().packets;
  EXPECT_EQ(pump(5, from_ms(1)), 0u);
  EXPECT_EQ(network_.link_totals().packets, offered_before);
}

}  // namespace
}  // namespace doxlab::net
