// End-to-end tests for the tiered cache hierarchy inside the forwarder
// engine: warm-starting a fresh engine from the snapshot tier across a
// restart, the stale-L2 / stale-snapshot serve paths (stale answer, exactly
// one upstream refresh, re-promotion into L1), and administrative
// withdraw/announce through the upstream pool.
//
// Engine worlds are built as a self-contained `World` value (not a gtest
// fixture) so a restart test can tear the whole first world down — engine,
// transports, and simulator together, the only safe order — before the
// second world reopens the same snapshot directory.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"

namespace doxlab::engine {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

std::string temp_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// One engine world, destroyed as a unit (members in reverse declaration
/// order: engine first, simulator last — no timer can outlive its target).
struct World {
  sim::Simulator sim;
  net::Network network{sim, Rng(33)};
  net::Host& client_host;
  net::UdpStack udp;
  tcp::TcpStack tcp;
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;
  std::vector<std::unique_ptr<resolver::DoxResolver>> resolvers;
  std::unique_ptr<ForwarderEngine> engine;

  World()
      : client_host(network.add_host("client",
                                     IpAddress::from_octets(10, 1, 0, 1),
                                     {50.11, 8.68}, Continent::kEurope)),
        udp(client_host),
        tcp(client_host) {
    network.set_loss_rate(0.0);
    add_resolver(/*index=*/0, /*one_way=*/from_ms(10));
    add_resolver(/*index=*/1, /*one_way=*/from_ms(30));
  }

  void add_resolver(std::size_t index, SimTime one_way) {
    resolver::ResolverProfile profile;
    profile.name = "upstream-" + std::to_string(index);
    profile.address = IpAddress::from_octets(
        10, 2, 0, static_cast<std::uint8_t>(index + 1));
    profile.location = {48.86, 2.35};
    profile.secret = 0xAA + index;
    profile.drop_probability = 0.0;
    resolvers.push_back(std::make_unique<resolver::DoxResolver>(
        network, profile, Rng(index + 1)));
    network.set_path_override(client_host.address(), profile.address,
                              one_way);
  }

  EngineConfig engine_config() {
    EngineConfig config;
    config.pool.attempt_timeout = kSecond;
    config.pool.quarantine = 5 * kSecond;
    return config;
  }

  void start_engine(EngineConfig config) {
    dox::TransportDeps deps;
    deps.sim = &sim;
    deps.udp = &udp;
    deps.tcp = &tcp;
    deps.tickets = &tickets;
    deps.doq_cache = &doq_cache;
    std::vector<UpstreamConfig> configs;
    for (const auto& resolver : resolvers) {
      UpstreamConfig upstream;
      upstream.name = resolver->profile().name;
      upstream.address = resolver->profile().address;
      upstream.protocols = {dox::DnsProtocol::kDoQ, dox::DnsProtocol::kDoT,
                            dox::DnsProtocol::kDoUdp};
      configs.push_back(std::move(upstream));
    }
    engine = std::make_unique<ForwarderEngine>(sim, udp, deps,
                                               std::move(configs), config);
  }

  std::optional<dns::Message> stub_query(const std::string& name,
                                         std::uint16_t id = 0x77,
                                         SimTime wait = 30 * kSecond) {
    auto socket = udp.bind_ephemeral();
    std::optional<dns::Message> response;
    socket->on_datagram([&](const Endpoint&, util::Buffer payload) {
      response = dns::Message::decode(payload);
    });
    dns::Message query =
        dns::make_query(id, dns::DnsName::parse(name), dns::RRType::kA);
    socket->send_to(Endpoint{client_host.address(), 53}, query.encode());
    sim.run_until(sim.now() + wait);
    return response;
  }
};

/// Restart protocol: world A resolves through an engine that persists to a
/// snapshot directory and is torn down whole; world B fast-forwards its
/// clock, warm-starts a fresh engine from the same directory, and answers
/// the repeat query from L1 with the TTL still decaying against the
/// original insertion instant — zero upstream resolves.
TEST(TieredEngine, WarmStartFromSnapshotAcrossRestart) {
  const std::string dir = temp_dir("warm_restart_snapdir");
  {
    World a;
    EngineConfig config = a.engine_config();
    config.snapshot_dir = dir;
    a.start_engine(config);
    const auto response = a.stub_query("warm.example.com");
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->answers.size(), 1u);
    EXPECT_EQ(response->answers[0].ttl, 300u);
    EXPECT_EQ(a.engine->stats().upstream_resolves, 1u);
    EXPECT_EQ(a.engine->stats().snapshot_entries, 1u);
  }

  World b;
  b.sim.run_until(20 * kSecond);  // the process was down for ~20 s
  EngineConfig config = b.engine_config();
  config.snapshot_dir = dir;
  b.start_engine(config);
  EXPECT_EQ(b.engine->stats().snapshot_warm_loaded, 1u);

  const auto response = b.stub_query("warm.example.com", 0x78);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  // Answered from the warm-started L1 without touching an upstream...
  EXPECT_EQ(b.engine->stats().cache_hits, 1u);
  EXPECT_EQ(b.engine->stats().upstream_resolves, 0u);
  // ...with the TTL aged against world A's insertion stamp (~20 s gone).
  EXPECT_GE(response->answers[0].ttl, 270u);
  EXPECT_LE(response->answers[0].ttl, 281u);
}

TEST(TieredEngine, StaleL2HitServesOnceRefreshesOnceRepromotes) {
  World world;
  dns::SharedPacketCache l2(64, 1);
  l2.set_stale_retention(10 * kMinute);
  EngineConfig config = world.engine_config();
  config.l2 = &l2;
  config.l2_serve_stale = true;
  world.start_engine(config);

  // Seed the shared L2 with a 1 s answer whose rdata differs from the
  // authoritative one, then let it expire into the stale window.
  const dns::DnsName name = dns::DnsName::parse("stale-l2.example.com");
  l2.insert(0, name, dns::RRType::kA,
            std::vector<dns::ResourceRecord>{make_a(name, 1, 0x7F000001)},
            world.sim.now());
  l2.sweep(world.sim.now());
  world.sim.run_until(world.sim.now() + 5 * kSecond);

  const auto stale = world.stub_query("stale-l2.example.com");
  ASSERT_TRUE(stale.has_value());
  ASSERT_EQ(stale->answers.size(), 1u);
  // The immediate answer is the seeded stale rdata with the stale TTL
  // stamped — the refresh has not been waited on.
  EXPECT_EQ(dns::rdata_as_a(stale->answers[0]), 0x7F000001u);
  EXPECT_EQ(stale->answers[0].ttl, config.stale_ttl);
  const EngineStats after_stale = world.engine->stats();
  EXPECT_EQ(after_stale.l2_hits, 1u);
  EXPECT_EQ(after_stale.stale_hits, 1u);
  EXPECT_EQ(after_stale.stale_refreshes, 1u);
  // Exactly one upstream refresh was owed for the stale answer.
  EXPECT_EQ(after_stale.upstream_resolves, 1u);

  // The refresh re-promoted the authoritative answer into the L1: the next
  // query is a fresh cache hit with no new resolve.
  const auto fresh = world.stub_query("stale-l2.example.com", 0x78);
  ASSERT_TRUE(fresh.has_value());
  ASSERT_EQ(fresh->answers.size(), 1u);
  EXPECT_EQ(dns::rdata_as_a(fresh->answers[0]),
            resolver::authoritative_ipv4(name));
  const EngineStats after_fresh = world.engine->stats();
  EXPECT_EQ(after_fresh.cache_hits, 1u);
  EXPECT_EQ(after_fresh.upstream_resolves, 1u);
  EXPECT_EQ(after_fresh.stale_refreshes, 1u);
}

TEST(TieredEngine, StaleSnapshotHitServesOnceRefreshesOnce) {
  const std::string dir = temp_dir("stale_snap_snapdir");
  const dns::DnsName name = dns::DnsName::parse("stale-snap.example.com");
  {
    // Pre-populate the snapshot log with an answer that will be expired
    // (but inside the stale window) by the time the engine starts.
    std::filesystem::create_directories(dir);
    dns::SnapshotTier tier({.path = dir + "/shard-0.snap"});
    tier.insert(name, dns::RRType::kA,
                std::vector<dns::ResourceRecord>{make_a(name, 1,
                                                        0x7F000002)},
                0);
    tier.flush();
  }

  World world;
  world.sim.run_until(5 * kSecond);
  EngineConfig config = world.engine_config();
  config.snapshot_dir = dir;
  world.start_engine(config);
  // Expired entries are not warm-promoted; they wait in the snapshot tier
  // for a stale lookup.
  EXPECT_EQ(world.engine->stats().snapshot_warm_loaded, 0u);

  const auto stale = world.stub_query("stale-snap.example.com");
  ASSERT_TRUE(stale.has_value());
  ASSERT_EQ(stale->answers.size(), 1u);
  EXPECT_EQ(dns::rdata_as_a(stale->answers[0]), 0x7F000002u);
  EXPECT_EQ(stale->answers[0].ttl, config.stale_ttl);
  const EngineStats after_stale = world.engine->stats();
  EXPECT_EQ(after_stale.snapshot_hits, 1u);
  EXPECT_EQ(after_stale.stale_hits, 1u);
  EXPECT_EQ(after_stale.stale_refreshes, 1u);
  EXPECT_EQ(after_stale.upstream_resolves, 1u);

  const auto fresh = world.stub_query("stale-snap.example.com", 0x78);
  ASSERT_TRUE(fresh.has_value());
  EXPECT_EQ(dns::rdata_as_a(fresh->answers[0]),
            resolver::authoritative_ipv4(name));
  EXPECT_EQ(world.engine->stats().cache_hits, 1u);
  EXPECT_EQ(world.engine->stats().upstream_resolves, 1u);
}

TEST(TieredEngine, WithdrawSkipsUpstreamAnnounceRestoresIt) {
  World world;
  EngineConfig config = world.engine_config();
  config.cache_enabled = false;  // every query pays a resolve
  world.start_engine(config);

  // Withdrawn upstream 0 is never attempted — no timeout is paid, the
  // query goes straight to upstream 1.
  world.engine->pool(0).set_enabled(0, false);
  ASSERT_TRUE(world.stub_query("withdraw-a.example.com").has_value());
  EngineStats stats = world.engine->stats();
  ASSERT_EQ(stats.upstreams.size(), 2u);
  EXPECT_FALSE(stats.upstreams[0].admin_enabled);
  EXPECT_EQ(stats.upstreams[0].attempts, 0u);
  EXPECT_GE(stats.upstreams[1].attempts, 1u);

  // Re-announce: the preferred upstream serves again.
  world.engine->pool(0).set_enabled(0, true);
  ASSERT_TRUE(
      world.stub_query("withdraw-b.example.com", 0x78).has_value());
  stats = world.engine->stats();
  EXPECT_TRUE(stats.upstreams[0].admin_enabled);
  EXPECT_GE(stats.upstreams[0].attempts, 1u);
}

}  // namespace
}  // namespace doxlab::engine
