// Response-bytes differential for the forwarder engine: a scripted world
// drives every way an answer can leave the engine — upstream miss, fresh L1
// hits at several ages, stale hit, negative entry, upstream failure answered
// stale, L2 promotion, snapshot warm start, LRU eviction at capacity, a
// case-variant qname and a class other than the filling query's — and
// compares each response, ID masked, with a reference built here with
// dns::Message the way a record-cache forwarder encodes it: QR, RD and RA
// set, NOERROR, the query's question lower-cased, and the expected records
// with TTLs decayed by the entry's whole-second age or stamped stale.
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

/// What the upstream resolvers answer for an A query (TTL 300): the www
/// alias chain, or one A record.
std::vector<dns::ResourceRecord> upstream_records(const std::string& text) {
  const dns::DnsName name = dns::DnsName::parse(text);
  if (name.first_label() == "www" && name.label_count() > 2) {
    const dns::DnsName canonical = name.parent();
    return {dns::make_cname(name, 300, canonical),
            dns::make_a(canonical, 300,
                        resolver::authoritative_ipv4(canonical))};
  }
  return {dns::make_a(name, 300, resolver::authoritative_ipv4(name))};
}

std::vector<dns::ResourceRecord> with_ttl(
    std::vector<dns::ResourceRecord> records, std::uint32_t ttl) {
  for (auto& rr : records) rr.ttl = ttl;
  return records;
}

std::vector<dns::ResourceRecord> aged(std::vector<dns::ResourceRecord> records,
                                      std::uint32_t age_s) {
  for (auto& rr : records) rr.ttl = rr.ttl > age_s ? rr.ttl - age_s : 0;
  return records;
}

/// The reference answer, ID zeroed.
std::vector<std::uint8_t> reference(const dns::Question& question,
                                    std::vector<dns::ResourceRecord> answers) {
  dns::Message response;
  response.qr = true;
  response.ra = true;
  response.rcode = dns::RCode::kNoError;
  response.questions.push_back(
      dns::Question{dns::DnsName::parse(question.name.to_string()),
                    question.type, question.klass});
  response.answers = std::move(answers);
  return response.encode();
}

struct Answer {
  std::vector<std::uint8_t> wire;
  SimTime at = -1;
};

/// One engine world, destroyed as a unit (engine first, simulator last).
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
  std::unique_ptr<net::UdpSocket> stub;
  std::vector<Answer> answers;  ///< indexed by the query id

  World()
      : client_host(network.add_host("client",
                                     IpAddress::from_octets(10, 1, 0, 1),
                                     {50.11, 8.68}, Continent::kEurope)),
        udp(client_host),
        tcp(client_host),
        answers(64) {
    network.set_loss_rate(0.0);
    for (std::size_t index = 0; index < 2; ++index) {
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
                                from_ms(10 + 20 * index));
    }
    stub = udp.bind_ephemeral();
    stub->on_datagram([this](const Endpoint&, util::Buffer payload) {
      const auto view = payload.view();
      ASSERT_GE(view.size(), 2u);
      Answer& answer = answers[(std::size_t{view[0]} << 8 | view[1]) % 64];
      answer.wire.assign(view.begin(), view.end());
      answer.at = sim.now();
    });
  }

  static EngineConfig config() {
    EngineConfig config;
    config.pool.attempt_timeout = kSecond;
    config.pool.quarantine = 5 * kSecond;
    return config;
  }

  void start(EngineConfig config) {
    dox::TransportDeps deps;
    deps.sim = &sim;
    deps.udp = &udp;
    deps.tcp = &tcp;
    deps.tickets = &tickets;
    deps.doq_cache = &doq_cache;
    std::vector<UpstreamConfig> upstreams;
    for (const auto& resolver : resolvers) {
      UpstreamConfig upstream;
      upstream.name = resolver->profile().name;
      upstream.address = resolver->profile().address;
      upstream.protocols = {dox::DnsProtocol::kDoQ, dox::DnsProtocol::kDoT,
                            dox::DnsProtocol::kDoUdp};
      upstreams.push_back(std::move(upstream));
    }
    engine = std::make_unique<ForwarderEngine>(sim, udp, deps,
                                               std::move(upstreams), config);
  }

  /// Sends one query; does not wait.
  dns::Question send(std::uint16_t id, const std::string& name,
                     dns::RRType type = dns::RRType::kA,
                     dns::RRClass klass = dns::RRClass::kIN) {
    dns::Message query = dns::make_query(id, dns::DnsName::parse(name), type);
    query.questions[0].klass = klass;
    stub->send_to(Endpoint{client_host.address(), 53}, query.encode());
    return query.questions[0];
  }

  /// Sends one query and runs the world for `wait`.
  dns::Question ask(std::uint16_t id, const std::string& name,
                    dns::RRType type = dns::RRType::kA,
                    dns::RRClass klass = dns::RRClass::kIN,
                    SimTime wait = 200 * kMillisecond) {
    const dns::Question question = send(id, name, type, klass);
    sim.run_until(sim.now() + wait);
    return question;
  }

  void run_to(SimTime at) { sim.run_until(at); }
};

/// Asserts the response to `id` equals the reference, ID masked.
void expect_bytes(const World& world, std::uint16_t id,
                  const dns::Question& question,
                  std::vector<dns::ResourceRecord> records) {
  const Answer& answer = world.answers[id % 64];
  ASSERT_GE(answer.wire.size(), 12u) << "no answer to query " << id;
  EXPECT_EQ(answer.wire[0], id >> 8);
  EXPECT_EQ(answer.wire[1], id & 0xFF);
  const std::vector<std::uint8_t> expected =
      reference(question, std::move(records));
  ASSERT_EQ(answer.wire.size(), expected.size()) << "query " << id;
  EXPECT_TRUE(std::equal(answer.wire.begin() + 2, answer.wire.end(),
                         expected.begin() + 2))
      << "query " << id;
}

TEST(ResponseBytes, FreshHitsAtEveryAgeAndAStaleHit) {
  World world;
  world.start(World::config());
  const auto records = upstream_records("www.diff.example");
  const dns::Question first = world.ask(1, "www.diff.example");
  expect_bytes(world, 1, first, records);
  // The answer leaves the engine the instant it is cached, and the stub
  // shares the engine's host: ages below are whole seconds since then.
  const SimTime cached_at = world.answers[1].at;
  ASSERT_GT(cached_at, 0);

  expect_bytes(world, 2, world.ask(2, "www.diff.example"), records);
  world.run_to(cached_at + 59 * kSecond + 500 * kMillisecond);
  expect_bytes(world, 3, world.ask(3, "www.diff.example"),
               aged(records, 59));
  world.run_to(cached_at + 299 * kSecond + 500 * kMillisecond);
  expect_bytes(world, 4, world.ask(4, "www.diff.example"),
               aged(records, 299));
  world.run_to(cached_at + 310 * kSecond);
  expect_bytes(world, 5, world.ask(5, "www.diff.example"),
               with_ttl(records, kStaleTtl));

  const EngineStats stats = world.engine->stats();
  EXPECT_EQ(stats.cache_hits, 3u);
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.upstream_resolves, 2u);  // the miss + the stale refresh
}

TEST(ResponseBytes, CaseVariantAndForeignClassAreHits) {
  World world;
  world.start(World::config());
  const auto records = upstream_records("mixed.diff.example");
  expect_bytes(world, 1, world.ask(1, "mixed.diff.example"), records);
  // The question goes back lower-cased, with the asking query's class.
  expect_bytes(world, 2, world.ask(2, "MiXeD.Diff.EXAMPLE"), records);
  expect_bytes(world, 3,
               world.ask(3, "mixed.diff.example", dns::RRType::kA,
                         dns::RRClass::kANY),
               records);
  EXPECT_EQ(world.engine->stats().cache_hits, 2u);
  EXPECT_EQ(world.engine->stats().upstream_resolves, 1u);
}

TEST(ResponseBytes, NegativeEntry) {
  World world;
  world.start(World::config());
  // A TXT query for a name with only an address: an empty answer, cached
  // as a negative entry for 60 s.
  expect_bytes(world, 1,
               world.ask(1, "plain.diff.example", dns::RRType::kTXT), {});
  world.run_to(world.sim.now() + 30 * kSecond);
  expect_bytes(world, 2,
               world.ask(2, "plain.diff.example", dns::RRType::kTXT), {});
  EXPECT_EQ(world.engine->stats().cache_hits, 1u);
  EXPECT_EQ(world.engine->stats().upstream_resolves, 1u);
}

TEST(ResponseBytes, L2PromotionAndFailureAnsweredStale) {
  World world;
  dns::SharedPacketCache l2(64, 1);
  EngineConfig config = World::config();
  config.l2 = &l2;
  world.start(config);
  world.run_to(10 * kSecond);
  for (auto& resolver : world.resolvers) resolver->host().set_up(false);

  // Query 1 misses every tier and starts a resolve that will fail.
  const dns::Question waiting = world.send(1, "fail.diff.example");
  world.run_to(world.sim.now() + 50 * kMillisecond);
  // Meanwhile the L2 receives an answer stamped 2 s ago with TTL 3: query
  // 2 is an L2 hit whose promoted L1 entry (TTL 1) is stale long before
  // the resolve gives up.
  const dns::DnsName name = dns::DnsName::parse("fail.diff.example");
  const std::vector<dns::ResourceRecord> seeded = {
      dns::make_a(name, 3, 0x7F000009)};
  l2.insert(0, name, dns::RRType::kA, seeded, world.sim.now() - 2 * kSecond);
  l2.sweep(world.sim.now());
  const dns::Question promoted =
      world.ask(2, "FAIL.diff.example", dns::RRType::kA, dns::RRClass::kANY);
  expect_bytes(world, 2, promoted, aged(seeded, 2));
  EXPECT_EQ(world.engine->stats().l2_hits, 1u);

  world.run_to(world.sim.now() + 60 * kSecond);
  // The failed resolve answers its waiter from the stale L1 entry.
  expect_bytes(world, 1, waiting,
               with_ttl(seeded, kStaleTtl));
  const EngineStats stats = world.engine->stats();
  EXPECT_EQ(stats.servfails_sent, 0u);
  EXPECT_EQ(stats.stale_hits, 1u);
}

TEST(ResponseBytes, SnapshotWarmStart) {
  const std::string dir = ::testing::TempDir() + "response_bytes_snapdir";
  std::filesystem::remove_all(dir);
  const auto records = upstream_records("www.warm.diff.example");
  SimTime cached_at = 0;
  {
    World first;
    EngineConfig config = World::config();
    config.snapshot_dir = dir;
    first.start(config);
    expect_bytes(first, 1, first.ask(1, "www.warm.diff.example"), records);
    cached_at = first.answers[1].at;
  }
  World second;
  second.run_to(cached_at + 100 * kSecond + 500 * kMillisecond);
  EngineConfig config = World::config();
  config.snapshot_dir = dir;
  second.start(config);
  EXPECT_EQ(second.engine->stats().snapshot_warm_loaded, 1u);
  // Warm start stores the TTLs decayed to their remaining lifetime, so the
  // first answer after the restart is 100 s younger than the original.
  expect_bytes(second, 2, second.ask(2, "www.warm.diff.example"),
               aged(records, 100));
  EXPECT_EQ(second.engine->stats().cache_hits, 1u);
  EXPECT_EQ(second.engine->stats().upstream_resolves, 0u);
  std::filesystem::remove_all(dir);
}

TEST(ResponseBytes, LruEvictionOrderAtCapacity) {
  World world;
  EngineConfig config = World::config();
  config.cache_capacity = 2;
  world.start(config);
  // Each step: (name, whether the L1 should answer it).
  const std::vector<std::pair<std::string, bool>> script = {
      {"a.diff.example", false}, {"b.diff.example", false},
      {"a.diff.example", true},  {"c.diff.example", false},  // evicts b
      {"b.diff.example", false},                             // evicts a
      {"a.diff.example", false},                             // evicts c
      {"b.diff.example", true},
  };
  std::uint16_t id = 1;
  std::uint64_t hits = 0;
  for (const auto& [name, hit] : script) {
    expect_bytes(world, id, world.ask(id, name), upstream_records(name));
    hits += hit ? 1 : 0;
    EXPECT_EQ(world.engine->stats().cache_hits, hits) << "step " << id;
    ++id;
  }
  EXPECT_EQ(world.engine->stats().l1_evictions, 3u);
}

}  // namespace
}  // namespace doxlab::engine
