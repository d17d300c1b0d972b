// Tests for the forwarder engine: query coalescing fan-out, the bounded LRU
// cache, RFC 8767 serve-stale + background refresh, upstream fallback
// ordering and health-based failover, and SERVFAIL accounting.
#include <gtest/gtest.h>

#include "engine/engine.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"

namespace doxlab::engine {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

class EngineFixture : public ::testing::Test {
 protected:
  EngineFixture()
      : network_(sim_, Rng(33)),
        client_host_(network_.add_host("client",
                                       IpAddress::from_octets(10, 1, 0, 1),
                                       {50.11, 8.68}, Continent::kEurope)),
        udp_(client_host_),
        tcp_(client_host_) {
    network_.set_loss_rate(0.0);
    add_resolver(/*index=*/0, /*one_way=*/from_ms(10));
    add_resolver(/*index=*/1, /*one_way=*/from_ms(30));
  }

  resolver::DoxResolver& add_resolver(std::size_t index, SimTime one_way,
                                      bool supports_doq = true) {
    resolver::ResolverProfile profile;
    profile.name = "upstream-" + std::to_string(index);
    profile.address =
        IpAddress::from_octets(10, 2, 0, static_cast<std::uint8_t>(index + 1));
    profile.location = {48.86, 2.35};
    profile.secret = 0xAA + index;
    profile.supports_doq = supports_doq;
    profile.drop_probability = 0.0;
    auto resolver = std::make_unique<resolver::DoxResolver>(
        network_, profile, Rng(index + 1));
    network_.set_path_override(client_host_.address(), profile.address,
                               one_way);
    resolvers_.push_back(std::move(resolver));
    return *resolvers_.back();
  }

  UpstreamConfig upstream_config(std::size_t index) {
    UpstreamConfig config;
    config.name = resolvers_[index]->profile().name;
    config.address = resolvers_[index]->profile().address;
    config.protocols = {dox::DnsProtocol::kDoQ, dox::DnsProtocol::kDoT,
                        dox::DnsProtocol::kDoUdp};
    return config;
  }

  EngineConfig engine_config() {
    EngineConfig config;
    config.pool.attempt_timeout = kSecond;
    config.pool.quarantine = 5 * kSecond;
    return config;
  }

  std::unique_ptr<ForwarderEngine> make_engine(
      EngineConfig config, std::vector<std::size_t> resolver_indices = {0,
                                                                        1}) {
    dox::TransportDeps deps;
    deps.sim = &sim_;
    deps.udp = &udp_;
    deps.tcp = &tcp_;
    deps.tickets = &tickets_;
    deps.doq_cache = &doq_cache_;
    std::vector<UpstreamConfig> configs;
    for (std::size_t i : resolver_indices) {
      configs.push_back(upstream_config(i));
    }
    return std::make_unique<ForwarderEngine>(sim_, udp_, deps,
                                             std::move(configs), config);
  }

  /// Sends one stub query and waits for the response.
  std::optional<dns::Message> stub_query(const std::string& name,
                                         std::uint16_t id = 0x77,
                                         SimTime wait = 30 * kSecond) {
    auto socket = udp_.bind_ephemeral();
    std::optional<dns::Message> response;
    socket->on_datagram(
        [&](const Endpoint&, util::Buffer payload) {
          response = dns::Message::decode(payload);
        });
    dns::Message query =
        dns::make_query(id, dns::DnsName::parse(name), dns::RRType::kA);
    socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
    sim_.run_until(sim_.now() + wait);
    return response;
  }

  sim::Simulator sim_;
  net::Network network_;
  net::Host& client_host_;
  net::UdpStack udp_;
  tcp::TcpStack tcp_;
  tls::TicketStore tickets_;
  dox::DoqSessionCache doq_cache_;
  std::vector<std::unique_ptr<resolver::DoxResolver>> resolvers_;
};

TEST_F(EngineFixture, ForwardsAndRewritesId) {
  auto engine = make_engine(engine_config());
  auto response = stub_query("example.com", 0x1234);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 0x1234);
  EXPECT_TRUE(response->qr);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(dns::rdata_as_a(response->answers[0]),
            resolver::authoritative_ipv4(dns::DnsName::parse("example.com")));
  EXPECT_EQ(engine->stats().queries, 1u);
  EXPECT_EQ(engine->stats().misses, 1u);
}

TEST_F(EngineFixture, CoalescesConcurrentIdenticalQueries) {
  auto engine = make_engine(engine_config());
  // Five clients ask for the same name in the same instant: one upstream
  // resolve, five answers, each with its own transaction id.
  std::vector<std::unique_ptr<net::UdpSocket>> sockets;
  std::vector<std::uint16_t> answered_ids;
  for (int i = 0; i < 5; ++i) {
    sockets.push_back(udp_.bind_ephemeral());
    sockets.back()->on_datagram(
        [&](const Endpoint&, util::Buffer payload) {
          auto response = dns::Message::decode(payload);
          ASSERT_TRUE(response.has_value());
          answered_ids.push_back(response->id);
        });
    dns::Message query = dns::make_query(
        static_cast<std::uint16_t>(0x100 + i),
        dns::DnsName::parse("hot.example"), dns::RRType::kA);
    sockets[i]->send_to(Endpoint{client_host_.address(), 53},
                        query.encode());
  }
  sim_.run_until(30 * kSecond);

  ASSERT_EQ(answered_ids.size(), 5u);
  std::sort(answered_ids.begin(), answered_ids.end());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(answered_ids[i], 0x100 + i);
  }
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.coalesced, 4u);
  EXPECT_EQ(stats.upstream_resolves, 1u);
  EXPECT_DOUBLE_EQ(stats.coalesce_rate(), 0.8);
  EXPECT_EQ(resolvers_[0]->queries_served(dox::DnsProtocol::kDoQ), 1u);
}

TEST_F(EngineFixture, CoalescingDisabledResolvesEachQueryUpstream) {
  EngineConfig config = engine_config();
  config.coalesce = false;
  config.cache_enabled = false;
  auto engine = make_engine(config);
  std::vector<std::unique_ptr<net::UdpSocket>> sockets;
  int answers = 0;
  for (int i = 0; i < 3; ++i) {
    sockets.push_back(udp_.bind_ephemeral());
    sockets.back()->on_datagram(
        [&](const Endpoint&, util::Buffer) { ++answers; });
    dns::Message query = dns::make_query(
        static_cast<std::uint16_t>(i), dns::DnsName::parse("hot.example"),
        dns::RRType::kA);
    sockets[i]->send_to(Endpoint{client_host_.address(), 53},
                        query.encode());
  }
  sim_.run_until(30 * kSecond);
  EXPECT_EQ(answers, 3);
  EXPECT_EQ(engine->stats().coalesced, 0u);
  EXPECT_EQ(engine->stats().upstream_resolves, 3u);
}

TEST_F(EngineFixture, CacheServesRepeatQueriesWithoutUpstreamTraffic) {
  auto engine = make_engine(engine_config());
  stub_query("example.com");
  stub_query("example.com");
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.upstream_resolves, 1u);
}

TEST_F(EngineFixture, LruBoundEvictsAndReResolves) {
  EngineConfig config = engine_config();
  config.cache_capacity = 2;
  config.serve_stale = false;
  auto engine = make_engine(config);
  stub_query("a.example");
  stub_query("b.example");
  stub_query("c.example");  // evicts a.example (LRU)
  EXPECT_EQ(engine->cache().size(), 2u);
  EXPECT_EQ(engine->stats().cache_evictions, 1u);
  stub_query("a.example");  // must go upstream again
  EXPECT_EQ(engine->stats().upstream_resolves, 4u);
}

TEST_F(EngineFixture, ServeStaleAnswersImmediatelyAndRefreshes) {
  EngineConfig config = engine_config();
  config.max_ttl = 1;  // entries expire after a simulated second
  config.stale_ttl = 30;
  auto engine = make_engine(config);
  stub_query("stale.example");
  sim_.run_until(sim_.now() + 5 * kSecond);  // entry is now stale

  // The stale answer arrives without waiting for the upstream.
  auto socket = udp_.bind_ephemeral();
  std::optional<dns::Message> response;
  SimTime answered_at = 0;
  socket->on_datagram(
      [&](const Endpoint&, util::Buffer payload) {
        response = dns::Message::decode(payload);
        answered_at = sim_.now();
      });
  const SimTime asked_at = sim_.now();
  dns::Message query = dns::make_query(
      0x42, dns::DnsName::parse("stale.example"), dns::RRType::kA);
  socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
  // Short wait: long enough for the background refresh (one RTT), short
  // enough that the refreshed 1 s-TTL entry is still fresh below.
  sim_.run_until(sim_.now() + 500 * kMillisecond);

  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(response->answers[0].ttl, 30u);      // clamped stale TTL
  EXPECT_LT(answered_at - asked_at, from_ms(1));  // no upstream round trip
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.stale_hits, 1u);
  EXPECT_EQ(stats.stale_refreshes, 1u);
  EXPECT_EQ(stats.upstream_resolves, 2u);  // initial + background refresh

  // The background refresh re-populated the cache: the next query is a
  // fresh hit, no new upstream resolve.
  stub_query("stale.example");
  EXPECT_EQ(engine->stats().cache_hits, 1u);
  EXPECT_EQ(engine->stats().upstream_resolves, 2u);
}

TEST_F(EngineFixture, FallbackWalksProtocolChainInOrder) {
  // The primary does not listen on DoQ: the DoQ attempt burns the attempt
  // timeout, then DoT succeeds — on the same upstream.
  add_resolver(2, from_ms(10), /*supports_doq=*/false);
  auto engine = make_engine(engine_config(), {2, 1});
  auto response = stub_query("fallback.example");
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(resolvers_[2]->queries_served(dox::DnsProtocol::kDoQ), 0u);
  EXPECT_EQ(resolvers_[2]->queries_served(dox::DnsProtocol::kDoT), 1u);
  EXPECT_EQ(resolvers_[1]->queries_served(dox::DnsProtocol::kDoT), 0u);
  EXPECT_EQ(engine->pool().failovers(), 1u);
}

TEST_F(EngineFixture, DeadPrimaryQuarantinedAfterConsecutiveFailures) {
  EngineConfig config = engine_config();
  config.cache_enabled = false;
  // Each stub_query advances the clock 30 s; keep the quarantine longer so
  // the primary is not re-probed between queries.
  config.pool.quarantine = 10 * kMinute;
  auto engine = make_engine(config);
  resolvers_[0]->host().set_up(false);

  // Each query walks primary's dead chain before reaching the secondary;
  // after `unhealthy_after` failed attempts the primary is quarantined and
  // later queries go straight to the secondary.
  for (int i = 0; i < 3; ++i) {
    auto response =
        stub_query("q" + std::to_string(i) + ".example", 0x10 + i);
    ASSERT_TRUE(response.has_value()) << "query " << i;
    EXPECT_EQ(response->rcode, dns::RCode::kNoError) << "query " << i;
  }
  auto health = engine->pool().health();
  ASSERT_EQ(health.size(), 2u);
  EXPECT_FALSE(health[0].healthy);
  EXPECT_GE(health[0].consecutive_failures, 3);
  EXPECT_TRUE(health[1].healthy);
  EXPECT_GT(health[1].ewma_latency_ms, 0.0);

  // Quarantined: the next query must not pay the primary's timeouts — its
  // client-visible latency stays under one attempt timeout because it goes
  // straight to the live secondary.
  auto response = stub_query("fast.example");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(engine->stats().servfails_sent, 0u);
  auto samples = engine->latency_samples_ms();
  ASSERT_FALSE(samples.empty());
  EXPECT_LT(samples.back(), to_ms(config.pool.attempt_timeout));
}

TEST_F(EngineFixture, AllUpstreamsDeadYieldsServfail) {
  EngineConfig config = engine_config();
  config.pool.attempt_timeout = 500 * kMillisecond;
  auto engine = make_engine(config);
  resolvers_[0]->host().set_up(false);
  resolvers_[1]->host().set_up(false);
  auto response = stub_query("dead.example", 0x99, 60 * kSecond);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->rcode, dns::RCode::kServFail);
  EXPECT_EQ(engine->stats().servfails_sent, 1u);
  EXPECT_GE(engine->pool().exhausted(), 1u);
}

TEST_F(EngineFixture, StaleServedInsteadOfServfailOnUpstreamFailure) {
  EngineConfig config = engine_config();
  config.pool.attempt_timeout = 500 * kMillisecond;
  config.max_ttl = 1;
  auto engine = make_engine(config);
  stub_query("resilient.example");
  sim_.run_until(sim_.now() + 5 * kSecond);  // entry stale
  resolvers_[0]->host().set_up(false);
  resolvers_[1]->host().set_up(false);
  auto response = stub_query("resilient.example", 0x55, 60 * kSecond);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->rcode, dns::RCode::kNoError);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(engine->stats().servfails_sent, 0u);
}

TEST_F(EngineFixture, NegativeAnswerCachedAndFannedOut) {
  auto engine = make_engine(engine_config());
  // TXT query against an A-only name yields an empty answer set; the
  // engine caches it as a negative entry.
  auto socket = udp_.bind_ephemeral();
  std::optional<dns::Message> response;
  socket->on_datagram(
      [&](const Endpoint&, util::Buffer payload) {
        response = dns::Message::decode(payload);
      });
  dns::Message query = dns::make_query(
      0x61, dns::DnsName::parse("nodata.example"), dns::RRType::kAAAA);
  socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
  sim_.run_until(sim_.now() + 30 * kSecond);
  ASSERT_TRUE(response.has_value());

  socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
  sim_.run_until(sim_.now() + 30 * kSecond);
  EXPECT_EQ(engine->stats().cache_hits, 1u);
  EXPECT_EQ(engine->stats().upstream_resolves, 1u);
}

TEST_F(EngineFixture, PolicyRefusesDropsAndTruncatesBeforeResolution) {
  EngineConfig config = engine_config();
  {
    policy::RuleConfig rule;
    rule.name = "refuse-flood";
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"flood.example"};
    rule.action = policy::ActionKind::kRefuse;
    config.policy.rules.push_back(rule);
  }
  {
    policy::RuleConfig rule;
    rule.name = "drop-torture";
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"torture.example"};
    rule.action = policy::ActionKind::kDrop;
    config.policy.rules.push_back(rule);
  }
  {
    policy::RuleConfig rule;
    rule.name = "tc-tcp-only";
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"tcp-only.example"};
    rule.action = policy::ActionKind::kTruncate;
    config.policy.rules.push_back(rule);
  }
  auto engine = make_engine(config);

  const auto refused = stub_query("r1.flood.example", 0x21, 5 * kSecond);
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->rcode, dns::RCode::kRefused);
  EXPECT_TRUE(refused->answers.empty());

  // Dropped silently: the client never hears back.
  const auto dropped = stub_query("w9.torture.example", 0x22, 5 * kSecond);
  EXPECT_FALSE(dropped.has_value());

  const auto truncated = stub_query("a.tcp-only.example", 0x23, 5 * kSecond);
  ASSERT_TRUE(truncated.has_value());
  EXPECT_TRUE(truncated->tc);
  EXPECT_EQ(truncated->rcode, dns::RCode::kNoError);

  // None of the three touched cache or upstreams.
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.policy_evaluations, 3u);
  EXPECT_EQ(stats.policy_refused, 1u);
  EXPECT_EQ(stats.policy_dropped, 1u);
  EXPECT_EQ(stats.policy_truncated, 1u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.upstream_resolves, 0u);
  EXPECT_EQ(engine->cache().size(), 0u);
  // Verdicts key into the PR-4 failure taxonomy.
  EXPECT_EQ(stats.policy_errors.count(util::ErrorClass::kRcode), 1u);
  EXPECT_EQ(stats.policy_errors.count(util::ErrorClass::kCancelled), 1u);
  EXPECT_EQ(stats.policy_errors.count(util::ErrorClass::kTruncated), 1u);
  ASSERT_EQ(stats.policy_rules.size(), 3u);
  EXPECT_EQ(stats.policy_rules[0].matches, 1u);
  EXPECT_EQ(stats.policy_rules[1].matches, 1u);
  EXPECT_EQ(stats.policy_rules[2].matches, 1u);
}

TEST_F(EngineFixture, PolicyRoutesSuffixToNamedPool) {
  // Upstream 0 stays in the default pool; upstream 1 forms pool "special".
  EngineConfig config = engine_config();
  {
    policy::RuleConfig rule;
    rule.name = "route-special";
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"special.example"};
    rule.action = policy::ActionKind::kRoutePool;
    rule.pool = "special";
    config.policy.rules.push_back(rule);
  }
  dox::TransportDeps deps;
  deps.sim = &sim_;
  deps.udp = &udp_;
  deps.tcp = &tcp_;
  deps.tickets = &tickets_;
  deps.doq_cache = &doq_cache_;
  std::vector<UpstreamConfig> configs = {upstream_config(0),
                                         upstream_config(1)};
  configs[1].pool = "special";
  ForwarderEngine engine(sim_, udp_, deps, std::move(configs), config);
  ASSERT_EQ(engine.pool_count(), 2u);
  EXPECT_EQ(engine.pool_names()[0], "default");
  EXPECT_EQ(engine.pool_names()[1], "special");

  auto plain = stub_query("plain.example");
  auto special = stub_query("a.special.example");
  ASSERT_TRUE(plain.has_value());
  ASSERT_TRUE(special.has_value());
  ASSERT_EQ(special->answers.size(), 1u);
  // Each pool resolved exactly its own traffic.
  EXPECT_EQ(resolvers_[0]->queries_served(dox::DnsProtocol::kDoQ), 1u);
  EXPECT_EQ(resolvers_[1]->queries_served(dox::DnsProtocol::kDoQ), 1u);
  const EngineStats stats = engine.stats();
  EXPECT_EQ(stats.policy_routed, 1u);
  EXPECT_EQ(stats.policy_evaluations, 2u);
  EXPECT_DOUBLE_EQ(stats.policy_shed_rate(), 0.0);
}

TEST_F(EngineFixture, PolicyUnknownPoolFailsConstruction) {
  EngineConfig config = engine_config();
  policy::RuleConfig rule;
  rule.action = policy::ActionKind::kRoutePool;
  rule.pool = "nope";
  config.policy.rules.push_back(rule);
  EXPECT_THROW(make_engine(config), std::invalid_argument);
}

TEST_F(EngineFixture, PolicyAllowedQueriesStillCacheAndCoalesce) {
  EngineConfig config = engine_config();
  {
    // A chain that never matches the test traffic: the engine must behave
    // exactly as with no chain, just with the evaluation counter ticking.
    policy::RuleConfig rule;
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"never.example"};
    rule.action = policy::ActionKind::kDrop;
    config.policy.rules.push_back(rule);
  }
  auto engine = make_engine(config);
  stub_query("hot.example");
  stub_query("hot.example");
  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.policy_evaluations, 2u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.upstream_resolves, 1u);
  EXPECT_DOUBLE_EQ(stats.policy_shed_rate(), 0.0);
}

class WireCacheEngineFixture : public EngineFixture {
 protected:
  /// Sends one stub query and returns the raw response wire (empty on
  /// timeout) — the byte-fidelity probes below compare images, not decodes.
  std::vector<std::uint8_t> raw_query(const std::string& name,
                                      std::uint16_t id,
                                      SimTime wait = 200 * kMillisecond) {
    auto socket = udp_.bind_ephemeral();
    std::vector<std::uint8_t> raw;
    socket->on_datagram([&](const Endpoint&, util::Buffer payload) {
      raw.assign(payload.view().begin(), payload.view().end());
    });
    dns::Message query =
        dns::make_query(id, dns::DnsName::parse(name), dns::RRType::kA);
    socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
    sim_.run_until(sim_.now() + wait);
    return raw;
  }
};

TEST_F(WireCacheEngineFixture, WireCacheServesRepeatsByPatchingBytes) {
  EngineConfig config = engine_config();
  config.wire_cache_capacity = 1024;
  auto engine = make_engine(config);

  // First query resolves upstream; the second is an L1 hit whose encoded
  // answer fills the wire cache; the third never touches Message at all.
  const auto first = raw_query("hot.example", 0x0101);
  const auto second = raw_query("hot.example", 0x0202);
  const auto third = raw_query("hot.example", 0x0303);
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());
  ASSERT_FALSE(third.empty());

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.queries, 3u);
  EXPECT_EQ(stats.wire_lookups, 3u);
  EXPECT_EQ(stats.wire_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.upstream_resolves, 1u);
  ASSERT_NE(engine->wire_cache(), nullptr);
  EXPECT_EQ(engine->wire_cache()->size(), 1u);
  EXPECT_EQ(engine->wire_cache()->stats().hits, 1u);

  // The patched answer is the L1 answer byte for byte — only the two ID
  // bytes differ (same whole simulated second, so no TTL decay yet).
  ASSERT_EQ(third.size(), second.size());
  EXPECT_EQ(third[0], 0x03);
  EXPECT_EQ(third[1], 0x03);
  EXPECT_TRUE(std::equal(third.begin() + 2, third.end(),
                         second.begin() + 2));
}

TEST_F(WireCacheEngineFixture, WireCacheFoldsQnameCase) {
  EngineConfig config = engine_config();
  config.wire_cache_capacity = 1024;
  auto engine = make_engine(config);
  raw_query("case.example", 1);
  raw_query("case.example", 2);  // fills the wire cache
  const auto shouty = raw_query("CASE.Example", 3);
  ASSERT_FALSE(shouty.empty());
  EXPECT_EQ(engine->stats().wire_hits, 1u);
  const auto decoded = dns::Message::decode(shouty);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->id, 3);
  ASSERT_FALSE(decoded->answers.empty());
}

TEST_F(WireCacheEngineFixture, WireCacheServesStaleAndTriggersRefresh) {
  EngineConfig config = engine_config();
  config.wire_cache_capacity = 1024;
  config.max_ttl = 1;  // 1 s entries: stale quickly
  config.stale_ttl = 30;
  auto engine = make_engine(config);
  raw_query("stale.example", 1);
  raw_query("stale.example", 2);  // fills the wire cache (1 s lifetime)
  sim_.run_until(sim_.now() + 5 * kSecond);

  const auto stale = raw_query("stale.example", 3);
  ASSERT_FALSE(stale.empty());
  const auto decoded = dns::Message::decode(stale);
  ASSERT_TRUE(decoded.has_value());
  ASSERT_FALSE(decoded->answers.empty());
  EXPECT_EQ(decoded->answers[0].ttl, 30u);  // stale-stamped on the wire

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.wire_hits, 1u);
  EXPECT_EQ(stats.stale_hits, 1u);        // wire-stale counts as stale
  EXPECT_EQ(stats.stale_refreshes, 1u);   // background refresh started
  EXPECT_EQ(stats.upstream_resolves, 2u);
  // A stale image serves once: the entry is gone until the next fill.
  EXPECT_EQ(engine->wire_cache()->size(), 0u);
}

TEST_F(WireCacheEngineFixture, PolicyChainRunsOnWireHits) {
  // A refill-free rate limiter (rate 0, burst 2) admits exactly two
  // queries, so the third — which probes the wire cache successfully — must
  // still be REFUSED by the chain: the fast path cannot bypass policy.
  EngineConfig config = engine_config();
  config.wire_cache_capacity = 1024;
  {
    policy::RuleConfig rule;
    rule.name = "budget";
    rule.matcher = policy::MatcherKind::kRateLimit;
    rule.rate_qps = 0;
    rule.burst = 2;
    rule.action = policy::ActionKind::kRefuse;
    config.policy.rules.push_back(rule);
  }
  auto engine = make_engine(config);
  raw_query("hot.example", 1);
  raw_query("hot.example", 2);  // fills the wire cache
  const auto refused = raw_query("hot.example", 3);
  ASSERT_FALSE(refused.empty());
  const auto decoded = dns::Message::decode(refused);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->rcode, dns::RCode::kRefused);
  EXPECT_TRUE(decoded->answers.empty());

  const EngineStats stats = engine->stats();
  EXPECT_EQ(stats.policy_evaluations, 3u);
  EXPECT_EQ(stats.policy_refused, 1u);
  EXPECT_EQ(stats.wire_lookups, 3u);
  EXPECT_EQ(stats.wire_hits, 0u);  // consumed by policy, not served
}

TEST(EngineStatsTest, AddMergesWireCounters) {
  EngineStats a;
  a.wire_hits = 3;
  a.wire_lookups = 10;
  EngineStats b;
  b.wire_hits = 4;
  b.wire_lookups = 11;
  a.add(b);
  EXPECT_EQ(a.wire_hits, 7u);
  EXPECT_EQ(a.wire_lookups, 21u);
}

}  // namespace
}  // namespace doxlab::engine
