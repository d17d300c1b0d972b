// Tests for the local DNS proxy: stub forwarding over each upstream
// protocol, id rewriting, session reset semantics, cache on/off, SERVFAIL.
#include <gtest/gtest.h>

#include "dox/transport.h"
#include "net/network.h"
#include "proxy/proxy.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"

namespace doxlab::proxy {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

class ProxyFixture : public ::testing::Test {
 protected:
  ProxyFixture()
      : network_(sim_, Rng(21)),
        client_host_(network_.add_host("client",
                                       IpAddress::from_octets(10, 1, 0, 1),
                                       {50.11, 8.68}, Continent::kEurope)),
        udp_(client_host_),
        tcp_(client_host_) {
    network_.set_loss_rate(0.0);
    resolver::ResolverProfile profile;
    profile.name = "resolver";
    profile.address = IpAddress::from_octets(10, 2, 0, 1);
    profile.location = {48.86, 2.35};
    profile.secret = 0xAA;
    profile.drop_probability = 0.0;
    resolver_ = std::make_unique<resolver::DoxResolver>(network_, profile,
                                                        Rng(1));
    network_.set_path_override(client_host_.address(), profile.address,
                               from_ms(10));
  }

  ProxyConfig proxy_config(dox::DnsProtocol protocol) {
    ProxyConfig config;
    config.upstream_protocol = protocol;
    config.upstream = Endpoint{resolver_->profile().address,
                               dox::default_port(protocol)};
    return config;
  }

  dox::TransportDeps deps() {
    dox::TransportDeps d;
    d.sim = &sim_;
    d.udp = &udp_;
    d.tcp = &tcp_;
    d.tickets = &tickets_;
    d.doq_cache = &doq_cache_;
    return d;
  }

  /// Sends a stub query to the proxy from an ephemeral socket; returns the
  /// decoded response.
  std::optional<dns::Message> stub_query(const std::string& name,
                                         std::uint16_t id = 0x77) {
    auto socket = udp_.bind_ephemeral();
    std::optional<dns::Message> response;
    socket->on_datagram(
        [&](const Endpoint&, util::Buffer payload) {
          response = dns::Message::decode(payload);
        });
    dns::Message query =
        dns::make_query(id, dns::DnsName::parse(name), dns::RRType::kA);
    socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
    sim_.run_until(sim_.now() + 30 * kSecond);
    return response;
  }

  sim::Simulator sim_;
  net::Network network_;
  net::Host& client_host_;
  net::UdpStack udp_;
  tcp::TcpStack tcp_;
  tls::TicketStore tickets_;
  dox::DoqSessionCache doq_cache_;
  std::unique_ptr<resolver::DoxResolver> resolver_;
};

class ProxyAllProtocols
    : public ProxyFixture,
      public ::testing::WithParamInterface<dox::DnsProtocol> {};

TEST_P(ProxyAllProtocols, ForwardsAndRewritesId) {
  DnsProxy proxy(udp_, deps(), proxy_config(GetParam()));
  auto response = stub_query("example.com", 0x1234);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->id, 0x1234);  // stub id restored
  EXPECT_TRUE(response->qr);
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(dns::rdata_as_a(response->answers[0]),
            resolver::authoritative_ipv4(dns::DnsName::parse("example.com")));
  EXPECT_EQ(proxy.queries_forwarded(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProxyAllProtocols,
                         ::testing::ValuesIn(dox::kAllProtocols),
                         [](const auto& info) {
                           return std::string(
                               dox::protocol_name(info.param));
                         });

TEST_F(ProxyFixture, ForwardsOverDoh3WhenResolverSupportsIt) {
  // The fixture's resolver does not serve DoH3; build one that does.
  resolver::ResolverProfile p;
  p.name = "doh3-resolver";
  p.address = IpAddress::from_octets(10, 2, 0, 9);
  p.location = {48.86, 2.35};
  p.secret = 0xBB;
  p.supports_doh3 = true;
  p.drop_probability = 0.0;
  resolver::DoxResolver doh3_resolver(network_, p, Rng(2));
  network_.set_path_override(client_host_.address(), p.address, from_ms(10));

  ProxyConfig config;
  config.upstream_protocol = dox::DnsProtocol::kDoH3;
  config.upstream = Endpoint{p.address, 443};
  DnsProxy proxy(udp_, deps(), config);
  auto response = stub_query("h3.example");
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_EQ(dns::rdata_as_a(response->answers[0]),
            resolver::authoritative_ipv4(dns::DnsName::parse("h3.example")));
}

TEST_F(ProxyFixture, TruncatedUpstreamAnswerArrivesCompleteViaTcpFallback) {
  // A big TXT answer truncates on the upstream UDP leg; the proxy's
  // transport falls back to TCP and the stub still gets the full record.
  DnsProxy proxy(udp_, deps(), proxy_config(dox::DnsProtocol::kDoUdp));
  auto socket = udp_.bind_ephemeral();
  std::optional<dns::Message> response;
  socket->on_datagram(
      [&](const Endpoint&, util::Buffer payload) {
        response = dns::Message::decode(payload);
      });
  dns::Message query = dns::make_query(
      0x31, dns::DnsName::parse("txt2000.example"), dns::RRType::kTXT,
      /*udp_payload_size=*/4096);  // stub leg is loopback: no truncation
  socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
  sim_.run_until(sim_.now() + 30 * kSecond);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->answers.size(), 1u);
  EXPECT_GT(response->answers[0].rdata.size(), 1999u);
}

TEST_F(ProxyFixture, CacheDisabledForwardsEveryQuery) {
  DnsProxy proxy(udp_, deps(), proxy_config(dox::DnsProtocol::kDoUdp));
  stub_query("example.com");
  stub_query("example.com");
  EXPECT_EQ(proxy.queries_forwarded(), 2u);
}

TEST_F(ProxyFixture, ResetSessionsForcesNewUpstreamHandshake) {
  DnsProxy proxy(udp_, deps(), proxy_config(dox::DnsProtocol::kDoT));
  stub_query("a.example");
  const auto stats_before = proxy.upstream_wire_stats();
  sim_.run_until(sim_.now() + 300 * kMillisecond);
  proxy.reset_sessions();
  sim_.run_until(sim_.now() + kSecond);
  stub_query("b.example");
  const auto stats_after = proxy.upstream_wire_stats();
  // Fresh connection, fresh accounting: the second connection's handshake
  // bytes are present again.
  EXPECT_GT(stats_before.handshake_c2r, 0u);
  EXPECT_GT(stats_after.handshake_c2r, 0u);
}

TEST_F(ProxyFixture, UpstreamFailureYieldsServfail) {
  ProxyConfig config = proxy_config(dox::DnsProtocol::kDoUdp);
  config.transport_options.query_timeout = 2 * kSecond;
  config.transport_options.udp_max_attempts = 1;
  DnsProxy proxy(udp_, deps(), config);
  network_.set_loss_override(client_host_.address(),
                             resolver_->profile().address, 1.0);
  EXPECT_EQ(proxy.servfails_sent(), 0u);
  auto response = stub_query("dead.example");
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->rcode, dns::RCode::kServFail);
  EXPECT_EQ(proxy.servfails_sent(), 1u);
}

TEST_F(ProxyFixture, MalformedStubQueryIgnored) {
  DnsProxy proxy(udp_, deps(), proxy_config(dox::DnsProtocol::kDoUdp));
  auto socket = udp_.bind_ephemeral();
  bool got = false;
  socket->on_datagram(
      [&](const Endpoint&, util::Buffer) { got = true; });
  socket->send_to(Endpoint{client_host_.address(), 53}, {1, 2, 3});
  sim_.run_until(sim_.now() + kSecond);
  EXPECT_FALSE(got);
  EXPECT_EQ(proxy.queries_forwarded(), 0u);
}

TEST_F(ProxyFixture, ConcurrentStubQueriesAllAnswered) {
  DnsProxy proxy(udp_, deps(), proxy_config(dox::DnsProtocol::kDoQ));
  auto socket = udp_.bind_ephemeral();
  int answers = 0;
  socket->on_datagram(
      [&](const Endpoint&, util::Buffer) { ++answers; });
  for (int i = 0; i < 5; ++i) {
    dns::Message query = dns::make_query(
        static_cast<std::uint16_t>(100 + i),
        dns::DnsName::parse("host" + std::to_string(i) + ".example"),
        dns::RRType::kA);
    socket->send_to(Endpoint{client_host_.address(), 53}, query.encode());
  }
  sim_.run_until(sim_.now() + 30 * kSecond);
  EXPECT_EQ(answers, 5);
  EXPECT_EQ(proxy.queries_forwarded(), 5u);
}

}  // namespace
}  // namespace doxlab::proxy
