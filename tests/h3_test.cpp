// Tests for the HTTP/3 model and the DoH3 transport end to end: framing,
// control-stream SETTINGS, request/response exchange over real QUIC, and
// the DoH3-vs-DoH handshake advantage the paper's future work predicts.
#include <gtest/gtest.h>

#include "dox/transport.h"
#include "h3/connection.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"

namespace doxlab::h3 {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

// --------------------------------------------------------------- end to end

class Doh3Fixture : public ::testing::Test {
 protected:
  Doh3Fixture()
      : network_(sim_, Rng(17)),
        client_host_(network_.add_host("client",
                                       IpAddress::from_octets(10, 1, 0, 1),
                                       {50.11, 8.68}, Continent::kEurope)),
        udp_(client_host_),
        tcp_(client_host_) {
    network_.set_loss_rate(0.0);
  }

  void start_resolver(bool supports_0rtt = false) {
    resolver::ResolverProfile profile;
    profile.name = "resolver";
    profile.address = IpAddress::from_octets(10, 2, 0, 1);
    profile.location = {52.37, 4.90};
    profile.secret = 0xD043;
    profile.supports_doh3 = true;
    profile.supports_0rtt = supports_0rtt;
    profile.drop_probability = 0.0;
    resolver_ = std::make_unique<resolver::DoxResolver>(network_, profile,
                                                        Rng(1));
    network_.set_path_override(client_host_.address(), profile.address,
                               from_ms(10));
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

  dox::TransportOptions options(dox::DnsProtocol protocol) {
    dox::TransportOptions opts;
    opts.resolver = Endpoint{resolver_->profile().address,
                             dox::default_port(protocol)};
    return opts;
  }

  dox::QueryResult query(dox::DnsTransport& transport,
                         const std::string& name) {
    std::optional<dox::QueryResult> result;
    transport.resolve(dns::Question{dns::DnsName::parse(name),
                                    dns::RRType::kA, dns::RRClass::kIN},
                      [&](dox::QueryResult r) { result = std::move(r); });
    sim_.run_until(sim_.now() + 30 * kSecond);
    EXPECT_TRUE(result.has_value());
    return result.value_or(dox::QueryResult{});
  }

  dox::QueryResult warmed_query(dox::DnsProtocol protocol) {
    {
      auto warm = dox::make_transport(protocol, deps(), options(protocol));
      auto r = query(*warm, "google.com");
      EXPECT_TRUE(r.ok()) << r.error();
      sim_.run_until(sim_.now() + 300 * kMillisecond);
      warm->reset_sessions();
      sim_.run_until(sim_.now() + kSecond);
    }
    auto measured = dox::make_transport(protocol, deps(), options(protocol));
    auto r = query(*measured, "google.com");
    sim_.run_until(sim_.now() + 300 * kMillisecond);
    measured->reset_sessions();
    sim_.run_until(sim_.now() + kSecond);
    return r;
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

TEST_F(Doh3Fixture, ResolvesOverHttp3) {
  start_resolver();
  auto transport = dox::make_transport(dox::DnsProtocol::kDoH3, deps(),
                                       options(dox::DnsProtocol::kDoH3));
  auto result = query(*transport, "example.com");
  ASSERT_TRUE(result.ok()) << result.error();
  ASSERT_EQ(result.response.answers.size(), 1u);
  EXPECT_EQ(dns::rdata_as_a(result.response.answers[0]),
            resolver::authoritative_ipv4(dns::DnsName::parse("example.com")));
  EXPECT_EQ(result.alpn, "h3");
}

TEST_F(Doh3Fixture, WarmedHandshakeIsOneRoundTripLikeDoQ) {
  start_resolver();
  auto r = warmed_query(dox::DnsProtocol::kDoH3);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.session_resumed);
  // 1 RTT = 20 ms: HTTP/3 inherits QUIC's combined handshake — the paper's
  // future-work expectation that DoH3 closes the DoH(H2) gap.
  EXPECT_NEAR(to_ms(r.handshake_time()), 20.0, 8.0);
}

TEST_F(Doh3Fixture, ResolverWithoutDoh3RefusesAlpn) {
  start_resolver();
  // Point at a second resolver that does NOT enable DoH3: its DoQ listener
  // on 853 only offers the DoQ ALPN, and nothing listens on UDP 443.
  resolver::ResolverProfile other;
  other.name = "plain";
  other.address = IpAddress::from_octets(10, 2, 0, 2);
  other.location = {52.0, 5.0};
  other.secret = 0x999;
  other.supports_doh3 = false;
  other.drop_probability = 0.0;
  resolver::DoxResolver plain(network_, other, Rng(2));
  network_.set_path_override(client_host_.address(), other.address,
                             from_ms(10));
  dox::TransportOptions opts;
  opts.resolver = Endpoint{other.address, 443};
  opts.query_timeout = 5 * kSecond;
  auto transport = dox::make_transport(dox::DnsProtocol::kDoH3, deps(), opts);
  auto result = query(*transport, "example.com");
  EXPECT_FALSE(result.ok());
}

TEST_F(Doh3Fixture, MultipleQueriesShareOneConnection) {
  start_resolver();
  auto transport = dox::make_transport(dox::DnsProtocol::kDoH3, deps(),
                                       options(dox::DnsProtocol::kDoH3));
  auto a = query(*transport, "a.example");
  auto b = query(*transport, "b.example");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(a.new_session);
  EXPECT_FALSE(b.new_session);
}

TEST_F(Doh3Fixture, ClosedConnectionsReleaseTheirSessions) {
  // The resolver holds an H3 session per open DoH3 connection and drops it
  // once the connection closes, so sessions do not grow with clients.
  start_resolver();
  for (int client = 0; client < 3; ++client) {
    auto transport = dox::make_transport(dox::DnsProtocol::kDoH3, deps(),
                                         options(dox::DnsProtocol::kDoH3));
    ASSERT_TRUE(query(*transport, "google.com").ok());
    EXPECT_EQ(resolver_->doh3_sessions(), 1u);
    transport->reset_sessions();
    sim_.run_until(sim_.now() + kSecond);
  }
  EXPECT_EQ(resolver_->queries_served(dox::DnsProtocol::kDoH3), 3u);
  EXPECT_EQ(resolver_->doh3_sessions(), 0u);
}

TEST_F(Doh3Fixture, ZeroRttRequestWhenSupported) {
  start_resolver(/*supports_0rtt=*/true);
  auto r = warmed_query(dox::DnsProtocol::kDoH3);
  ASSERT_TRUE(r.ok()) << r.error();
  EXPECT_TRUE(r.used_0rtt);
  // Query completes within ~1 RTT total.
  EXPECT_NEAR(to_ms(r.total_time()), 20.0, 10.0);
}

TEST_F(Doh3Fixture, CarriesMoreBytesThanDoQButFewerRoundTripsThanDoH) {
  start_resolver();
  dox::WireStats doq, doh3;
  {
    auto t = dox::make_transport(dox::DnsProtocol::kDoQ, deps(),
                                 options(dox::DnsProtocol::kDoQ));
    ASSERT_TRUE(query(*t, "google.com").ok());
    sim_.run_until(sim_.now() + 300 * kMillisecond);
    t->reset_sessions();
    sim_.run_until(sim_.now() + kSecond);
    doq = t->wire_stats();
  }
  {
    auto t = dox::make_transport(dox::DnsProtocol::kDoH3, deps(),
                                 options(dox::DnsProtocol::kDoH3));
    ASSERT_TRUE(query(*t, "google.com").ok());
    sim_.run_until(sim_.now() + 300 * kMillisecond);
    t->reset_sessions();
    sim_.run_until(sim_.now() + kSecond);
    doh3 = t->wire_stats();
  }
  // The HTTP layer (control streams, HEADERS) costs extra bytes over DoQ.
  EXPECT_GT(doh3.query_c2r(), doq.query_c2r());
}

// ------------------------------------------------------------ frame layer

TEST(H3Frames, RequestResponseThroughLoopbackQuic) {
  // Drive two H3Connections over a real QUIC client/server pair.
  sim::Simulator sim;
  net::Network network(sim, Rng(9));
  network.set_loss_rate(0.0);
  auto& a = network.add_host("a", IpAddress::from_octets(10, 3, 0, 1),
                             {50, 8}, Continent::kEurope);
  auto& b = network.add_host("b", IpAddress::from_octets(10, 3, 0, 2),
                             {50, 9}, Continent::kEurope);
  net::UdpStack udp_a(a);
  net::UdpStack udp_b(b);

  quic::QuicConfig server_config;
  server_config.tls.is_server = true;
  server_config.tls.alpn = {"h3"};
  server_config.tls.ticket_secret = 1;
  quic::QuicServer server(sim, udp_b, 443, server_config);

  std::unique_ptr<H3Connection> server_h3;
  std::vector<h2::Header> server_headers;
  std::vector<std::uint8_t> server_body;
  server.on_accept([&](const std::shared_ptr<quic::QuicConnection>& conn,
                       const Endpoint&) {
    H3Connection::Callbacks callbacks;
    callbacks.on_headers = [&](std::uint64_t, const std::vector<h2::Header>& h,
                               bool) { server_headers = h; };
    callbacks.on_data = [&, conn_ptr = conn.get()](
                            std::uint64_t stream,
                            std::span<const std::uint8_t> d, bool end) {
      server_body.assign(d.begin(), d.end());
      if (end) {
        server_h3->send_response(stream, {{":status", "200"}}, {0xAA, 0xBB});
      }
    };
    server_h3 = std::make_unique<H3Connection>(conn, false,
                                               std::move(callbacks));
    conn->set_on_stream_data([&](std::uint64_t id,
                                 std::span<const std::uint8_t> d, bool fin) {
      server_h3->on_stream_data(id, d, fin);
    });
    server_h3->start();
  });

  auto socket = udp_a.bind_ephemeral();
  quic::QuicConnection::Callbacks conn_callbacks;
  conn_callbacks.send_datagram = [&](util::Buffer bytes) {
    socket->send_to(Endpoint{b.address(), 443}, std::move(bytes));
  };
  auto conn = quic::QuicConnection::make_client(
      sim, quic::QuicConfig{.tls = {.alpn = {"h3"}, .sni = "b"}},
      std::move(conn_callbacks));
  socket->on_datagram([&](const Endpoint&, util::Buffer d) {
    conn->on_datagram(d);
  });

  std::vector<h2::Header> client_headers;
  std::vector<std::uint8_t> client_body;
  bool client_end = false;
  H3Connection::Callbacks client_callbacks;
  client_callbacks.on_headers = [&](std::uint64_t,
                                    const std::vector<h2::Header>& h, bool) {
    client_headers = h;
  };
  client_callbacks.on_data = [&](std::uint64_t,
                                 std::span<const std::uint8_t> d, bool end) {
    client_body.assign(d.begin(), d.end());
    client_end = end;
  };
  H3Connection client(conn, true, std::move(client_callbacks));
  conn->set_on_stream_data([&](std::uint64_t id,
                               std::span<const std::uint8_t> d, bool fin) {
    client.on_stream_data(id, d, fin);
  });

  client.start();
  std::uint64_t stream = client.send_request(
      {{":method", "POST"}, {":path", "/dns-query"}}, {1, 2, 3});
  conn->connect();
  sim.run_until(5 * kSecond);

  EXPECT_EQ(stream % 4, 0u);  // client bidi stream
  ASSERT_EQ(server_headers.size(), 2u);
  EXPECT_EQ(server_body, (std::vector<std::uint8_t>{1, 2, 3}));
  ASSERT_FALSE(client_headers.empty());
  EXPECT_EQ(client_headers[0].value, "200");
  EXPECT_EQ(client_body, (std::vector<std::uint8_t>{0xAA, 0xBB}));
  EXPECT_TRUE(client_end);
  EXPECT_TRUE(client.settings_received());
  EXPECT_TRUE(server_h3->settings_received());
}

}  // namespace
}  // namespace doxlab::h3
