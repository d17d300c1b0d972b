// Fault-injection matrix for the typed failure taxonomy: every injected
// fault must surface as its exact util::ErrorClass, the transport's
// ResultHandler must fire exactly once, and the phase timeline must carry a
// terminal kError mark. Also covers the pool-level REFUSED policy: an
// rcode-REFUSED answer walks to the next candidate without burning an
// attempt from the max_attempts budget.
#include <gtest/gtest.h>

#include "dox/transport.h"
#include "engine/upstream_pool.h"
#include "net/network.h"
#include "quic/server.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "tls/wire.h"

namespace doxlab::dox {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

class FaultFixture : public ::testing::Test {
 protected:
  FaultFixture()
      : network_(sim_, Rng(17)),
        client_host_(network_.add_host("vantage",
                                       IpAddress::from_octets(10, 1, 0, 1),
                                       {50.11, 8.68}, Continent::kEurope)),
        faulty_host_(network_.add_host("faulty",
                                       IpAddress::from_octets(10, 9, 0, 1),
                                       {48.86, 2.35}, Continent::kEurope)),
        udp_(client_host_),
        tcp_(client_host_),
        faulty_udp_(faulty_host_),
        faulty_tcp_(faulty_host_) {
    network_.set_loss_rate(0.0);
    network_.set_path_override(client_host_.address(),
                               faulty_host_.address(), from_ms(10));
  }

  TransportDeps deps() {
    TransportDeps d;
    d.sim = &sim_;
    d.udp = &udp_;
    d.tcp = &tcp_;
    d.tickets = &tickets_;
    d.doq_cache = &doq_cache_;
    return d;
  }

  TransportOptions faulty_options(DnsProtocol protocol) {
    TransportOptions opts;
    opts.resolver = Endpoint{faulty_host_.address(), default_port(protocol)};
    return opts;
  }

  /// Starts an unresponsive-but-reachable resolver: handshakes succeed,
  /// every DNS query is silently dropped.
  resolver::DoxResolver& start_blackhole_resolver() {
    resolver::ResolverProfile profile;
    profile.name = "blackhole";
    profile.address = IpAddress::from_octets(10, 2, 0, 1);
    profile.location = {52.37, 4.90};
    profile.secret = 0xDEAD;
    profile.supports_doh3 = true;
    profile.drop_probability = 1.0;
    resolver_ = std::make_unique<resolver::DoxResolver>(network_, profile,
                                                        Rng(7));
    network_.set_path_override(client_host_.address(), profile.address,
                               from_ms(10));
    return *resolver_;
  }

  /// Starts a healthy resolver (the pool's fallback target).
  resolver::DoxResolver& start_healthy_resolver() {
    resolver::ResolverProfile profile;
    profile.name = "healthy";
    profile.address = IpAddress::from_octets(10, 2, 0, 2);
    profile.location = {52.37, 4.90};
    profile.secret = 0xBEEF;
    profile.drop_probability = 0.0;
    resolver_ = std::make_unique<resolver::DoxResolver>(network_, profile,
                                                        Rng(8));
    network_.set_path_override(client_host_.address(), profile.address,
                               from_ms(10));
    return *resolver_;
  }

  /// Binds a UDP responder on the faulty host that answers every query
  /// with rcode REFUSED (a resolver that is up but declines service).
  void start_refused_responder(std::uint16_t port = 53) {
    refuser_socket_ = faulty_udp_.bind(port);
    refuser_socket_->on_datagram([this](const Endpoint& from,
                                        util::Buffer payload) {
      auto query = dns::Message::decode(payload);
      if (!query || query->qr || query->questions.empty()) return;
      dns::Message response;
      response.id = query->id;
      response.qr = true;
      response.ra = true;
      response.rcode = dns::RCode::kRefused;
      response.questions = query->questions;
      refuser_socket_->send_to(from, response.encode());
    });
  }

  static dns::Question question(const std::string& name) {
    return dns::Question{dns::DnsName::parse(name), dns::RRType::kA,
                         dns::RRClass::kIN};
  }

  struct Completion {
    int calls = 0;
    QueryResult result;
  };

  /// Issues one query, runs the simulation for `wait`, then keeps running
  /// to catch any (forbidden) second handler invocation.
  void run_query(DnsTransport& transport, Completion& completion,
                 SimTime wait = 30 * kSecond) {
    transport.resolve(question("example.com"), [&completion](QueryResult r) {
      ++completion.calls;
      completion.result = std::move(r);
    });
    sim_.run_until(sim_.now() + wait);
    sim_.run_until(sim_.now() + 10 * kSecond);  // late-event double-fire sweep
  }

  /// Asserts the matrix invariants for one (protocol, fault) cell.
  void expect_failure(const Completion& completion, util::ErrorClass expected,
                      const std::string& context) {
    EXPECT_EQ(completion.calls, 1) << context << ": handler invocations";
    EXPECT_FALSE(completion.result.ok()) << context;
    EXPECT_EQ(completion.result.error_class(), expected)
        << context << ": got " << completion.result.error();
    EXPECT_TRUE(completion.result.timeline.has(QueryPhase::kSubmit))
        << context;
    EXPECT_TRUE(completion.result.timeline.has(QueryPhase::kError))
        << context;
    EXPECT_FALSE(completion.result.timeline.has(QueryPhase::kResponse))
        << context;
  }

  sim::Simulator sim_;
  net::Network network_;
  net::Host& client_host_;
  net::Host& faulty_host_;
  net::UdpStack udp_;
  tcp::TcpStack tcp_;
  net::UdpStack faulty_udp_;
  tcp::TcpStack faulty_tcp_;
  tls::TicketStore tickets_;
  DoqSessionCache doq_cache_;
  std::unique_ptr<resolver::DoxResolver> resolver_;
  std::unique_ptr<net::UdpSocket> refuser_socket_;
  std::unique_ptr<quic::QuicServer> quic_server_;
  std::vector<std::shared_ptr<tcp::TcpConnection>> accepted_;
};

// --------------------------------------------------- fault: query black hole

// A reachable resolver that never answers DNS queries: every protocol's
// query deadline fires and classifies as kTimeout with the shared detail.
TEST_F(FaultFixture, UnresponsiveResolverTimesOutOnEveryProtocol) {
  resolver::DoxResolver& resolver = start_blackhole_resolver();
  for (DnsProtocol protocol : kAllProtocols) {
    TransportOptions opts;
    opts.resolver =
        Endpoint{resolver.profile().address, default_port(protocol)};
    auto transport = make_transport(protocol, deps(), opts);
    Completion completion;
    run_query(*transport, completion);
    expect_failure(completion, util::ErrorClass::kTimeout,
                   std::string(protocol_name(protocol)));
    EXPECT_EQ(completion.result.error().detail, util::kQueryDeadlineDetail)
        << protocol_name(protocol);
  }
}

// ------------------------------------------------------------ fault: TCP RST

// A host that RSTs every SYN (no listener + refuse_unbound): the three
// TCP-based transports classify as kConnRefused.
TEST_F(FaultFixture, RstToSynClassifiesAsConnRefused) {
  faulty_tcp_.set_refuse_unbound(true);
  for (DnsProtocol protocol :
       {DnsProtocol::kDoTcp, DnsProtocol::kDoT, DnsProtocol::kDoH}) {
    auto transport = make_transport(protocol, deps(),
                                    faulty_options(protocol));
    Completion completion;
    run_query(*transport, completion);
    expect_failure(completion, util::ErrorClass::kConnRefused,
                   std::string(protocol_name(protocol)));
  }
}

// ---------------------------------------------------------- fault: TLS alert

// A TCP server that answers the ClientHello with a well-framed TLS record
// whose handshake body is garbage: the TLS session aborts with an alert and
// DoT/DoH classify as kTlsAlert.
TEST_F(FaultFixture, GarbageServerHelloClassifiesAsTlsAlert) {
  for (DnsProtocol protocol : {DnsProtocol::kDoT, DnsProtocol::kDoH}) {
    tcp::TcpListener& listener =
        faulty_tcp_.listen(default_port(protocol));
    listener.on_accept([this](const std::shared_ptr<tcp::TcpConnection>& c) {
      accepted_.push_back(c);
      std::weak_ptr<tcp::TcpConnection> weak = c;
      c->on_data([weak](std::span<const std::uint8_t>) {
        // Record type 22 (handshake), length 2: too short for the u8 type +
        // u24 length of a handshake message -> "malformed handshake record".
        if (auto conn = weak.lock()) {
          conn->send(std::vector<std::uint8_t>{22, 0x03, 0x03, 0x00, 0x02,
                                               0xAB, 0xCD});
        }
      });
    });
    auto transport = make_transport(protocol, deps(),
                                    faulty_options(protocol));
    Completion completion;
    run_query(*transport, completion);
    expect_failure(completion, util::ErrorClass::kTlsAlert,
                   std::string(protocol_name(protocol)));
  }
}

// ------------------------------------------- fault: QUIC CONNECTION_CLOSE

// A QUIC server that completes the handshake and then closes with a nonzero
// application error: DoQ classifies as kQuicTransportError.
TEST_F(FaultFixture, ServerConnectionCloseClassifiesAsQuicTransportError) {
  quic::QuicConfig config;
  config.tls.is_server = true;
  config.tls.alpn = {"doq-i02"};
  config.tls.ticket_secret = 0x5151;
  quic_server_ = std::make_unique<quic::QuicServer>(
      sim_, faulty_udp_, default_port(DnsProtocol::kDoQ), config);
  quic_server_->on_accept(
      [](const std::shared_ptr<quic::QuicConnection>& conn,
         const Endpoint&) {
        std::weak_ptr<quic::QuicConnection> weak = conn;
        conn->set_on_handshake_complete(
            [weak](const quic::QuicHandshakeInfo&) {
              if (auto c = weak.lock()) c->close(0x0A, "server refused");
            });
      });
  auto transport = make_transport(DnsProtocol::kDoQ, deps(),
                                  faulty_options(DnsProtocol::kDoQ));
  Completion completion;
  run_query(*transport, completion);
  expect_failure(completion, util::ErrorClass::kQuicTransportError, "DoQ");
}

// ----------------------------------------------- fault: garbage stream bytes

// A TCP server that replies with a garbage DNS length prefix (too short to
// hold a DNS header): the bounded StreamMessageReader poisons itself and
// DoTCP classifies as kProtocolError.
TEST_F(FaultFixture, GarbageLengthPrefixClassifiesAsProtocolError) {
  tcp::TcpListener& listener =
      faulty_tcp_.listen(default_port(DnsProtocol::kDoTcp));
  listener.on_accept([this](const std::shared_ptr<tcp::TcpConnection>& c) {
    accepted_.push_back(c);
    std::weak_ptr<tcp::TcpConnection> weak = c;
    c->on_data([weak](std::span<const std::uint8_t>) {
      // Prefix announces a 4-byte "message" — below the 12-byte DNS header.
      if (auto conn = weak.lock()) {
        conn->send(
            std::vector<std::uint8_t>{0x00, 0x04, 0xDE, 0xAD, 0xBE, 0xEF});
      }
    });
  });
  auto transport = make_transport(DnsProtocol::kDoTcp, deps(),
                                  faulty_options(DnsProtocol::kDoTcp));
  Completion completion;
  run_query(*transport, completion);
  expect_failure(completion, util::ErrorClass::kProtocolError, "DoTCP");
}

// -------------------------------------------------- fault: REFUSED (rcode)

// Pool policy: an rcode-REFUSED answer is a transport success (the upstream
// is alive) but a resolution failure — the pool must walk to the next
// candidate WITHOUT burning an attempt from the max_attempts budget. With
// max_attempts=1 the fallback succeeds only if the REFUSED attempt was
// refunded.
TEST_F(FaultFixture, RefusedAnswerWalksPastWithoutBurningAttempt) {
  start_refused_responder();
  resolver::DoxResolver& healthy = start_healthy_resolver();

  engine::UpstreamConfig refuser;
  refuser.name = "refuser";
  refuser.address = faulty_host_.address();
  refuser.protocols = {DnsProtocol::kDoUdp};
  engine::UpstreamConfig fallback;
  fallback.name = "healthy";
  fallback.address = healthy.profile().address;
  fallback.protocols = {DnsProtocol::kDoUdp};

  engine::PoolConfig pool_config;
  pool_config.max_attempts = 1;
  engine::UpstreamPool pool(sim_, deps(), {refuser, fallback}, pool_config);

  Completion completion;
  pool.resolve(question("example.com"), [&completion](QueryResult r) {
    ++completion.calls;
    completion.result = std::move(r);
  });
  sim_.run_until(sim_.now() + 30 * kSecond);

  EXPECT_EQ(completion.calls, 1);
  EXPECT_TRUE(completion.result.ok())
      << "fallback after REFUSED failed: " << completion.result.error();
  EXPECT_EQ(completion.result.response.rcode, dns::RCode::kNoError);
  EXPECT_EQ(pool.error_counts().count(util::ErrorClass::kRcode), 1u);
  EXPECT_EQ(pool.failovers(), 1u);
  // REFUSED keeps the upstream healthy: it answered, it just declined.
  for (const engine::UpstreamHealth& health : pool.health()) {
    EXPECT_EQ(health.consecutive_failures, 0) << health.name;
    EXPECT_TRUE(health.healthy) << health.name;
  }
}

// Every candidate answering REFUSED exhausts the pool with a kRcode
// classification (not a timeout, not a generic failure).
TEST_F(FaultFixture, RefusedEverywhereExhaustsWithRcodeClass) {
  start_refused_responder();

  engine::UpstreamConfig refuser;
  refuser.name = "refuser";
  refuser.address = faulty_host_.address();
  refuser.protocols = {DnsProtocol::kDoUdp};

  engine::UpstreamPool pool(sim_, deps(), {refuser}, engine::PoolConfig{});

  Completion completion;
  pool.resolve(question("example.com"), [&completion](QueryResult r) {
    ++completion.calls;
    completion.result = std::move(r);
  });
  sim_.run_until(sim_.now() + 60 * kSecond);

  EXPECT_EQ(completion.calls, 1);
  EXPECT_FALSE(completion.result.ok());
  EXPECT_EQ(completion.result.error_class(), util::ErrorClass::kRcode);
  EXPECT_EQ(completion.result.error().rcode,
            static_cast<std::uint8_t>(dns::RCode::kRefused));
  EXPECT_GE(pool.error_counts().count(util::ErrorClass::kRcode), 1u);
  EXPECT_EQ(pool.exhausted(), 1u);
}

}  // namespace
}  // namespace doxlab::dox
