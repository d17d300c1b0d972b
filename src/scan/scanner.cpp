#include "scan/scanner.h"

#include "quic/connection.h"
#include "quic/wire.h"
#include "tls/ticket.h"
#include "util/logging.h"

namespace doxlab::scan {

namespace {
/// An intentionally unsupported QUIC version ("greased", like the paper's
/// version-0 probe): every spec-conforming server answers with Version
/// Negotiation and keeps no state.
constexpr std::uint32_t kProbeVersion = 0x1A2A3A4A;
}  // namespace

Ipv4Scanner::Ipv4Scanner(net::Network& network, net::Host& scan_host,
                         ScanConfig config)
    : network_(network), host_(scan_host), udp_(scan_host), tcp_(scan_host),
      config_(std::move(config)) {}

std::map<net::IpAddress, std::uint16_t> Ipv4Scanner::probe_versions(
    const std::vector<net::IpAddress>& candidates, ScanReport& report) {
  auto& sim = network_.simulator();
  std::map<net::IpAddress, std::uint16_t> responders;

  auto socket = udp_.bind_ephemeral();
  quic::DecodedDatagram reply;
  socket->on_datagram([&](const net::Endpoint& from,
                          util::Buffer payload) {
    if (!quic::decode_datagram(payload, reply) || reply.packets.empty()) {
      return;
    }
    if (reply.packets[0].type != quic::PacketType::kVersionNegotiation) {
      return;
    }
    ++report.vn_responses;
    responders.try_emplace(from.address, from.port);
  });

  // One INITIAL probe per (address, port), minimally padded like ZMap's
  // stateless probes.
  for (net::IpAddress address : candidates) {
    ++report.addresses_probed;
    for (std::uint16_t port : config_.ports) {
      quic::QuicPacket probe;
      probe.type = quic::PacketType::kInitial;
      probe.version = static_cast<quic::QuicVersion>(kProbeVersion);
      probe.dcid = 0xF00D;
      probe.scid = 0xBEEF;
      const std::uint8_t hello[1] = {0};
      probe.frames.push_back(
          quic::Frame::crypto(0, util::Buffer::copy_of(hello)));
      std::vector<quic::QuicPacket> packets = {probe};
      ++report.probes_sent;
      socket->send_to(net::Endpoint{address, port},
                      quic::encode_datagram(packets, true));
    }
  }
  sim.run_until(sim.now() + config_.probe_timeout);
  return responders;
}

std::vector<net::IpAddress> Ipv4Scanner::verify_doq(
    const std::map<net::IpAddress, std::uint16_t>& quic_hosts) {
  auto& sim = network_.simulator();
  std::vector<net::IpAddress> verified;

  for (const auto& [address, port] : quic_hosts) {
    // Attempt a real handshake offering the DoQ ALPN set. Servers that run
    // QUIC but not DoQ would fail ALPN negotiation.
    bool ok = false;
    bool done = false;
    auto socket = udp_.bind_ephemeral();

    quic::QuicConfig config;
    config.tls.alpn = {"doq", "doq-i11", "doq-i10", "doq-i09", "doq-i08",
                       "doq-i07", "doq-i06", "doq-i05", "doq-i04", "doq-i03",
                       "doq-i02", "doq-i01", "doq-i00"};
    config.tls.sni = "scan-" + address.to_string();

    quic::QuicConnection::Callbacks callbacks;
    callbacks.send_datagram = [&socket, endpoint = net::Endpoint{address,
                                                                 port}](
                                  util::Buffer bytes) {
      socket->send_to(endpoint, std::move(bytes));
    };
    callbacks.on_handshake_complete = [&](const quic::QuicHandshakeInfo&) {
      ok = true;
      done = true;
    };
    callbacks.on_closed = [&](const util::Error&) { done = true; };
    auto conn = quic::QuicConnection::make_client(sim, config,
                                                  std::move(callbacks));
    socket->on_datagram([conn](const net::Endpoint&,
                               util::Buffer payload) {
      conn->on_datagram(payload);
    });
    conn->connect();
    const SimTime deadline = sim.now() + 6 * kSecond;
    while (!done && sim.now() < deadline) {
      if (!sim.step()) sim.run_until(deadline);
    }
    conn->close();
    sim.run_until(sim.now() + 100 * kMillisecond);
    if (ok) verified.push_back(address);
  }
  return verified;
}

void Ipv4Scanner::probe_support(const std::vector<net::IpAddress>& doq_hosts,
                                ScanReport& report) {
  auto& sim = network_.simulator();
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;

  dox::TransportDeps deps;
  deps.sim = &sim;
  deps.udp = &udp_;
  deps.tcp = &tcp_;
  deps.tickets = &tickets;
  deps.doq_cache = &doq_cache;

  const dns::Question question{dns::DnsName::parse("example.com"),
                               dns::RRType::kA, dns::RRClass::kIN};

  for (net::IpAddress address : doq_hosts) {
    bool support[4] = {false, false, false, false};
    const dox::DnsProtocol protocols[4] = {
        dox::DnsProtocol::kDoUdp, dox::DnsProtocol::kDoTcp,
        dox::DnsProtocol::kDoT, dox::DnsProtocol::kDoH};
    for (int i = 0; i < 4; ++i) {
      dox::TransportOptions options;
      options.resolver = net::Endpoint{address, dox::default_port(protocols[i])};
      options.query_timeout = 8 * kSecond;
      auto transport = dox::make_transport(protocols[i], deps, options);
      bool done = false;
      transport->resolve(question, [&, i](dox::QueryResult result) {
        support[i] = result.ok();
        done = true;
      });
      const SimTime deadline = sim.now() + 10 * kSecond;
      while (!done && sim.now() < deadline) {
        if (!sim.step()) sim.run_until(deadline);
      }
      transport->reset_sessions();
      sim.run_until(sim.now() + 100 * kMillisecond);
    }
    if (support[0]) ++report.doudp;
    if (support[1]) ++report.dotcp;
    if (support[2]) ++report.dot;
    if (support[3]) ++report.doh;
    if (support[0] && support[1] && support[2] && support[3]) {
      report.verified_dox.push_back(address);
    }
  }
}

ScanReport Ipv4Scanner::run(const std::vector<net::IpAddress>& candidates) {
  ScanReport report;
  auto responders = probe_versions(candidates, report);
  for (const auto& [address, port] : responders) {
    report.quic_hosts.push_back(address);
  }
  report.doq_resolvers = verify_doq(responders);
  probe_support(report.doq_resolvers, report);
  return report;
}

}  // namespace doxlab::scan
