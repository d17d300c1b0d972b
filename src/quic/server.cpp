#include "quic/server.h"

#include "util/logging.h"

namespace doxlab::quic {

QuicServer::QuicServer(sim::Simulator& sim, net::UdpStack& stack,
                       std::uint16_t port, QuicConfig config)
    : sim_(sim), socket_(stack.bind(port)), config_(std::move(config)) {
  config_.tls.is_server = true;
  socket_->on_datagram(
      [this](const net::Endpoint& from, util::Buffer payload) {
        on_datagram(from, std::move(payload));
      });
}

bool QuicServer::version_supported(QuicVersion v) const {
  for (QuicVersion s : config_.supported) {
    if (s == v) return true;
  }
  return false;
}

void QuicServer::on_datagram(const net::Endpoint& from,
                             util::Buffer payload) {
  auto existing = connections_.find(from);
  if (existing != connections_.end()) {
    // Held across the call: a close inside it erases the map's reference.
    const std::shared_ptr<QuicConnection> conn = existing->second;
    conn->on_datagram(payload);
    return;
  }

  DecodedDatagram decoded;
  if (!decode_datagram(payload, decoded) || decoded.packets.empty()) {
    // A malformed or unknown-version probe. Real servers that cannot parse
    // the packet stay silent; version negotiation is handled below only for
    // well-formed long headers, which decode_datagram accepted.
    return;
  }
  const QuicPacket& first = decoded.packets[0];
  if (first.type != PacketType::kInitial) return;

  if (!version_supported(first.version)) {
    // Stateless Version Negotiation (RFC 9000 §6) — echoes the client's
    // connection IDs and lists what we do support.
    QuicPacket vn;
    vn.type = PacketType::kVersionNegotiation;
    vn.dcid = first.scid;
    vn.scid = first.dcid;
    vn.supported_versions = config_.supported;
    ++vn_sent_;
    socket_->send_to(from, encode_packet(vn));
    return;
  }

  // Address validation.
  bool validated = false;
  if (!first.token.empty()) {
    auto token = AddressToken::decode(first.token);
    validated = token && token->valid_for(config_.tls.ticket_secret,
                                          from.address.value(), sim_.now());
  }
  if (config_.require_retry && !validated) {
    AddressToken token;
    token.server_secret = config_.tls.ticket_secret;
    token.client_ip = from.address.value();
    token.issued_at = sim_.now();
    token.lifetime = 10 * kSecond;  // Retry tokens are short-lived
    token.from_retry = true;

    QuicPacket retry;
    retry.type = PacketType::kRetry;
    retry.version = first.version;
    retry.dcid = first.scid;
    retry.scid = 0x5EC0DE5EC0DE5EC0ull;
    retry.token = token.encode();
    ++retry_sent_;
    socket_->send_to(from, encode_packet(retry));
    return;
  }

  QuicConfig conn_config = config_;
  conn_config.peer_ip = from.address.value();
  conn_config.version = first.version;

  QuicConnection::Callbacks callbacks;
  callbacks.send_datagram = [this, from](util::Buffer bytes) {
    socket_->send_to(from, std::move(bytes));
  };
  // A closed connection leaves the map at once, whatever closed it: the
  // peer, its idle timer, PTO give-up or the application. Every caller
  // into a connection holds a reference of its own across the call.
  callbacks.on_closed = [this, from](const util::Error&) {
    connections_.erase(from);
  };
  auto conn = QuicConnection::make_server(sim_, std::move(conn_config),
                                          std::move(callbacks), validated);
  connections_[from] = conn;
  if (on_accept_) on_accept_(conn, from);
  conn->on_datagram(payload);
}

}  // namespace doxlab::quic
