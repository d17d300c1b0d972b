// The client session layer of the QUIC transports, DoQ (RFC 9250) and DoH3
// (RFC 8484 over HTTP/3) (internal header).
//
// The layer owns everything the two share: the one connection per resolver
// and its socket, the ticket store, what DoqSessionCache remembers between
// sessions (version, ALPN, address token), the 0-RTT first flight, the
// handshake facts stamped on each query, the wire-byte split, and the
// failure fan-out. A protocol adds only its framing, through four hooks,
// and keeps its per-connection framing state in the `Framing` base of the
// connection. The remembered version and token are the paper's methodology:
// they avoid Version Negotiation and address-validation round trips on
// reconnect.
#pragma once

#include "dox/transport_base.h"
#include "quic/connection.h"

namespace doxlab::dox {

template <class Framing>
class QuicTransport : public TransportBase {
 public:
  void resolve(const dns::Question& question, ResultHandler handler) final {
    auto pending = make_pending(question, std::move(handler));
    if (!conn_ || conn_->quic->closed()) {
      open_connection(pending);
      return;
    }
    conn_->in_flight.push_back(pending);
    if (conn_->quic->handshake_complete()) {
      send(conn_, pending);
    } else {
      conn_->queued.push_back(pending);
    }
  }

  void reset_sessions() final {
    if (conn_) {
      if (!conn_->quic->closed()) conn_->quic->close();
      stats_.total_c2r = conn_->quic->bytes_sent();
      stats_.total_r2c = conn_->quic->bytes_received();
    }
    conn_.reset();
  }

  WireStats wire_stats() const final {
    WireStats stats = stats_;
    if (conn_) {
      stats.total_c2r = conn_->quic->bytes_sent();
      stats.total_r2c = conn_->quic->bytes_received();
    }
    return stats;
  }

 protected:
  struct Conn : Framing {
    std::shared_ptr<quic::QuicConnection> quic;
    std::unique_ptr<net::UdpSocket> socket;
    InFlightList in_flight;
    std::vector<PendingPtr> queued;  // waiting for the handshake
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// `alpns` is the offered ALPN list, preferred first.
  QuicTransport(DnsProtocol protocol, const TransportDeps& deps,
                const TransportOptions& options,
                std::vector<std::string> alpns)
      : TransportBase(protocol, deps, options),
        key_(server_key(options.resolver, protocol)),
        alpns_(std::move(alpns)) {}

  /// Starts the framing before connect(), from what the last session
  /// taught (`known` may be null). Returns whether a query can be framed
  /// before the handshake, i.e. ride 0-RTT.
  virtual bool start(const ConnPtr& conn, const DoqServerInfo* known) = 0;
  /// The handshake finished with `info`.
  virtual void established(Conn&, const quic::QuicHandshakeInfo&) {}
  /// Frames one query on a new stream.
  virtual void send_request(const ConnPtr& conn,
                            const PendingPtr& pending) = 0;
  /// Stream bytes from the resolver.
  virtual void on_stream_data(const ConnPtr& conn, std::uint64_t stream_id,
                              std::span<const std::uint8_t> data,
                              bool fin) = 0;

  /// The connection is unusable: every query on it fails with `error`.
  void fail_connection(const ConnPtr& conn, const util::Error& error) {
    const std::vector<PendingPtr> in_flight = conn->in_flight.take();
    conn->queued.clear();
    for (const auto& pending : in_flight) finish_error(pending, error);
  }

 private:
  void open_connection(const PendingPtr& first) {
    auto conn = std::make_shared<Conn>();
    conn_ = conn;
    first->result.new_session = true;
    mark(first, QueryPhase::kConnect);
    stats_ = WireStats{};

    const DoqServerInfo* known =
        deps_.doq_cache ? deps_.doq_cache->find(key_) : nullptr;

    quic::QuicConfig config;
    config.tls.alpn = alpns_;
    config.tls.sni = server_name();
    config.tls.enable_0rtt = options_.attempt_0rtt;
    config.enable_cc = options_.quic_enable_cc;
    if (known && known->version) config.version = *known->version;

    // The socket exists before the connection: make_client arms the idle
    // timer, and every datagram the connection sends leaves through it.
    conn->socket = deps_.udp->bind_ephemeral();

    // The connection owns the QUIC connection and the framing state; their
    // callbacks capture it weakly, or state -> quic -> callbacks -> state
    // is a cycle that outlives the transport (sanitizer-visible).
    std::weak_ptr<Conn> weak = conn;
    quic::QuicConnection::Callbacks callbacks;
    callbacks.send_datagram = [this, weak, guard = alive_guard()](
                                  util::Buffer bytes) {
      if (guard.expired()) return;
      if (auto conn = weak.lock()) {
        conn->socket->send_to(options_.resolver, std::move(bytes));
      }
    };
    callbacks.on_handshake_complete =
        [this, weak, guard = alive_guard()](
            const quic::QuicHandshakeInfo& info) {
          if (guard.expired()) return;
          if (auto conn = weak.lock()) on_established(conn, info);
        };
    callbacks.on_stream_data = [this, weak, guard = alive_guard()](
                                   std::uint64_t id,
                                   std::span<const std::uint8_t> data,
                                   bool fin) {
      if (guard.expired()) return;
      if (auto conn = weak.lock()) on_stream_data(conn, id, data, fin);
    };
    callbacks.on_new_ticket = [this, guard = alive_guard()](
                                  const tls::SessionTicket& ticket) {
      if (guard.expired()) return;
      if (deps_.tickets) deps_.tickets->put(key_, ticket);
    };
    callbacks.on_new_token = [this, guard = alive_guard()](
                                 const quic::AddressToken& token) {
      if (guard.expired()) return;
      if (deps_.doq_cache) deps_.doq_cache->entry(key_).token = token;
    };
    callbacks.on_closed = [this, weak, guard = alive_guard()](
                              const util::Error& error) {
      if (guard.expired()) return;
      auto conn = weak.lock();
      if (conn && !error.ok()) fail_connection(conn, error);
    };
    conn->quic = quic::QuicConnection::make_client(sim(), config,
                                                   std::move(callbacks));
    conn->socket->on_datagram(
        [quic = conn->quic](const net::Endpoint&, util::Buffer payload) {
          quic->on_datagram(payload);
        });

    conn->in_flight.push_back(first);

    std::optional<tls::SessionTicket> ticket = session_ticket(key_);
    std::optional<quic::AddressToken> token;
    if (options_.use_address_token && known && known->token &&
        known->token->valid_for(
            known->token->server_secret,
            conn->socket->local_endpoint().address.value(), sim().now())) {
      token = known->token;
    }

    // Streams opened before connect() ride 0-RTT when the ticket allows
    // it; otherwise the QUIC connection queues them until the handshake
    // completes.
    const bool framed = start(conn, known);
    if (options_.attempt_0rtt && ticket && ticket->allow_early_data &&
        framed) {
      send(conn, first);
      first->result.used_0rtt = true;
    } else {
      conn->queued.push_back(first);
    }
    conn->quic->connect(ticket, token);
  }

  void on_established(const ConnPtr& conn,
                      const quic::QuicHandshakeInfo& info) {
    established(*conn, info);
    stats_.handshake_c2r = conn->quic->bytes_sent();
    stats_.handshake_r2c = conn->quic->bytes_received();
    if (deps_.doq_cache) {
      auto& entry = deps_.doq_cache->entry(key_);
      entry.version = info.version;
      entry.alpn = info.alpn;
    }
    conn->in_flight.for_each([&](const PendingPtr& p) {
      if (p->result.new_session) {
        mark(p, QueryPhase::kSecure);
        p->result.quic_version = info.version;
        p->result.alpn = info.alpn;
        p->result.session_resumed = info.resumed;
        p->result.used_0rtt = info.early_data_accepted;
        p->result.tls_version = tls::TlsVersion::kTls13;
      }
    });
    auto queued = std::move(conn->queued);
    conn->queued.clear();
    for (auto& pending : queued) {
      if (!pending->done) send(conn, pending);
    }
  }

  /// Frames and sends one query; it carries the session's facts even when
  /// it did not open the session.
  void send(const ConnPtr& conn, const PendingPtr& pending) {
    send_request(conn, pending);
    mark(pending, QueryPhase::kRequestSent);
    if (!pending->result.quic_version && conn->quic->info()) {
      const auto& info = *conn->quic->info();
      pending->result.quic_version = info.version;
      pending->result.alpn = info.alpn;
      pending->result.session_resumed = info.resumed;
      pending->result.tls_version = tls::TlsVersion::kTls13;
    }
  }

  const std::string key_;
  const std::vector<std::string> alpns_;
  ConnPtr conn_;
  WireStats stats_;
};

}  // namespace doxlab::dox
