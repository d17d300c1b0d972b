// The client session layer of the TLS-over-TCP transports, DoT (RFC 7858)
// and DoH (RFC 8484 over HTTP/2) (internal header).
//
// The layer owns everything the two share: the connection list and its
// reuse rule, the ticket store, the 0-RTT first flight, the handshake facts
// stamped on each query, the wire-byte split, and the failure fan-out. A
// protocol adds only its framing, through four hooks, and keeps its
// per-connection framing state in the `Framing` base of each connection.
#pragma once

#include "dox/transport_base.h"
#include "tls/session.h"

namespace doxlab::dox {

template <class Framing>
class TlsTransport : public TransportBase {
 public:
  void resolve(const dns::Question& question, ResultHandler handler) final {
    auto pending = make_pending(question, std::move(handler));
    // Reuse the first live connection, pipelining if necessary. With
    // `open_when_busy` only an idle one is reused (the dnsproxy DoT bug).
    for (auto& conn : connections_) {
      if (conn->closed) continue;
      if (open_when_busy_ && !conn->in_flight.empty()) continue;
      conn->in_flight.push_back(pending);
      if (conn->established) {
        send(conn, pending);
      } else {
        conn->queued.push_back(pending);
      }
      return;
    }
    open_connection(pending);
  }

  void reset_sessions() final {
    // Mark connections closed but keep owning them: the FIN exchange
    // completes asynchronously and the TCP close handler (which records
    // final byte totals and drops the connection) still needs them alive.
    for (auto& conn : connections_) {
      if (conn->closed) continue;
      closing(conn);
      conn->tls->send_close_notify();
      conn->tcp->close();
      conn->closed = true;
    }
  }

  /// Live totals while the newest connection is alive, its final totals
  /// once it has closed.
  WireStats wire_stats() const final {
    WireStats stats = stats_;
    if (auto conn = last_.lock()) {
      stats.total_c2r = conn->tcp->bytes_sent();
      stats.total_r2c = conn->tcp->bytes_received();
    }
    return stats;
  }

 protected:
  struct Conn : Framing {
    std::shared_ptr<tcp::TcpConnection> tcp;
    std::unique_ptr<tls::TlsSession> tls;
    InFlightList in_flight;
    std::vector<PendingPtr> queued;  // waiting for the handshake
    /// Application bytes written before the TLS client starts: they ride
    /// the first flight as 0-RTT early data when the ticket allows it.
    std::vector<std::uint8_t> early;
    std::optional<tls::HandshakeInfo> info;
    bool tls_started = false;
    bool established = false;
    bool closed = false;

    /// Sends application bytes, or holds them for the first flight until
    /// the TLS client has started.
    void write(util::Buffer bytes) {
      if (!tls_started) {
        early.insert(early.end(), bytes.data(), bytes.data() + bytes.size());
        return;
      }
      tls->send_application_data(std::move(bytes));
    }
  };
  using ConnPtr = std::shared_ptr<Conn>;

  /// `alpn` is the one protocol offered; `open_when_busy` opens another
  /// connection instead of pipelining on one with queries in flight.
  TlsTransport(DnsProtocol protocol, const TransportDeps& deps,
               const TransportOptions& options, std::string alpn,
               bool open_when_busy)
      : TransportBase(protocol, deps, options),
        key_(server_key(options.resolver, protocol)),
        alpn_(std::move(alpn)),
        open_when_busy_(open_when_busy) {}

  /// Starts the application layer before the first request is framed.
  virtual void start(const ConnPtr&) {}
  /// Frames one query and writes it with Conn::write.
  virtual void send_request(const ConnPtr& conn,
                            const PendingPtr& pending) = 0;
  /// Decrypted bytes from the resolver.
  virtual void on_stream(const ConnPtr& conn,
                         std::span<const std::uint8_t> data) = 0;
  /// Announces the shutdown ahead of close_notify.
  virtual void closing(const ConnPtr&) {}

  /// The connection is unusable: every query on it fails with `error`.
  void fail_connection(const ConnPtr& conn, const util::Error& error) {
    const std::vector<PendingPtr> in_flight = conn->in_flight.take();
    conn->queued.clear();
    conn->closed = true;
    for (const auto& pending : in_flight) finish_error(pending, error);
  }

 private:
  void open_connection(const PendingPtr& first) {
    auto conn = std::make_shared<Conn>();
    first->result.new_session = true;
    mark(first, QueryPhase::kConnect);
    stats_ = WireStats{};
    last_ = conn;

    tcp::TcpOptions tcp_options;
    tcp_options.congestion_algorithm = options_.tcp_congestion;
    conn->tcp = deps_.tcp->connect(options_.resolver, tcp_options);

    tls::TlsConfig tls_config;
    tls_config.alpn = {alpn_};
    tls_config.sni = server_name();
    tls_config.enable_0rtt = options_.attempt_0rtt;

    // The connection owns the TLS session and the TCP connection, and the
    // framing state owns any session above them; their callbacks must
    // capture it weakly or the whole stack leaks as a reference cycle
    // (sanitizer-visible).
    std::weak_ptr<Conn> weak = conn;
    tls::TlsSession::Callbacks callbacks;
    callbacks.now = [sim = deps_.sim] { return sim->now(); };
    callbacks.send_transport = [weak](util::Buffer bytes) {
      auto conn = weak.lock();
      if (conn && !conn->closed) conn->tcp->send(std::move(bytes));
    };
    callbacks.on_handshake_complete =
        [this, weak, guard = alive_guard()](const tls::HandshakeInfo& info) {
          if (guard.expired()) return;
          if (auto conn = weak.lock()) on_established(conn, info);
        };
    callbacks.on_application_data =
        [this, weak, guard = alive_guard()](
            std::span<const std::uint8_t> data) {
          if (guard.expired()) return;
          if (auto conn = weak.lock()) on_stream(conn, data);
        };
    callbacks.on_new_ticket = [this, guard = alive_guard()](
                                  const tls::SessionTicket& ticket) {
      if (guard.expired()) return;
      if (deps_.tickets) deps_.tickets->put(key_, ticket);
    };
    callbacks.on_error = [this, weak, guard = alive_guard()](
                             const util::Error& error) {
      if (guard.expired()) return;
      if (auto conn = weak.lock()) fail_connection(conn, error);
    };
    conn->tls =
        std::make_unique<tls::TlsSession>(tls_config, std::move(callbacks));

    conn->tcp->on_data([weak](std::span<const std::uint8_t> data) {
      if (auto conn = weak.lock()) conn->tls->on_transport_data(data);
    });
    conn->tcp->on_closed([this, weak, guard = alive_guard()](
                             const util::Error& error) {
      if (guard.expired()) return;
      auto conn = weak.lock();
      if (!conn) return;
      stats_.total_c2r = conn->tcp->bytes_sent();
      stats_.total_r2c = conn->tcp->bytes_received();
      last_.reset();
      conn->closed = true;
      if (!error.ok()) fail_connection(conn, error);
      std::erase(connections_, conn);
    });

    conn->in_flight.push_back(first);
    connections_.push_back(conn);

    // Resumption ticket, then the application layer, then (when the ticket
    // allows it) the first query, all written before the TLS client starts
    // so they ride the first flight as early data; otherwise TlsSession
    // queues the bytes until the handshake is done.
    std::optional<tls::SessionTicket> ticket = session_ticket(key_);
    start(conn);
    if (options_.attempt_0rtt && ticket && ticket->allow_early_data) {
      send(conn, first);
      first->result.used_0rtt = true;
    } else {
      conn->queued.push_back(first);
    }
    conn->tls_started = true;
    conn->tls->start(ticket, std::move(conn->early));
    conn->early.clear();
  }

  void on_established(const ConnPtr& conn, const tls::HandshakeInfo& info) {
    conn->established = true;
    conn->info = info;
    stats_.handshake_c2r = conn->tcp->bytes_sent();
    stats_.handshake_r2c = conn->tcp->bytes_received();
    conn->in_flight.for_each([&](const PendingPtr& p) {
      if (p->result.new_session) {
        mark(p, QueryPhase::kSecure);
        p->result.tls_version = info.version;
        p->result.session_resumed = info.resumed;
        p->result.used_0rtt = info.early_data_accepted;
        p->result.alpn = info.alpn;
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
    if (!pending->result.tls_version && conn->info) {
      pending->result.tls_version = conn->info->version;
      pending->result.session_resumed = conn->info->resumed;
      pending->result.alpn = conn->info->alpn;
    }
  }

  const std::string key_;
  const std::string alpn_;
  const bool open_when_busy_;
  std::vector<ConnPtr> connections_;
  std::weak_ptr<Conn> last_;
  WireStats stats_;
};

}  // namespace doxlab::dox
