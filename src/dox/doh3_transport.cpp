// DoH3: DNS over HTTP/3 (RFC 8484 semantics over RFC 9114) — the paper's
// future-work protocol.
//
// Same QUIC substrate as DoQ (1-RTT handshake, session resumption, tokens,
// optional 0-RTT) with HTTP/3 request framing on top. Compared to DoQ it
// pays the HTTP layer's bytes (control-stream SETTINGS, HEADERS with QPACK)
// but, unlike DoH-over-H2, no TCP and no extra TLS round trip — which is
// why the paper expects DoH3 to close most of the DoH-DoQ gap.
#include "dox/quic_transport.h"
#include "h3/connection.h"

namespace doxlab::dox {

namespace {

struct Doh3Framing {
  std::unique_ptr<h3::H3Connection> h3;
  DohStreams streams;
};

class Doh3Transport final : public QuicTransport<Doh3Framing> {
 public:
  Doh3Transport(const TransportDeps& deps, const TransportOptions& options)
      : QuicTransport(DnsProtocol::kDoH3, deps, options, {"h3"}) {}

  ~Doh3Transport() override { reset_sessions(); }

 private:
  /// The control stream opens before the first request, so with 0-RTT
  /// both ride the first flight.
  bool start(const ConnPtr& conn, const DoqServerInfo*) override {
    std::weak_ptr<Conn> weak = conn;
    h3::H3Connection::Callbacks callbacks;
    callbacks.on_headers = [this, weak, guard = alive_guard()](
                               std::uint64_t stream_id,
                               const std::vector<h2::Header>& headers,
                               bool end_stream) {
      if (guard.expired()) return;
      if (auto conn = weak.lock()) {
        on_doh_headers(conn->streams, conn->in_flight, stream_id, headers,
                       end_stream);
      }
    };
    callbacks.on_data = [this, weak, guard = alive_guard()](
                            std::uint64_t stream_id,
                            std::span<const std::uint8_t> data,
                            bool end_stream) {
      if (guard.expired()) return;
      if (auto conn = weak.lock()) {
        on_doh_data(conn->streams, conn->in_flight, stream_id, data,
                    end_stream);
      }
    };
    callbacks.on_error = [this, weak, guard = alive_guard()](
                             const util::Error& error) {
      if (guard.expired()) return;
      if (auto conn = weak.lock()) fail_connection(conn, error);
    };
    conn->h3 = std::make_unique<h3::H3Connection>(
        conn->quic, /*is_client=*/true, std::move(callbacks));
    conn->h3->start();
    return true;
  }

  void send_request(const ConnPtr& conn, const PendingPtr& pending) override {
    dns::Message query = build_query(pending, /*encrypted=*/true);
    auto body = query.encode();
    const std::vector<h2::Header> headers =
        doh_request_headers(server_name(), body.size());
    const std::uint64_t stream_id =
        conn->h3->send_request(headers, std::move(body));
    conn->streams.by_stream[stream_id] = pending;
  }

  void on_stream_data(const ConnPtr& conn, std::uint64_t stream_id,
                      std::span<const std::uint8_t> data, bool fin) override {
    conn->h3->on_stream_data(stream_id, data, fin);
  }
};

}  // namespace

std::unique_ptr<DnsTransport> make_doh3_transport(
    const TransportDeps& deps, const TransportOptions& options) {
  return std::make_unique<Doh3Transport>(deps, options);
}

}  // namespace doxlab::dox
