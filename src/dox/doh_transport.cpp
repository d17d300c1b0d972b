// DoH: DNS over HTTPS (RFC 8484) — HTTP/2 POST over TLS over TCP 443.
//
// One persistent connection multiplexes queries as H2 streams. The H2
// preface/SETTINGS/HEADERS overhead is what makes DoH queries and responses
// the largest of all five protocols in the paper's Table 1, and the
// TCP+TLS handshake (2 RTT) is why its handshake time is ~2x DoQ's.
#include "dox/tls_transport.h"
#include "h2/connection.h"

namespace doxlab::dox {

namespace {

struct DohFraming {
  std::unique_ptr<h2::H2Connection> h2;
  DohStreams streams;
};

class DohTransport final : public TlsTransport<DohFraming> {
 public:
  DohTransport(const TransportDeps& deps, const TransportOptions& options)
      : TlsTransport(DnsProtocol::kDoH, deps, options, "h2",
                     /*open_when_busy=*/false) {}

  ~DohTransport() override { reset_sessions(); }

 private:
  /// The H2 preface goes out before the first request, so with 0-RTT both
  /// ride the first flight.
  void start(const ConnPtr& conn) override {
    std::weak_ptr<Conn> weak = conn;
    h2::H2Connection::Callbacks callbacks;
    callbacks.send_transport = [weak](util::Buffer bytes) {
      if (auto conn = weak.lock()) conn->write(std::move(bytes));
    };
    callbacks.on_headers = [this, weak, guard = alive_guard()](
                               std::uint32_t stream_id,
                               const std::vector<h2::Header>& headers,
                               bool end_stream) {
      if (guard.expired()) return;
      if (auto conn = weak.lock()) {
        on_doh_headers(conn->streams, conn->in_flight, stream_id, headers,
                       end_stream);
      }
    };
    callbacks.on_data = [this, weak, guard = alive_guard()](
                            std::uint32_t stream_id,
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
    conn->h2 = std::make_unique<h2::H2Connection>(/*is_client=*/true,
                                                  std::move(callbacks));
    conn->h2->start();
  }

  void send_request(const ConnPtr& conn, const PendingPtr& pending) override {
    dns::Message query = build_query(pending, /*encrypted=*/true);
    // One slab end to end: the H2 DATA frame header and TLS record header
    // are prepended into the body's headroom in place.
    util::Buffer body = query.encode_buffer(kDohHeadroom);
    const std::vector<h2::Header> headers =
        doh_request_headers(server_name(), body.size());
    const std::uint32_t stream_id =
        conn->h2->send_request(headers, std::move(body));
    conn->streams.by_stream[stream_id] = pending;
  }

  void on_stream(const ConnPtr& conn,
                 std::span<const std::uint8_t> data) override {
    conn->h2->on_transport_data(data);
  }

  void closing(const ConnPtr& conn) override { conn->h2->send_goaway(); }
};

}  // namespace

std::unique_ptr<DnsTransport> make_doh_transport(
    const TransportDeps& deps, const TransportOptions& options) {
  return std::make_unique<DohTransport>(deps, options);
}

}  // namespace doxlab::dox
