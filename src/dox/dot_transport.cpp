// DoT: DNS over TLS (RFC 7858) — TLS 1.2/1.3 over TCP 853 with the RFC 1035
// 2-byte length framing inside the TLS stream.
//
// Supports session resumption (used by all resolvers in the paper) and
// 0-RTT (used by none). The `dot_buggy_reuse` option reproduces the
// dnsproxy connection-handling bug the paper root-caused: when a query is
// already in flight, a *new* connection is opened instead of pipelining on
// the existing one, so almost 60% of DoT page loads repeated the full
// transport+TLS handshake (the paper's authors fixed this upstream; both
// behaviours are modelled).
#include "dox/tls_transport.h"

namespace doxlab::dox {

namespace {

struct DotFraming {
  StreamMessageReader reader;
};

class DotTransport final : public TlsTransport<DotFraming> {
 public:
  DotTransport(const TransportDeps& deps, const TransportOptions& options)
      : TlsTransport(DnsProtocol::kDoT, deps, options, "dot",
                     options.dot_buggy_reuse) {}

  ~DotTransport() override { reset_sessions(); }

 private:
  void send_request(const ConnPtr& conn, const PendingPtr& pending) override {
    dns::Message query = build_query(pending, /*encrypted=*/true);
    // One slab end to end: the message encodes once, then the length
    // prefix and TLS record header are prepended into its headroom.
    conn->write(length_prefixed(query.encode_buffer(kDotHeadroom)));
  }

  void on_stream(const ConnPtr& conn,
                 std::span<const std::uint8_t> data) override {
    auto payloads = conn->reader.feed(data);
    if (conn->reader.failed()) {
      fail_connection(conn,
                      util::Error::protocol("garbage DNS message framing"));
      conn->tcp->abort();
      return;
    }
    for (auto& payload : payloads) {
      auto message = dns::Message::decode(payload);
      if (!message) continue;
      // DoT answers carry no stream id: the first query in send order that
      // the answer matches takes it.
      const PendingPtr pending = conn->in_flight.find_if(
          [&](const PendingQuery& p) { return matches(*message, p); });
      if (pending == nullptr) continue;
      conn->in_flight.erase(*pending);
      finish_success(pending, std::move(*message));
    }
  }
};

}  // namespace

std::unique_ptr<DnsTransport> make_dot_transport(
    const TransportDeps& deps, const TransportOptions& options) {
  return std::make_unique<DotTransport>(deps, options);
}

}  // namespace doxlab::dox
