// DoQ: DNS over Dedicated QUIC Connections (RFC 9250).
//
// One QUIC connection per resolver; each query gets its own client-initiated
// bidirectional stream. Framing depends on the negotiated ALPN (see
// alpn_uses_length_prefix): "doq" and drafts doq-i03 and later carry the
// 2-byte length prefix, doq-i00..i02 send the bare DNS message and rely on
// stream FIN. The session layer caches the resolver's QUIC version, ALPN
// and NEW_TOKEN address token between sessions and presents them on
// reconnect; together with session resumption this sidesteps the
// traffic-amplification stall of the authors' preliminary study.
#include "dox/quic_transport.h"

namespace doxlab::dox {

namespace {

/// All ALPN identifiers the tooling offers (newest first), mirroring the
/// paper's support for "doq" plus every draft version.
std::vector<std::string> offered_alpns() {
  std::vector<std::string> alpns = {"doq"};
  for (int i = 11; i >= 0; --i) {
    alpns.push_back("doq-i" + std::string(i < 10 ? "0" : "") +
                    std::to_string(i));
  }
  return alpns;
}

struct DoqFraming {
  struct StreamBuf {
    std::vector<std::uint8_t> data;  // a response that arrives in pieces
    PendingPtr pending;
  };
  std::map<std::uint64_t, StreamBuf> streams;
  bool length_prefix = true;
};

class DoqTransport final : public QuicTransport<DoqFraming> {
 public:
  DoqTransport(const TransportDeps& deps, const TransportOptions& options)
      : QuicTransport(DnsProtocol::kDoQ, deps, options, offered_alpns()) {}

  ~DoqTransport() override { reset_sessions(); }

 private:
  /// 0-RTT requires knowing the framing (negotiated ALPN) up front — the
  /// paper's methodology stores it from the cache-warming query.
  bool start(const ConnPtr& conn, const DoqServerInfo* known) override {
    if (!known || !known->alpn) return false;
    conn->length_prefix = alpn_uses_length_prefix(*known->alpn);
    return true;
  }

  void established(Conn& conn, const quic::QuicHandshakeInfo& info) override {
    conn.length_prefix = alpn_uses_length_prefix(info.alpn);
  }

  void send_request(const ConnPtr& conn, const PendingPtr& pending) override {
    // RFC 9250 §4.2.1: DoQ queries use DNS message id 0.
    pending->dns_id = 0;
    dns::Message query = build_query(pending, /*encrypted=*/true);
    // One slab end to end, as for DoT: the prefix goes into the headroom
    // and the stream frames share the buffer.
    util::Buffer wire = query.encode_buffer(/*headroom=*/2);
    if (conn->length_prefix) wire = length_prefixed(std::move(wire));
    const std::uint64_t stream_id =
        conn->quic->open_stream(std::move(wire), true);
    conn->streams[stream_id].pending = pending;
  }

  void on_stream_data(const ConnPtr& conn, std::uint64_t stream_id,
                      std::span<const std::uint8_t> data, bool fin) override {
    auto it = conn->streams.find(stream_id);
    if (it == conn->streams.end()) return;
    auto& buffered = it->second.data;
    if (!fin || !buffered.empty()) {
      buffered.insert(buffered.end(), data.begin(), data.end());
      if (!fin) return;
    }

    // A response that arrives whole is decoded from the datagram itself.
    const std::vector<std::uint8_t> pieces = std::move(buffered);
    const std::span<const std::uint8_t> bytes =
        pieces.empty() ? data : std::span<const std::uint8_t>(pieces);
    const PendingPtr pending = std::move(it->second.pending);
    conn->streams.erase(it);
    conn->in_flight.erase(*pending);
    const auto payload = doq_stream_message(bytes, conn->length_prefix);
    if (!payload) {
      finish_error(pending, util::Error::truncated("short DoQ response"));
      return;
    }
    auto message = dns::Message::decode(*payload);
    if (!message || !matches(*message, *pending)) {
      finish_error(pending, util::Error::protocol("malformed DoQ response"));
      return;
    }
    finish_success(pending, std::move(*message));
  }
};

}  // namespace

std::unique_ptr<DnsTransport> make_doq_transport(
    const TransportDeps& deps, const TransportOptions& options) {
  return std::make_unique<DoqTransport>(deps, options);
}

}  // namespace doxlab::dox
