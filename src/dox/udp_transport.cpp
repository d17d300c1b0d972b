// DoUDP: classic connectionless DNS with application-layer retries.
//
// There is no handshake; the only reliability is the client re-sending the
// query after a 5-second timeout (Chromium / resolv.conf default). Those
// 5-second stalls are what skew the paper's DoUDP web results in the tail
// (Fig. 3 discussion).
#include "dox/transport_base.h"
#include "dox/transport.h"

namespace doxlab::dox {

// Defined in tcp_transport.cpp; used for the RFC 1035 truncation fallback.
std::unique_ptr<DnsTransport> make_tcp_transport(const TransportDeps&,
                                                 const TransportOptions&);

namespace {

class UdpTransport final : public TransportBase {
 public:
  UdpTransport(const TransportDeps& deps, const TransportOptions& options)
      : TransportBase(DnsProtocol::kDoUdp, deps, options) {}

  void resolve(const dns::Question& question, ResultHandler handler) override {
    ensure_socket();
    auto pending = make_pending(question, std::move(handler));
    pending_[pending->dns_id] = pending;
    send_attempt(pending, /*attempt=*/1);
  }

  void reset_sessions() override {
    // Connectionless: nothing to reset beyond the socket itself (and any
    // TCP fallback connection from a truncated response).
    if (tcp_fallback_) tcp_fallback_->reset_sessions();
    socket_.reset();
  }

  WireStats wire_stats() const override {
    WireStats stats;
    stats.total_c2r = bytes_sent_;
    stats.total_r2c = bytes_received_;
    return stats;
  }

 private:
  void ensure_socket() {
    if (socket_) return;
    socket_ = deps_.udp->bind_ephemeral();
    socket_->on_datagram([this](const net::Endpoint& from,
                                util::Buffer payload) {
      on_datagram(from, std::move(payload));
    });
  }

  void send_attempt(const PendingPtr& pending, int attempt) {
    if (pending->done) return;
    // A retry can fire after reset_sessions() dropped the socket; rebind
    // like a real stub resolver would.
    ensure_socket();
    dns::Message query = build_query(pending, /*encrypted=*/false);
    auto wire = query.encode();
    bytes_sent_ += wire.size() + net::kUdpHeaderBytes;
    socket_->send_to(options_.resolver, std::move(wire));
    mark(pending, QueryPhase::kRequestSent);

    if (attempt < options_.udp_max_attempts) {
      std::weak_ptr<PendingQuery> weak = pending;
      retry_timers_.push_back(sim().schedule(
          options_.udp_retry_timeout * attempt,
          [this, weak, attempt, guard = alive_guard()] {
            if (guard.expired()) return;
            if (auto p = weak.lock()) {
              if (p->done) return;
              p->result.udp_retransmissions += 1;
              send_attempt(p, attempt + 1);
            }
          }));
    }
    // When retries are exhausted the query_timeout timer fails the query.
  }

  void on_datagram(const net::Endpoint& from,
                   util::Buffer payload) {
    if (from != options_.resolver) return;
    bytes_received_ += payload.size() + net::kUdpHeaderBytes;
    auto message = dns::Message::decode(payload);
    if (!message) return;
    auto it = pending_.find(message->id);
    if (it == pending_.end()) return;
    auto pending = it->second;
    if (!matches(*message, *pending)) return;
    pending_.erase(it);

    if (message->tc && deps_.tcp != nullptr) {
      // RFC 1035 §4.2.2: a truncated UDP response is retried over TCP.
      pending->result.tc_fallback = true;
      if (!tcp_fallback_) {
        tcp_fallback_ = make_tcp_transport(deps_, options_);
      }
      tcp_fallback_->resolve(
          pending->question,
          [this, pending, guard = alive_guard()](QueryResult result) {
            if (guard.expired()) return;
            if (result.ok()) {
              finish_success(pending, std::move(result.response));
            } else {
              // Propagate the fallback's class; the detail records that the
              // failure happened on the TCP retry leg.
              util::Error err = result.error();
              err.detail = "TCP fallback failed: " + err.to_string();
              finish_error(pending, std::move(err));
            }
          });
      return;
    }
    finish_success(pending, std::move(*message));
  }

  std::unique_ptr<net::UdpSocket> socket_;
  std::unique_ptr<DnsTransport> tcp_fallback_;
  std::unordered_map<std::uint16_t, PendingPtr> pending_;
  std::vector<sim::Timer> retry_timers_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

}  // namespace

std::unique_ptr<DnsTransport> make_udp_transport(
    const TransportDeps& deps, const TransportOptions& options) {
  return std::make_unique<UdpTransport>(deps, options);
}

}  // namespace doxlab::dox
