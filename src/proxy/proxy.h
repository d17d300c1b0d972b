// Local DNS proxy — the dnsproxy stand-in from the paper's methodology.
//
// Chromium is configured with a localhost DoUDP resolver; this proxy
// receives those stub queries and forwards them to the upstream DoX
// resolver over the protocol under test. Per the paper:
//   * the proxy has no local cache (every browser query reaches the
//     upstream resolver, as the paper's dnsproxy ran with its cache off),
//   * sessions are reset between the cache-warming navigation and the
//     measured navigation (tickets/tokens survive; connections do not),
//   * DoT suffers the connection-handling bug (new connection while a
//     query is in flight) unless the fixed behaviour is requested.
#pragma once

#include <memory>

#include "dox/transport.h"
#include "net/udp.h"

namespace doxlab::proxy {

struct ProxyConfig {
  /// Protocol used towards the upstream resolver.
  dox::DnsProtocol upstream_protocol = dox::DnsProtocol::kDoUdp;
  /// The upstream resolver endpoint.
  net::Endpoint upstream;
  /// Local port the stub listener binds (Chromium points at this).
  std::uint16_t listen_port = 53;
  /// Options passed to the upstream transport (session resumption, the DoT
  /// reuse bug, 0-RTT, ...).
  dox::TransportOptions transport_options;
};

class DnsProxy {
 public:
  /// Binds the stub listener on `stub_udp` (the client machine's stack) and
  /// creates the upstream transport from `deps`.
  DnsProxy(net::UdpStack& stub_udp, const dox::TransportDeps& upstream_deps,
           ProxyConfig config);

  DnsProxy(const DnsProxy&) = delete;
  DnsProxy& operator=(const DnsProxy&) = delete;

  /// Drops upstream connections (keeps tickets/tokens) — the "all sessions
  /// of DNS Proxy are reset" step of the methodology.
  void reset_sessions();

  const ProxyConfig& config() const { return config_; }
  std::uint64_t queries_forwarded() const { return forwarded_; }
  /// Upstream failures answered with SERVFAIL — the web study's failure
  /// rate.
  std::uint64_t servfails_sent() const { return servfails_sent_; }

  /// Wire stats of the upstream transport (diagnostics).
  dox::WireStats upstream_wire_stats() const {
    return transport_->wire_stats();
  }

 private:
  void on_stub_query(const net::Endpoint& from,
                     util::Buffer payload);

  ProxyConfig config_;
  std::unique_ptr<net::UdpSocket> listener_;
  std::unique_ptr<dox::DnsTransport> transport_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t servfails_sent_ = 0;
};

}  // namespace doxlab::proxy
