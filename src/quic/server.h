// QUIC server socket: demultiplexes datagrams to per-peer connections and
// performs the stateless first-packet duties — Version Negotiation for
// unsupported versions (what the paper's ZMap scan elicits with its
// version-0 probe) and Retry-based address validation when configured.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>

#include "net/udp.h"
#include "quic/connection.h"
#include "sim/simulator.h"

namespace doxlab::quic {

class QuicServer {
 public:
  /// Invoked when a new connection is created, before its first packet is
  /// processed — attach stream/handshake callbacks here.
  using AcceptHandler = std::function<void(
      const std::shared_ptr<QuicConnection>&, const net::Endpoint& peer)>;

  /// Binds `port` on `stack`'s host. `config` is the per-connection server
  /// configuration (its `tls.is_server` is forced).
  QuicServer(sim::Simulator& sim, net::UdpStack& stack, std::uint16_t port,
             QuicConfig config);

  void on_accept(AcceptHandler handler) { on_accept_ = std::move(handler); }

  /// Open connection count (diagnostics).
  std::size_t connection_count() const { return connections_.size(); }

  /// Stateless Version Negotiation responses sent (the scanner counts
  /// these).
  std::uint64_t version_negotiations_sent() const { return vn_sent_; }
  std::uint64_t retries_sent() const { return retry_sent_; }

  const QuicConfig& config() const { return config_; }
  QuicConfig& mutable_config() { return config_; }

 private:
  void on_datagram(const net::Endpoint& from,
                   util::Buffer payload);
  bool version_supported(QuicVersion v) const;

  sim::Simulator& sim_;
  std::unique_ptr<net::UdpSocket> socket_;
  QuicConfig config_;
  AcceptHandler on_accept_;
  /// Open connections by peer; a connection leaves when it closes.
  std::unordered_map<net::Endpoint, std::shared_ptr<QuicConnection>>
      connections_;
  std::uint64_t vn_sent_ = 0;
  std::uint64_t retry_sent_ = 0;
};

}  // namespace doxlab::quic
