// UDP: sockets and the per-host port demultiplexer.
//
// `UdpStack` registers itself as the host's UDP protocol handler and routes
// datagrams to bound `UdpSocket`s. Sockets are RAII: destruction unbinds.
// Every datagram carries the 8-byte UDP header in its IP-payload accounting,
// matching how the paper reports sizes.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "net/flat_index.h"
#include "net/network.h"

namespace doxlab::net {

class UdpStack;

/// The size of a UDP header; every datagram's IP payload includes it.
inline constexpr std::size_t kUdpHeaderBytes = 8;

/// One received datagram inside a batch delivery.
struct Datagram {
  Endpoint from;
  util::Buffer payload;
};

/// One staged outbound datagram for UdpSocket::send_batch. A default
/// (zero) `source` sends from the host's own address, like send_to.
struct OutboundDatagram {
  Endpoint to;
  IpAddress source;
  util::Buffer payload;
};

/// A bound UDP socket.
class UdpSocket {
 public:
  using DatagramHandler =
      std::function<void(const Endpoint& from, util::Buffer)>;
  /// Burst receive: all datagrams reaching this socket in one batched
  /// delivery event (see Network::set_batch_window). The span is valid only
  /// for the duration of the call; payloads may be moved out.
  using BatchHandler = std::function<void(std::span<Datagram>)>;

  ~UdpSocket();
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

  /// Sends a datagram to `to`. The socket's bound port is the source port.
  /// The buffer is moved untouched into the packet (zero-copy path).
  void send_to(const Endpoint& to, util::Buffer payload);
  /// Sends with an explicit source address (bound port still the source
  /// port): raw-socket-style spoofing for attack traffic, and the stamp the
  /// load generator uses to give every simulated client its own address.
  /// Replies reach this socket only if `source` routes back to this host
  /// (Network::add_prefix_route).
  void send_to_from(const Endpoint& to, IpAddress source,
                    util::Buffer payload);
  /// Convenience for cold paths and tests still assembling vectors; the
  /// bytes are copied into a pooled buffer.
  void send_to(const Endpoint& to, std::vector<std::uint8_t> payload) {
    send_to(to, util::Buffer::copy_of(payload));
  }

  /// sendmmsg-style bulk send: pushes every staged datagram into the fabric
  /// in order with one call, then clears `out` (storage retained for the
  /// caller's reuse). Identical per-packet semantics to send_to_from.
  void send_batch(std::vector<OutboundDatagram>& out);

  /// Sets the receive callback (may be replaced at any time).
  void on_datagram(DatagramHandler handler) { handler_ = std::move(handler); }

  /// Sets the burst receive callback. When set, batched deliveries invoke
  /// it once per burst instead of the per-datagram handler; per-packet
  /// deliveries (batch window 0) still use on_datagram.
  void on_batch(BatchHandler handler) { batch_handler_ = std::move(handler); }

  std::uint16_t port() const { return port_; }
  Endpoint local_endpoint() const;

  /// Bytes sent/received including UDP headers (IP payload accounting).
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

 private:
  friend class UdpStack;
  UdpSocket(UdpStack& stack, std::uint16_t port)
      : stack_(&stack), port_(port) {}

  void receive(const Endpoint& from, util::Buffer payload);
  /// Delivers batch[begin, end) — a same-port run — through the batch
  /// handler if set, else one receive() per datagram.
  void receive_run(PacketBatch& batch, std::size_t begin, std::size_t end);

  UdpStack* stack_;
  std::uint16_t port_;
  DatagramHandler handler_;
  BatchHandler batch_handler_;
  std::vector<Datagram> scratch_batch_;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
};

/// Per-host UDP port table. Construct at most one per host.
class UdpStack {
 public:
  explicit UdpStack(Host& host);
  UdpStack(const UdpStack&) = delete;
  UdpStack& operator=(const UdpStack&) = delete;

  /// Binds a specific port. Throws std::invalid_argument if taken.
  std::unique_ptr<UdpSocket> bind(std::uint16_t port);

  /// Binds an ephemeral port (49152+).
  std::unique_ptr<UdpSocket> bind_ephemeral();

  Host& host() { return *host_; }

  /// Number of currently bound sockets (leak diagnostics in tests).
  std::size_t bound_count() const { return sockets_.size(); }

 private:
  friend class UdpSocket;
  void unbind(std::uint16_t port);
  void on_packet(Packet& packet);
  void on_packet_batch(PacketBatch& batch);

  Host* host_;
  std::uint16_t next_ephemeral_ = 49152;
  FlatIndex<UdpSocket> sockets_;  ///< bound sockets by port
};

}  // namespace doxlab::net
