#include "net/udp.h"

#include <stdexcept>

namespace doxlab::net {

UdpSocket::~UdpSocket() {
  if (stack_) stack_->unbind(port_);
}

Endpoint UdpSocket::local_endpoint() const {
  return Endpoint{stack_->host().address(), port_};
}

void UdpSocket::send_to(const Endpoint& to, util::Buffer payload) {
  send_to_from(to, stack_->host().address(), std::move(payload));
}

void UdpSocket::send_to_from(const Endpoint& to, IpAddress source,
                             util::Buffer payload) {
  Packet packet;
  packet.src = Endpoint{source, port_};
  packet.dst = to;
  packet.protocol = kProtoUdp;
  packet.header_bytes = kUdpHeaderBytes;
  packet.payload = std::move(payload);
  bytes_sent_ += packet.ip_payload_bytes();
  stack_->host().network().send(std::move(packet));
}

void UdpSocket::send_batch(std::vector<OutboundDatagram>& out) {
  for (OutboundDatagram& datagram : out) {
    send_to_from(datagram.to,
                 datagram.source.value() == 0 ? stack_->host().address()
                                              : datagram.source,
                 std::move(datagram.payload));
  }
  out.clear();
}

void UdpSocket::receive(const Endpoint& from, util::Buffer payload) {
  bytes_received_ += kUdpHeaderBytes + payload.size();
  if (handler_) handler_(from, std::move(payload));
}

void UdpSocket::receive_run(PacketBatch& batch, std::size_t begin,
                            std::size_t end) {
  if (!batch_handler_) {
    for (std::size_t i = begin; i < end; ++i) {
      receive(batch[i].src, std::move(batch[i].payload));
    }
    return;
  }
  scratch_batch_.clear();
  for (std::size_t i = begin; i < end; ++i) {
    bytes_received_ += kUdpHeaderBytes + batch[i].payload.size();
    scratch_batch_.push_back(
        Datagram{batch[i].src, std::move(batch[i].payload)});
  }
  batch_handler_(std::span<Datagram>(scratch_batch_));
}

UdpStack::UdpStack(Host& host) : host_(&host) {
  host_->set_protocol_handler(kProtoUdp,
                              [this](Packet& packet) { on_packet(packet); });
  host_->set_protocol_batch_handler(
      kProtoUdp, [this](PacketBatch& batch) { on_packet_batch(batch); });
}

std::unique_ptr<UdpSocket> UdpStack::bind(std::uint16_t port) {
  if (sockets_.find(port) != nullptr) {
    throw std::invalid_argument("UDP port already bound: " +
                                std::to_string(port));
  }
  auto socket = std::unique_ptr<UdpSocket>(new UdpSocket(*this, port));
  sockets_.insert(port, socket.get());
  return socket;
}

std::unique_ptr<UdpSocket> UdpStack::bind_ephemeral() {
  // Scan the ephemeral range for a free port, wrapping once.
  for (int attempts = 0; attempts < 16384; ++attempts) {
    std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        (next_ephemeral_ >= 65535) ? 49152 : std::uint16_t(next_ephemeral_ + 1);
    if (sockets_.find(candidate) == nullptr) return bind(candidate);
  }
  throw std::runtime_error("ephemeral UDP port space exhausted");
}

void UdpStack::unbind(std::uint16_t port) { sockets_.erase(port); }

void UdpStack::on_packet(Packet& packet) {
  UdpSocket* socket = sockets_.find(packet.dst.port);
  if (socket == nullptr) return;  // No listener: silently dropped.
  socket->receive(packet.src, std::move(packet.payload));
}

void UdpStack::on_packet_batch(PacketBatch& batch) {
  // Group consecutive same-port packets into runs so a socket sees one
  // burst per run — order across the batch is preserved exactly.
  std::size_t i = 0;
  while (i < batch.size()) {
    const std::uint16_t port = batch[i].dst.port;
    std::size_t j = i + 1;
    while (j < batch.size() && batch[j].dst.port == port) ++j;
    if (UdpSocket* socket = sockets_.find(port)) {
      socket->receive_run(batch, i, j);
    }
    i = j;
  }
}

}  // namespace doxlab::net
