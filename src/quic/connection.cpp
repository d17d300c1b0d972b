#include "quic/connection.h"

#include <algorithm>
#include <cassert>

#include "util/logging.h"

namespace doxlab::quic {

namespace {
/// Conservative per-packet header + tag overhead used when splitting frames
/// across packets (actual encoding is exact; this only bounds chunk sizes).
constexpr std::size_t kPacketOverhead = 80;
/// Per-frame overhead bound (type + varints).
constexpr std::size_t kFrameOverhead = 24;
/// RFC 9002 §6.1.1 packet reordering threshold: a packet is declared lost
/// when one sent at least this many packet numbers later is acknowledged.
constexpr std::uint64_t kPacketThreshold = 3;

PnSpace space_of(tls::Level level) {
  switch (level) {
    case tls::Level::kInitial: return PnSpace::kInitial;
    case tls::Level::kHandshake: return PnSpace::kHandshake;
    case tls::Level::kApplication: return PnSpace::kAppData;
  }
  return PnSpace::kAppData;
}

/// Splits the first `n` payload bytes off a CRYPTO or STREAM frame as a
/// frame of their own; both keep sharing the payload's slab.
Frame split_front(Frame& frame, std::size_t n) {
  util::Buffer head = frame.data;
  head.drop_back(head.size() - n);
  Frame piece = frame.type == FrameType::kCrypto
                    ? Frame::crypto(frame.offset, std::move(head))
                    : Frame::stream(frame.stream_id, frame.offset,
                                    std::move(head), /*fin=*/false);
  frame.data.drop_front(n);
  frame.offset += n;
  return piece;
}

bool retransmittable(FrameType type) {
  return type == FrameType::kCrypto || type == FrameType::kStream ||
         type == FrameType::kNewToken || type == FrameType::kHandshakeDone ||
         type == FrameType::kPing;
}

bool earlier_sent(const SentPacket& a, const SentPacket& b) {
  return a.send_order < b.send_order;
}

/// Fixes the endpoint's role. QUIC runs TLS 1.3 only (RFC 9001 §4.2),
/// whatever its TLS config would allow over TCP.
QuicConfig with_role(QuicConfig config, bool is_server) {
  config.tls.is_server = is_server;
  config.tls.max_version = tls::TlsVersion::kTls13;
  return config;
}
}  // namespace

std::shared_ptr<QuicConnection> QuicConnection::make_client(
    sim::Simulator& sim, QuicConfig config, Callbacks callbacks) {
  return std::shared_ptr<QuicConnection>(new QuicConnection(
      sim, with_role(std::move(config), false), std::move(callbacks)));
}

std::shared_ptr<QuicConnection> QuicConnection::make_server(
    sim::Simulator& sim, QuicConfig config, Callbacks callbacks,
    bool address_validated) {
  auto conn = std::shared_ptr<QuicConnection>(new QuicConnection(
      sim, with_role(std::move(config), true), std::move(callbacks)));
  conn->address_validated_ = address_validated;
  return conn;
}

QuicConnection::QuicConnection(sim::Simulator& sim, QuicConfig config,
                               Callbacks callbacks)
    : sim_(sim),
      config_(std::move(config)),
      cb_(std::move(callbacks)),
      handshake_(config_.tls, handshake_callbacks()),
      version_(config_.version),
      local_cid_(is_server() ? 0x5EC0DE5EC0DE5EC0ull
                             : 0xC11E27C11E27C11Eull) {
  cc::CcConfig cc_config;
  cc_config.algorithm = cc::CcAlgorithm::kNewReno;
  cc_config.mss = config_.max_datagram_size;
  cc_config.trace = config_.cc_trace;
  cc_ = cc::CongestionController(cc_config);
  touch_idle_timer();
}

void QuicConnection::touch_idle_timer() {
  idle_timer_.cancel();
  auto self = weak_from_this();
  idle_timer_ = sim_.schedule(config_.idle_timeout, [self] {
    if (auto conn = self.lock()) {
      if (conn->closed_) return;
      conn->closed_ = true;
      conn->pto_timer_.cancel();
      conn->notify_closed(util::Error::timeout("QUIC idle timeout"));
    }
  });
}

// --------------------------------------------------------------- client API

void QuicConnection::connect(std::optional<tls::SessionTicket> ticket,
                             std::optional<AddressToken> token) {
  if (is_server() || connect_called_) {
    fail(util::Error::protocol("connect() on server or already-connected endpoint"));
    return;
  }
  connect_called_ = true;
  ticket_ = std::move(ticket);
  if (token) {
    initial_token_bytes_ = token->encode();
    pending_info_.presented_token = true;
  }
  send_client_initial();
}

void QuicConnection::send_client_initial() {
  if (handshake_.start(ticket_, !queued_streams_.empty())) {
    for (const QueuedStream& qs : queued_streams_) send_0rtt(qs);
  }
  if (!processing_) flush_output();
}

void QuicConnection::send_0rtt(const QueuedStream& qs) {
  Stream& stream = streams_[qs.id];
  queue_frame(PnSpace::kAppData,
              Frame::stream(qs.id, stream.send_offset, qs.data, qs.fin));
  stream.send_offset += qs.data.size();
  stream.send_fin = qs.fin;
}

void QuicConnection::queue_client_stream(QueuedStream qs) {
  queued_streams_.push_back(std::move(qs));
  // Once connect() has offered 0-RTT, each further stream is another
  // 0-RTT packet.
  if (handshake_.early_data_offered()) {
    send_0rtt(queued_streams_.back());
    if (!processing_) flush_output();
  }
}

std::uint64_t QuicConnection::open_stream(util::Buffer data, bool fin) {
  const std::uint64_t id = next_stream_id_;
  next_stream_id_ += 4;
  if (!complete_) {
    queue_client_stream(QueuedStream{std::move(data), fin, id});
    return id;
  }
  Stream& stream = streams_[id];
  const std::size_t len = data.size();
  queue_frame(PnSpace::kAppData,
              Frame::stream(id, stream.send_offset, std::move(data), fin));
  stream.send_offset += len;
  stream.send_fin = fin;
  if (!processing_) flush_output();
  return id;
}

void QuicConnection::send_stream(std::uint64_t stream_id, util::Buffer data,
                                 bool fin) {
  if (closed_) return;
  if (!is_server() && !complete_) {
    // Client before handshake completion (e.g. an HTTP/3 control stream):
    // queued like open_stream's data.
    queue_client_stream(QueuedStream{std::move(data), fin, stream_id});
    return;
  }
  Stream& stream = streams_[stream_id];
  Frame f = Frame::stream(stream_id, stream.send_offset, std::move(data), fin);
  stream.send_offset += f.data.size();
  stream.send_fin = fin;
  queue_frame(PnSpace::kAppData, std::move(f));
  if (delivering_stream_ != stream_id) retire_if_finished(stream_id);
  if (!processing_) flush_output();
}

void QuicConnection::close(std::uint64_t error_code, std::string reason) {
  if (closed_) return;
  // Before handshake completion both endpoints close in the Initial space.
  const PnSpace space = complete_ ? PnSpace::kAppData : PnSpace::kInitial;
  queue_frame(space, Frame::connection_close(error_code, reason));
  flush_output();
  closed_ = true;
  pto_timer_.cancel();
  idle_timer_.cancel();
  notify_closed(util::Error::none());
}

void QuicConnection::fail(util::Error error) {
  if (closed_) return;
  closed_ = true;
  pto_timer_.cancel();
  idle_timer_.cancel();
  DOXLAB_DEBUG("QUIC failure: " << error);
  notify_closed(error);
}

void QuicConnection::notify_closed(const util::Error& error) {
  if (cb_.on_closed) cb_.on_closed(error);
  if (app_on_closed_) app_on_closed_(error);
  // Break reference cycles: user callbacks routinely capture shared_ptrs to
  // this connection or to its owning transport state, which in turn owns
  // this connection. Dropping the handlers (one event-loop turn later, so a
  // currently-executing closure is never destroyed mid-call) lets the whole
  // object graph — including the UDP socket and its port — be reclaimed.
  auto self = shared_from_this();
  sim_.schedule(0, [self] {
    self->cb_ = Callbacks{};
    self->app_on_closed_ = nullptr;
  });
}

// ------------------------------------------------------------- output path

void QuicConnection::queue_frame(PnSpace space, Frame frame) {
  auto& pending = pending_[static_cast<int>(space)];
  pending.frames.push_back(std::move(frame));
}

void QuicConnection::queue_crypto(PnSpace space, util::Buffer message) {
  auto& crypto = crypto_[static_cast<int>(space)];
  Frame f = Frame::crypto(crypto.send_offset, std::move(message));
  crypto.send_offset += f.data.size();
  queue_frame(space, std::move(f));
}

std::size_t QuicConnection::amplification_budget() const {
  if (!is_server() || address_validated_) {
    return static_cast<std::size_t>(-1);
  }
  const std::uint64_t allowed = kAmplificationFactor * unvalidated_received_;
  return allowed > unvalidated_sent_
             ? static_cast<std::size_t>(allowed - unvalidated_sent_)
             : 0;
}

void QuicConnection::flush_output() {
  if (in_flush_) return;
  in_flush_ = true;

  // Build packets directly into datagrams, filling each datagram up to the
  // MTU before opening the next. This matters for the INITIAL datagram
  // padding rule: a server coalesces INITIAL(ServerHello) with as much
  // HANDSHAKE data as fits, so the mandatory 1200-byte padding carries
  // useful bytes — which is exactly what decides whether a certificate
  // chain squeezes under the 3x anti-amplification budget. A datagram is
  // encoded and sent as soon as it closes; tx_packets_ holds the open one.
  std::size_t current_size = 0;
  bool sent_any = false;
  auto close_datagram = [&] {
    if (!tx_packets_.empty()) {
      send_datagram(tx_packets_.view());
      tx_packets_.clear();
      current_size = 0;
      sent_any = true;
    }
  };

  auto packet_type = [&](PnSpace sp) {
    switch (sp) {
      case PnSpace::kInitial: return PacketType::kInitial;
      case PnSpace::kHandshake: return PacketType::kHandshake;
      case PnSpace::kAppData:
        return (!is_server() && !complete_) ? PacketType::kZeroRtt
                                                  : PacketType::kOneRtt;
    }
    return PacketType::kOneRtt;
  };

  // RFC 9002 §7: with congestion control enforced, ack-eliciting frames may
  // only fill the window headroom; the excess stays pending and flushes when
  // acknowledgements free window (on_datagram always re-flushes). Pure ACKs
  // and CONNECTION_CLOSE are never blocked.
  std::size_t window_room = static_cast<std::size_t>(-1);
  if (config_.enable_cc) {
    window_room = cc_.cwnd() > bytes_in_flight_
                      ? cc_.cwnd() - bytes_in_flight_
                      : 0;
  }

  for (int s = 0; s < kNumPnSpaces; ++s) {
    auto space = static_cast<PnSpace>(s);
    auto& pending = pending_[s];
    std::vector<Frame>& frames = tx_frames_;
    frames.clear();
    if (need_ack_[s]) {
      if (!received_pns_[s].empty()) {
        received_pns_[s].descending(tx_ack_ranges_[s]);
        frames.push_back(Frame::ack(tx_ack_ranges_[s]));
      }
      need_ack_[s] = false;
    }
    // The pending frames move either into `frames` or, deferred, back into
    // pending.frames in their order.
    std::swap(pending.frames, tx_deferred_);
    for (auto& f : tx_deferred_) {
      if (!f.ack_eliciting()) {
        frames.push_back(std::move(f));
        continue;
      }
      if (!pending.frames.empty()) {
        // Later data must stay behind the first deferral (stream order).
        pending.frames.push_back(std::move(f));
        continue;
      }
      const std::size_t cost = f.data.size() + f.token.size() +
                               f.reason.size() + kFrameOverhead;
      if (cost <= window_room) {
        window_room -= cost;
        frames.push_back(std::move(f));
        continue;
      }
      // Partially fill the remaining window from a splittable frame.
      const bool splittable =
          f.type == FrameType::kCrypto || f.type == FrameType::kStream;
      if (splittable && window_room > kFrameOverhead + 256) {
        frames.push_back(split_front(f, window_room - kFrameOverhead));
        window_room = 0;
      }
      pending.frames.push_back(std::move(f));
    }
    tx_deferred_.clear();
    if (frames.empty()) continue;

    std::size_t fi = 0;
    while (fi < frames.size()) {
      const std::size_t room = config_.max_datagram_size - current_size;
      if (room < kPacketOverhead + 48) {
        close_datagram();
        continue;
      }
      QuicPacket& packet = tx_packets_.add();
      packet.type = packet_type(space);
      packet.version = version_;
      packet.dcid = remote_cid_;
      packet.scid = local_cid_;
      if (packet.type == PacketType::kInitial && !is_server()) {
        packet.token = initial_token_bytes_;
      }
      packet.packet_number = next_pn_[s]++;

      const std::size_t budget =
          room - kPacketOverhead - packet.token.size();
      std::size_t used = 0;
      while (fi < frames.size()) {
        Frame& frame = frames[fi];
        const std::size_t cost = frame.data.size() + frame.token.size() +
                                 frame.reason.size() + kFrameOverhead;
        if (cost <= budget - used) {
          used += cost;
          packet.frames.push_back(std::move(frame));
          ++fi;
          continue;
        }
        // Frame does not fit whole. Data-bearing frames split; everything
        // else moves to the next packet/datagram.
        const bool splittable = frame.type == FrameType::kCrypto ||
                                frame.type == FrameType::kStream;
        const std::size_t data_room =
            (budget - used > kFrameOverhead) ? budget - used - kFrameOverhead
                                             : 0;
        if (!splittable || data_room < 64) break;
        packet.frames.push_back(split_front(frame, data_room));
        used = budget;
        break;
      }
      if (packet.frames.empty()) {
        --next_pn_[s];  // nothing went out; recycle the number
        tx_packets_.drop_last();
        close_datagram();
        continue;
      }
      current_size += encoded_packet_size(packet);
      if (current_size + kPacketOverhead + 48 > config_.max_datagram_size) {
        close_datagram();
      }
    }
  }
  close_datagram();

  if (sent_any) arm_pto();
  in_flush_ = false;
}

void QuicConnection::send_datagram(std::span<QuicPacket> packets) {
  util::Buffer bytes = encode_datagram(packets, !is_server());
  BlockedDatagram* blocked = nullptr;
  if (is_server() && !address_validated_ &&
      bytes.size() + net::kUdpHeaderBytes > amplification_budget()) {
    was_amplification_blocked_ = true;
    blocked = &blocked_datagrams_.emplace_back();
    blocked->bytes = std::move(bytes);
  }
  // Register retransmittable content: the encoded packets hand their frames
  // over.
  for (QuicPacket& p : packets) {
    if (!p.ack_eliciting()) continue;
    SentPacket sp;
    sp.pn = p.packet_number;
    sp.size = encoded_packet_size(p);
    sp.retransmittable = take_frame_list();
    for (Frame& f : p.frames) {
      if (retransmittable(f.type)) sp.retransmittable.push_back(std::move(f));
    }
    const int s = static_cast<int>(space_of(p.type));
    if (blocked != nullptr) {
      blocked->packets.emplace_back(s, std::move(sp));
    } else {
      track_sent(s, std::move(sp));
    }
  }
  if (blocked == nullptr) transmit(std::move(bytes));
}

void QuicConnection::transmit(util::Buffer bytes) {
  const std::size_t wire_size = bytes.size() + net::kUdpHeaderBytes;
  if (is_server() && !address_validated_) unvalidated_sent_ += wire_size;
  bytes_sent_ += wire_size;
  ++datagrams_sent_;
  if (cb_.send_datagram) cb_.send_datagram(std::move(bytes));
}

void QuicConnection::track_sent(int space, SentPacket packet) {
  packet.sent_at = sim_.now();
  packet.send_order = next_send_order_++;
  bytes_in_flight_ += packet.size;
  auto& sent = sent_[space];
  if (sent.empty() || sent.back().pn < packet.pn) {
    sent.push_back(std::move(packet));
    return;
  }
  // A datagram the amplification limit held back goes out after later
  // ones: keep the queue in packet-number order for the ACK walk.
  const auto at = std::upper_bound(
      sent.begin(), sent.end(), packet.pn,
      [](std::uint64_t pn, const SentPacket& p) { return pn < p.pn; });
  sent.insert(at, std::move(packet));
}

std::vector<Frame> QuicConnection::take_frame_list() {
  if (spare_frame_lists_.empty()) return {};
  std::vector<Frame> frames = std::move(spare_frame_lists_.back());
  spare_frame_lists_.pop_back();
  return frames;
}

void QuicConnection::recycle_frame_list(std::vector<Frame>& frames) {
  frames.clear();
  spare_frame_lists_.push_back(std::move(frames));
}

// -------------------------------------------------------------- input path

void QuicConnection::on_datagram(const util::Buffer& datagram) {
  if (closed_) return;
  bytes_received_ += datagram.size() + net::kUdpHeaderBytes;
  if (is_server() && !address_validated_) {
    unvalidated_received_ += datagram.size() + net::kUdpHeaderBytes;
  }
  touch_idle_timer();

  if (!decode_datagram(datagram, rx_)) {
    DOXLAB_DEBUG("undecodable datagram dropped");
    return;
  }

  processing_ = true;
  for (const QuicPacket& p : rx_.packets) {
    process_packet(p);
    if (closed_) break;
  }
  processing_ = false;
  rx_.packets.clear();  // drops the frames' references to the datagram
  if (closed_) return;

  // Amplification budget may have grown: release blocked flights first.
  if (is_server() && !blocked_datagrams_.empty()) {
    auto blocked = std::move(blocked_datagrams_);
    blocked_datagrams_.clear();
    for (BlockedDatagram& d : blocked) {
      if (!address_validated_ &&
          d.bytes.size() + net::kUdpHeaderBytes > amplification_budget()) {
        was_amplification_blocked_ = true;
        blocked_datagrams_.push_back(std::move(d));
        continue;
      }
      for (auto& [space, packet] : d.packets) {
        track_sent(space, std::move(packet));
      }
      transmit(std::move(d.bytes));
    }
    arm_pto();
  }
  flush_output();

  if (complete_callback_pending_) {
    complete_callback_pending_ = false;
    if (cb_.on_handshake_complete && info_) cb_.on_handshake_complete(*info_);
  }
}

void QuicConnection::process_packet(const QuicPacket& packet) {
  switch (packet.type) {
    case PacketType::kVersionNegotiation:
      handle_version_negotiation(packet);
      return;
    case PacketType::kRetry:
      handle_retry(packet);
      return;
    default:
      break;
  }

  if (is_server() && version_ != packet.version &&
      packet.type == PacketType::kInitial) {
    // First INITIAL pins the connection's version (QuicServer already
    // filtered unsupported ones).
    version_ = packet.version;
  }

  // Rejected or undecidable 0-RTT is dropped without acknowledgement.
  if (packet.type == PacketType::kZeroRtt && is_server() &&
      !handshake_.early_data_accepted()) {
    return;
  }

  const int s = static_cast<int>(space_of(packet.type));
  RangeSet& received = received_pns_[s];
  const std::uint64_t pn = expand_packet_number(
      received.empty() ? 0 : received.largest() + 1, packet.packet_number);
  if (!received.insert(pn)) {
    return;  // duplicate delivery (retransmitted datagram); already handled
  }
  if (packet.ack_eliciting()) need_ack_[s] = true;

  if (is_server() && packet.type == PacketType::kHandshake) {
    // A HANDSHAKE packet proves the peer owns the address (RFC 9000 §8.1).
    address_validated_ = true;
  }
  if (remote_cid_ == 0 && packet.scid != 0) remote_cid_ = packet.scid;

  process_frames(space_of(packet.type), packet);
}

void QuicConnection::process_frames(PnSpace space, const QuicPacket& packet) {
  for (const Frame& frame : packet.frames) {
    switch (frame.type) {
      case FrameType::kAck:
        handle_ack(space, frame);
        break;
      case FrameType::kCrypto: {
        auto& crypto = crypto_[static_cast<int>(space)];
        if (frame.offset + frame.data.size() > crypto.recv_consumed) {
          crypto.recv_buffer.emplace(frame.offset, frame.data);
        }
        process_crypto_stream(space);
        break;
      }
      case FrameType::kStream:
        handle_stream_frame(frame);
        break;
      case FrameType::kNewToken: {
        auto token = AddressToken::decode(frame.token);
        if (token && cb_.on_new_token) cb_.on_new_token(*token);
        break;
      }
      case FrameType::kHandshakeDone:
        break;  // informational in the model
      case FrameType::kConnectionClose: {
        closed_ = true;
        pto_timer_.cancel();
        idle_timer_.cancel();
        // Error code 0 with no reason is a clean application shutdown;
        // anything else is a peer-signalled transport error.
        notify_closed(frame.error_code == 0 && frame.reason.empty()
                          ? util::Error::none()
                          : util::Error::quic_transport(frame.reason));
        return;
      }
      case FrameType::kPing:
      case FrameType::kPadding:
        break;
    }
    if (closed_) return;
  }
}

void QuicConnection::process_crypto_stream(PnSpace space) {
  auto& crypto = crypto_[static_cast<int>(space)];
  // Drain contiguous bytes into the assembled buffer.
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto it = crypto.recv_buffer.begin();
         it != crypto.recv_buffer.end();) {
      const std::uint64_t start = it->first;
      const std::uint64_t end = start + it->second.size();
      if (end <= crypto.recv_consumed) {
        it = crypto.recv_buffer.erase(it);
        continue;
      }
      if (start <= crypto.recv_consumed) {
        const std::size_t skip =
            static_cast<std::size_t>(crypto.recv_consumed - start);
        crypto.assembled.insert(crypto.assembled.end(),
                                it->second.data() + skip,
                                it->second.data() + it->second.size());
        crypto.recv_consumed = end;
        it = crypto.recv_buffer.erase(it);
        progressed = true;
      } else {
        ++it;
      }
    }
  }

  // Hand complete TLS messages, [type u8][len u24][body], to the handshake.
  while (crypto.assembled.size() >= 4) {
    const std::size_t body_len =
        (std::size_t(crypto.assembled[1]) << 16) |
        (std::size_t(crypto.assembled[2]) << 8) | crypto.assembled[3];
    if (crypto.assembled.size() < 4 + body_len) return;
    const auto type = static_cast<tls::HandshakeType>(crypto.assembled[0]);
    if (space_of(tls::level_of(type)) != space) {
      fail(util::Error::protocol("TLS message outside its encryption level"));
      return;
    }
    const bool was_complete = complete_;
    handshake_.receive(std::span<const std::uint8_t>(crypto.assembled.data(),
                                                     4 + body_len));
    if (closed_) return;
    if (is_server() && complete_ && !was_complete) {
      // After the handshake's ticket: a token for the client's next
      // connection, so it skips address validation (RFC 9000 §8.1.3).
      AddressToken token;
      token.server_secret = config_.tls.ticket_secret;
      token.client_ip = config_.peer_ip;
      token.issued_at = sim_.now();
      queue_frame(PnSpace::kAppData, Frame::new_token(token.encode()));
    }
    crypto.assembled.erase(crypto.assembled.begin(),
                           crypto.assembled.begin() + 4 + body_len);
  }
}

tls::Handshake::Callbacks QuicConnection::handshake_callbacks() {
  tls::Handshake::Callbacks callbacks;
  callbacks.send = [this](tls::Level level, util::Buffer message) {
    queue_crypto(space_of(level), std::move(message));
  };
  callbacks.on_early_data_rejected = [this] { resend_rejected_0rtt(); };
  callbacks.on_complete = [this] { complete_handshake(); };
  callbacks.on_new_ticket = [this](const tls::SessionTicket& ticket) {
    if (cb_.on_new_ticket) cb_.on_new_ticket(ticket);
  };
  callbacks.on_fail = [this](tls::Alert alert, const std::string& reason) {
    on_handshake_failed(alert, reason);
  };
  callbacks.now = [this] { return sim_.now(); };
  return callbacks;
}

void QuicConnection::on_handshake_failed(tls::Alert alert,
                                         const std::string& reason) {
  if (alert == tls::Alert::kNoApplicationProtocol) {
    // RFC 9001 §8.1: close at once with no_application_protocol, carried
    // as CRYPTO_ERROR 0x100 + 120.
    const std::uint64_t code = 0x100 + static_cast<std::uint64_t>(alert);
    queue_frame(PnSpace::kInitial,
                Frame::connection_close(code, "no application protocol"));
    flush_output();
  }
  fail(util::Error::tls_alert(reason));
}

void QuicConnection::resend_rejected_0rtt() {
  // The server never processed (nor will acknowledge) the 0-RTT packets:
  // forget them and resend their stream data after the handshake.
  auto& appdata = sent_[static_cast<int>(PnSpace::kAppData)];
  for (auto& sp : appdata) {
    bytes_in_flight_ -= std::min(bytes_in_flight_, sp.size);
    for (auto& f : sp.retransmittable) {
      if (f.type == FrameType::kStream) {
        queue_frame(PnSpace::kAppData, std::move(f));
      }
    }
  }
  appdata.clear();
}

void QuicConnection::complete_handshake() {
  complete_ = true;
  const tls::HandshakeInfo& negotiated = *handshake_.info();
  QuicHandshakeInfo info = pending_info_;
  info.version = version_;
  info.alpn = negotiated.alpn;
  info.resumed = negotiated.resumed;
  info.early_data_accepted = negotiated.early_data_accepted;
  info.amplification_stall = was_amplification_blocked_;
  info_ = info;
  // Defer the user callback until the completing flight has been flushed,
  // so byte counters observed inside it include the final handshake bytes.
  complete_callback_pending_ = true;

  if (is_server()) {
    // The server confirms the handshake to the client (RFC 9001 §4.1.2).
    queue_frame(PnSpace::kAppData, Frame::handshake_done());
    return;
  }
  // Client: flush streams that did not ride 0-RTT.
  if (!negotiated.early_data_accepted) {
    for (auto& qs : queued_streams_) {
      Stream& stream = streams_[qs.id];
      if (stream.send_offset > 0 || stream.send_fin) continue;  // 0-RTT path
      const std::size_t len = qs.data.size();
      queue_frame(PnSpace::kAppData,
                  Frame::stream(qs.id, 0, std::move(qs.data), qs.fin));
      stream.send_offset = len;
      stream.send_fin = qs.fin;
    }
  }
  queued_streams_.clear();
}

void QuicConnection::handle_stream_frame(const Frame& frame) {
  if (retired_streams_[frame.stream_id & 3].contains(frame.stream_id >> 2)) {
    return;  // everything up to the FIN was already delivered
  }
  Stream& stream = streams_[frame.stream_id];
  if (frame.fin) {
    stream.fin_offset = frame.offset + frame.data.size();
  }
  const bool unseen =
      frame.offset + frame.data.size() > stream.recv_consumed ||
      (frame.fin && !stream.fin_delivered && frame.data.empty());
  // Every held piece starts past recv_consumed, so a frame that reaches it
  // is delivered straight from its datagram, before anything held; only a
  // frame that arrives ahead of it is held, as a slice of its datagram.
  const bool in_order = frame.offset <= stream.recv_consumed;
  if (unseen && !in_order) {
    stream.recv_buffer.emplace(frame.offset,
                               Stream::Piece{frame.data, frame.fin});
  }

  delivering_stream_ = frame.stream_id;
  if (unseen && in_order) {
    deliver(frame.stream_id, stream, frame.offset, frame.data, frame.fin);
  }
  for (auto it = stream.recv_buffer.begin();
       it != stream.recv_buffer.end() &&
       deliver(frame.stream_id, stream, it->first, it->second.data,
               it->second.fin);
       it = stream.recv_buffer.erase(it)) {
  }
  delivering_stream_.reset();
  retire_if_finished(frame.stream_id);
}

bool QuicConnection::deliver(std::uint64_t stream_id, Stream& stream,
                             std::uint64_t start,
                             std::span<const std::uint8_t> data, bool fin) {
  const std::uint64_t end = start + data.size();
  if (end < stream.recv_consumed ||
      (end == stream.recv_consumed && !fin)) {
    return true;
  }
  if (start > stream.recv_consumed) return false;
  const std::span<const std::uint8_t> fresh =
      data.subspan(static_cast<std::size_t>(stream.recv_consumed - start));
  stream.recv_consumed = end;
  const bool fin_now =
      fin || (stream.fin_offset && *stream.fin_offset == end);
  if (cb_.on_stream_data && (!fresh.empty() || !stream.fin_delivered)) {
    if (fin_now) stream.fin_delivered = true;
    cb_.on_stream_data(stream_id, fresh, fin_now);
  }
  return true;
}

void QuicConnection::retire_if_finished(std::uint64_t stream_id) {
  const auto it = streams_.find(stream_id);
  if (it == streams_.end() || !it->second.send_fin ||
      !it->second.fin_delivered) {
    return;
  }
  streams_.erase(it);
  retired_streams_[stream_id & 3].insert(stream_id >> 2);
}

void QuicConnection::handle_version_negotiation(const QuicPacket& packet) {
  if (is_server() || complete_ ||
      pending_info_.used_version_negotiation) {
    return;
  }
  // Pick our most preferred version the server also supports.
  std::optional<QuicVersion> chosen;
  for (QuicVersion mine : config_.supported) {
    for (QuicVersion theirs : packet.supported_versions) {
      if (mine == theirs) {
        chosen = mine;
        break;
      }
    }
    if (chosen) break;
  }
  if (!chosen) {
    fail(util::Error::quic_transport("no common QUIC version"));
    return;
  }
  pending_info_.used_version_negotiation = true;
  version_ = *chosen;

  // Restart the handshake from scratch with the new version.
  for (int s = 0; s < kNumPnSpaces; ++s) {
    sent_[s].clear();
    pending_[s] = PendingSpace{};
    crypto_[s] = CryptoStream{};
    need_ack_[s] = false;
    received_pns_[s].clear();
  }
  bytes_in_flight_ = 0;
  for (auto& [id, stream] : streams_) stream = Stream{};
  send_client_initial();
}

void QuicConnection::handle_retry(const QuicPacket& packet) {
  if (is_server() || complete_ || pending_info_.used_retry) return;
  pending_info_.used_retry = true;
  initial_token_bytes_ = packet.token;

  // Resend the first flight with the Retry token (RFC 9000 §8.1.2).
  for (int s = 0; s < kNumPnSpaces; ++s) {
    sent_[s].clear();
    pending_[s] = PendingSpace{};
    crypto_[s] = CryptoStream{};
    need_ack_[s] = false;
    received_pns_[s].clear();
  }
  bytes_in_flight_ = 0;
  for (auto& [id, stream] : streams_) stream = Stream{};
  send_client_initial();  // re-evaluates 0-RTT
}

// ----------------------------------------------------------- loss recovery

void QuicConnection::handle_ack(PnSpace space, const Frame& ack) {
  if (ack.ack_ranges.empty()) return;
  const AckedPackets acked = acknowledge(
      sent_[static_cast<int>(space)], ack.ack_ranges, spare_frame_lists_);
  if (acked.count == 0) return;
  if (acked.largest_sent_at) update_rtt(sim_.now() - *acked.largest_sent_at);
  bytes_in_flight_ -= std::min(bytes_in_flight_, acked.bytes);
  pto_backoff_ = 0;
  if (config_.enable_cc) {
    cc_.on_ack(acked.bytes, acked.newest_sent_at, sim_.now());
    detect_losses(space, ack.ack_ranges.front().last);
  }
  arm_pto();
}

void QuicConnection::detect_losses(PnSpace space, std::uint64_t largest_acked) {
  // RFC 9002 §6.1.1 packet-threshold detection: everything still unacked
  // with pn <= largest_acked - kPacketThreshold is declared lost — its
  // frames requeue for the next flush, and the controller takes one window
  // reduction per recovery episode (keyed on send time).
  if (largest_acked < kPacketThreshold) return;
  const std::uint64_t lost_up_to = largest_acked - kPacketThreshold;
  auto& sent = sent_[static_cast<int>(space)];
  const auto lost_end = std::upper_bound(
      sent.begin(), sent.end(), lost_up_to,
      [](std::uint64_t pn, const SentPacket& p) { return pn < p.pn; });
  std::sort(sent.begin(), lost_end, earlier_sent);
  for (auto it = sent.begin(); it != lost_end; ++it) {
    ++packets_lost_;
    bytes_in_flight_ -= std::min(bytes_in_flight_, it->size);
    cc_.on_loss(it->sent_at, sim_.now());
    for (auto& f : it->retransmittable) {
      queue_frame(space, std::move(f));
    }
    recycle_frame_list(it->retransmittable);
  }
  sent.erase(sent.begin(), lost_end);
}

void QuicConnection::update_rtt(SimTime sample) {
  if (!srtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const SimTime err = std::abs(*srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * *srtt_ + sample) / 8;
  }
}

SimTime QuicConnection::current_pto() const {
  SimTime base = srtt_ ? (*srtt_ + std::max<SimTime>(4 * rttvar_, 1000) +
                          25 * kMillisecond)
                       : config_.initial_pto;
  return base << std::min(pto_backoff_, 10);
}

void QuicConnection::arm_pto() {
  pto_timer_.cancel();
  bool in_flight = false;
  for (int s = 0; s < kNumPnSpaces; ++s) {
    if (!sent_[s].empty()) {
      in_flight = true;
      break;
    }
  }
  if (!in_flight || closed_) return;
  auto self = weak_from_this();
  pto_timer_ = sim_.schedule(current_pto(), [self] {
    if (auto conn = self.lock()) conn->on_pto();
  });
}

void QuicConnection::on_pto() {
  if (closed_) return;
  ++pto_backoff_;
  ++total_ptos_;
  if (pto_backoff_ > config_.max_pto_count) {
    fail(util::Error::timeout("QUIC handshake/transfer timed out"));
    return;
  }
  if (config_.enable_cc) {
    // A timeout collapses the window and restarts slow start; a second
    // consecutive PTO with no ack in between is the model's persistent
    // congestion signal (RFC 9002 §7.6).
    if (pto_backoff_ >= 2) {
      cc_.on_persistent_congestion(sim_.now());
    } else {
      cc_.on_rto(sim_.now());
    }
  }
  // Retransmit all unacknowledged retransmittable frames as fresh packets.
  bool queued_any = false;
  for (int s = 0; s < kNumPnSpaces; ++s) {
    auto sent = std::move(sent_[s]);
    sent_[s].clear();
    std::sort(sent.begin(), sent.end(), earlier_sent);
    for (auto& sp : sent) {
      for (auto& f : sp.retransmittable) {
        queue_frame(static_cast<PnSpace>(s), std::move(f));
        queued_any = true;
      }
      recycle_frame_list(sp.retransmittable);
    }
  }
  bytes_in_flight_ = 0;
  if (!queued_any) {
    // Nothing retransmittable (e.g. only ACK-eliciting PINGs already gone):
    // probe with a PING in the highest active space.
    queue_frame(complete_ ? PnSpace::kAppData : PnSpace::kInitial,
                Frame::ping());
  }
  flush_output();
}

}  // namespace doxlab::quic
