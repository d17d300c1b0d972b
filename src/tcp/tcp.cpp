#include "tcp/tcp.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/logging.h"

namespace doxlab::tcp {

// ---------------------------------------------------------------- TcpStack

TcpStack::TcpStack(net::Host& host) : host_(&host) {
  host_->set_protocol_handler(net::kProtoTcp,
                              [this](net::Packet& p) { on_packet(p); });
}

TcpListener& TcpStack::listen(std::uint16_t port) {
  auto [it, inserted] = listeners_.try_emplace(
      port, std::unique_ptr<TcpListener>(new TcpListener(port)));
  if (!inserted) {
    throw std::invalid_argument("TCP port already listening: " +
                                std::to_string(port));
  }
  return *it->second;
}

std::uint16_t TcpStack::allocate_ephemeral_port() {
  for (int attempts = 0; attempts < 16384; ++attempts) {
    std::uint16_t candidate = next_ephemeral_;
    next_ephemeral_ =
        (next_ephemeral_ >= 65535) ? 49152 : std::uint16_t(next_ephemeral_ + 1);
    if (!ports_in_use_.contains(candidate)) return candidate;
  }
  throw std::runtime_error("ephemeral TCP port space exhausted");
}

std::shared_ptr<TcpConnection> TcpStack::connect(const net::Endpoint& remote,
                                                 TcpOptions options) {
  net::Endpoint local{host_->address(), allocate_ephemeral_port()};
  auto conn = std::shared_ptr<TcpConnection>(
      new TcpConnection(*this, local, remote, options, /*is_client=*/true));
  connections_[FlowKey{local, remote}] = conn;
  ports_in_use_.insert(local.port);
  // Defer the SYN by one event-loop turn so the caller can queue data (and
  // handlers) first — that is how TFO early data rides the SYN.
  simulator().schedule(0, [conn] {
    if (conn->state() == TcpState::kSynSent && !conn->syn_sent_) {
      conn->start_connect();
    }
  });
  return conn;
}

void TcpStack::send_segment(const net::Endpoint& from, const net::Endpoint& to,
                            const TcpConnection::Segment& segment) {
  net::Packet packet;
  packet.src = from;
  packet.dst = to;
  packet.protocol = net::kProtoTcp;
  packet.header_bytes = segment.syn ? kSynHeaderBytes : kSegHeaderBytes;
  packet.payload = segment.payload;
  packet.meta = std::make_shared<TcpConnection::Segment>(segment);
  host_->network().send(std::move(packet));
}

void TcpStack::remove_connection(const FlowKey& key) {
  if (connections_.erase(key) > 0) {
    auto it = ports_in_use_.find(key.first.port);
    if (it != ports_in_use_.end()) ports_in_use_.erase(it);
  }
}

void TcpStack::on_packet(net::Packet& packet) {
  auto meta =
      std::static_pointer_cast<const TcpConnection::Segment>(packet.meta);
  if (!meta) return;
  TcpConnection::Segment segment = *meta;
  segment.payload = std::move(packet.payload);

  const FlowKey key{packet.dst, packet.src};  // local, remote
  auto it = connections_.find(key);
  if (it != connections_.end()) {
    // Account received bytes on the owning connection.
    it->second->bytes_received_ += packet.header_bytes + segment.payload.size();
    it->second->handle_segment(std::move(segment));
    return;
  }

  if (segment.syn && !segment.has_ack) {
    auto lit = listeners_.find(packet.dst.port);
    if (lit != listeners_.end()) {
      auto conn = std::shared_ptr<TcpConnection>(new TcpConnection(
          *this, packet.dst, packet.src, TcpOptions{}, /*is_client=*/false));
      connections_[key] = conn;
      conn->bytes_received_ += packet.header_bytes + segment.payload.size();
      if (lit->second->on_accept_) lit->second->on_accept_(conn);
      const bool honour_tfo = lit->second->tfo_enabled() && segment.tfo;
      if (!honour_tfo) segment.payload.clear();  // TFO data ignored
      conn->accept_syn(segment);
      return;
    }
  }
  // No matching flow and not a connectable SYN. Real stacks answer RST;
  // by default we silently drop, which the initiator experiences as
  // retransmit + timeout. With refuse_unbound set, answer the RST so the
  // initiator sees connection-refused.
  if (refuse_unbound_ && segment.syn && !segment.has_ack) {
    TcpConnection::Segment rst;
    rst.rst = true;
    rst.has_ack = true;
    rst.seq = 0;
    rst.ack = segment.seq + segment.seq_span();
    send_segment(packet.dst, packet.src, rst);
  }
}

// ----------------------------------------------------------- TcpConnection

TcpConnection::TcpConnection(TcpStack& stack, net::Endpoint local,
                             net::Endpoint remote, TcpOptions options,
                             bool is_client)
    : stack_(&stack),
      local_(local),
      remote_(remote),
      options_(options),
      is_client_(is_client),
      state_(is_client ? TcpState::kSynSent : TcpState::kSynReceived) {
  cc::CcConfig cc_config;
  cc_config.algorithm = options_.congestion_algorithm;
  cc_config.mss = options_.mss;
  cc_config.initial_window_segments = options_.initial_cwnd_segments;
  cc_config.trace = options_.cc_trace;
  cc_ = cc::CongestionController(cc_config);
}

void TcpConnection::start_connect() {
  Segment syn;
  syn.syn = true;
  syn.seq = 0;
  if (options_.enable_tfo && stack_->has_tfo_cookie(remote_.address)) {
    syn.tfo = true;
    used_tfo_ = true;
    // Carry up to one MSS of early data on the SYN.
    const std::size_t early = std::min(send_buffer_.size(), options_.mss);
    syn.payload = util::Buffer::copy_of(
        std::span<const std::uint8_t>(send_buffer_.data(), early));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<long>(early));
  }
  snd_nxt_ = 1 + syn.payload.size();
  syn_sent_ = true;
  transmit(std::move(syn), /*count_outstanding=*/true);
}

void TcpConnection::accept_syn(const Segment& syn) {
  // Server side: SYN consumed seq 0 (plus any accepted TFO payload).
  rcv_nxt_ = 1;
  Segment synack;
  synack.syn = true;
  synack.has_ack = true;
  synack.seq = 0;
  snd_nxt_ = 1;

  if (!syn.payload.empty()) {
    // Accepted TFO early data: deliver after establishment below.
    rcv_nxt_ += syn.payload.size();
    used_tfo_ = true;
  }
  synack.ack = rcv_nxt_;
  transmit(std::move(synack), /*count_outstanding=*/true);

  if (!syn.payload.empty() && on_data_) {
    on_data_(syn.payload.view());
  }
}

void TcpConnection::enter_established() {
  if (state_ != TcpState::kSynSent && state_ != TcpState::kSynReceived) return;
  state_ = TcpState::kEstablished;
  connected_at_ = stack_->simulator().now();
  if (on_connected_) on_connected_();
  pump_send();
}

void TcpConnection::send(util::Buffer data) {
  if (state_ == TcpState::kClosed || fin_queued_) return;
  const bool may_pump = established() || state_ == TcpState::kSynReceived;
  // Zero-copy fast path: with nothing queued and the bytes fitting one
  // in-window segment, the buffer ships as the segment payload directly —
  // byte-for-byte what pump_send() would have produced from the stream
  // buffer for the same input.
  if (may_pump && send_buffer_.empty() && !data.empty()) {
    const std::uint64_t in_flight = snd_nxt_ - snd_una_;
    if (in_flight < cc_.cwnd() && data.size() <= options_.mss &&
        data.size() <= cc_.cwnd() - in_flight) {
      Segment seg;
      seg.seq = snd_nxt_;
      seg.has_ack = true;
      seg.ack = rcv_nxt_;
      seg.payload = std::move(data);
      snd_nxt_ += seg.payload.size();
      transmit(std::move(seg), /*count_outstanding=*/true);
      return;
    }
  }
  send_buffer_.insert(send_buffer_.end(), data.data(),
                      data.data() + data.size());
  if (may_pump) pump_send();
}

void TcpConnection::close() {
  if (state_ == TcpState::kClosed || fin_queued_) return;
  fin_queued_ = true;
  if (established()) {
    pump_send();
    maybe_send_fin();
  }
}

void TcpConnection::abort() {
  if (state_ == TcpState::kClosed) return;
  Segment rst;
  rst.rst = true;
  rst.seq = snd_nxt_;
  rst.has_ack = true;
  rst.ack = rcv_nxt_;
  transmit(std::move(rst), /*count_outstanding=*/false);
  finish(util::Error::conn_reset("local abort"));
}

void TcpConnection::pump_send() {
  // SYN_RECEIVED may transmit too: a TFO server answers the SYN's early
  // data right after its SYN-ACK (RFC 7413 §4.2).
  if (!established() && state_ != TcpState::kCloseWait &&
      state_ != TcpState::kSynReceived) {
    return;
  }
  // Bytes currently in flight.
  std::uint64_t in_flight = snd_nxt_ - snd_una_;
  while (!send_buffer_.empty() && in_flight < cc_.cwnd()) {
    const std::size_t chunk = std::min(
        {send_buffer_.size(), options_.mss,
         static_cast<std::size_t>(cc_.cwnd() - in_flight)});
    Segment seg;
    seg.seq = snd_nxt_;
    seg.has_ack = true;
    seg.ack = rcv_nxt_;
    seg.payload = util::Buffer::copy_of(
        std::span<const std::uint8_t>(send_buffer_.data(), chunk));
    send_buffer_.erase(send_buffer_.begin(),
                       send_buffer_.begin() + static_cast<long>(chunk));
    snd_nxt_ += chunk;
    in_flight += chunk;
    transmit(std::move(seg), /*count_outstanding=*/true);
  }
  maybe_send_fin();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_queued_ || fin_sent_ || !send_buffer_.empty()) return;
  Segment fin;
  fin.fin = true;
  fin.has_ack = true;
  fin.seq = snd_nxt_;
  fin.ack = rcv_nxt_;
  snd_nxt_ += 1;
  fin_sent_ = true;
  if (state_ == TcpState::kEstablished) state_ = TcpState::kFinWait;
  else if (state_ == TcpState::kCloseWait) state_ = TcpState::kLastAck;
  transmit(std::move(fin), /*count_outstanding=*/true);
}

void TcpConnection::transmit(Segment segment, bool count_outstanding) {
  const std::size_t header =
      segment.syn ? kSynHeaderBytes : kSegHeaderBytes;
  bytes_sent_ += header + segment.payload.size();
  stack_->send_segment(local_, remote_, segment);
  if (count_outstanding && segment.seq_span() > 0) {
    OutstandingSegment out;
    out.segment = std::move(segment);
    out.first_sent = stack_->simulator().now();
    out.transmissions = 1;
    outstanding_.push_back(std::move(out));
    arm_rto();
  }
}

SimTime TcpConnection::current_rto() const {
  SimTime base;
  if (srtt_) {
    base = std::max(options_.min_rto, *srtt_ + 4 * rttvar_);
  } else {
    base = options_.initial_rto;
  }
  return base << std::min(backoff_, 12);
}

void TcpConnection::arm_rto() {
  if (outstanding_.empty()) return;
  OutstandingSegment& front = outstanding_.front();
  if (front.rto_timer.armed()) return;
  // Weak capture: the timer lives inside outstanding_, so a shared self
  // here would keep the connection alive through its own member (a cycle).
  // The stack owns the connection until it closes, which cancels the timer.
  std::weak_ptr<TcpConnection> weak = weak_from_this();
  front.rto_timer = stack_->simulator().schedule(current_rto(), [weak]() {
    if (auto self = weak.lock()) self->retransmit_front();
  });
}

void TcpConnection::retransmit_front() {
  if (state_ == TcpState::kClosed || outstanding_.empty()) return;
  OutstandingSegment& front = outstanding_.front();
  if (front.transmissions > options_.max_retransmits) {
    finish(util::Error::timeout("TCP retransmit exhaustion"));
    return;
  }
  ++retransmits_;
  ++backoff_;
  // RTO loss response (RFC 5681 §3.1): ssthresh = cwnd/2, window collapses
  // to the loss window, slow start restarts.
  cc_.on_rto(stack_->simulator().now());
  dup_acks_ = 0;
  recover_ = snd_nxt_;
  Segment copy = front.segment;
  copy.has_ack = state_ != TcpState::kSynSent;
  copy.ack = rcv_nxt_;
  front.transmissions += 1;
  front.retransmitted = true;
  const std::size_t header = copy.syn ? kSynHeaderBytes : kSegHeaderBytes;
  bytes_sent_ += header + copy.payload.size();
  stack_->send_segment(local_, remote_, copy);
  std::weak_ptr<TcpConnection> weak = weak_from_this();
  front.rto_timer = stack_->simulator().schedule(current_rto(), [weak]() {
    if (auto self = weak.lock()) self->retransmit_front();
  });
}

void TcpConnection::update_rtt(SimTime sample) {
  // RFC 6298 §2.2-2.3.
  if (!srtt_) {
    srtt_ = sample;
    rttvar_ = sample / 2;
  } else {
    const SimTime err = std::abs(*srtt_ - sample);
    rttvar_ = (3 * rttvar_ + err) / 4;
    srtt_ = (7 * *srtt_ + sample) / 8;
  }
}

void TcpConnection::fast_retransmit() {
  if (state_ == TcpState::kClosed || outstanding_.empty()) return;
  // One window reduction per recovery episode: a dup-ack burst for a packet
  // sent before recovery started repairs the same episode.
  cc_.on_loss(outstanding_.front().first_sent, stack_->simulator().now());
  ++fast_retransmits_;
  recover_ = snd_nxt_;
  resend_front();
  // The RTO timer keeps running: fast retransmit is not a timeout and must
  // not add backoff, but an unanswered repair still escalates to the RTO.
}

/// Re-sends the oldest outstanding segment without touching the RTO timer,
/// backoff, or the congestion controller (callers decide the loss response).
void TcpConnection::resend_front() {
  OutstandingSegment& front = outstanding_.front();
  ++retransmits_;
  front.retransmitted = true;
  Segment copy = front.segment;
  copy.has_ack = state_ != TcpState::kSynSent;
  copy.ack = rcv_nxt_;
  const std::size_t header = copy.syn ? kSynHeaderBytes : kSegHeaderBytes;
  bytes_sent_ += header + copy.payload.size();
  stack_->send_segment(local_, remote_, copy);
}

void TcpConnection::handle_ack(std::uint64_t ack, bool pure_ack) {
  if (ack <= snd_una_) {
    // RFC 5681 §3.2: three duplicate ACKs for the oldest unacked byte mean
    // the segment after them very likely died — repair without waiting for
    // the RTO. Only data-less segments count; a peer's data segments repeat
    // the ack number without signalling loss.
    if (cc_.fast_recovery_enabled() && pure_ack && ack == snd_una_ &&
        !outstanding_.empty() && snd_nxt_ > snd_una_) {
      if (++dup_acks_ == 3) fast_retransmit();
    }
    return;
  }
  const std::uint64_t newly_acked = ack - snd_una_;
  snd_una_ = ack;
  dup_acks_ = 0;
  // Forward progress clears the exponential backoff (RFC 6298 §5.7); RTT
  // *samples*, by contrast, only ever come from fresh segments below.
  backoff_ = 0;

  SimTime newest_sent_at = stack_->simulator().now();
  while (!outstanding_.empty()) {
    OutstandingSegment& front = outstanding_.front();
    const std::uint64_t end = front.segment.seq + front.segment.seq_span();
    if (end > ack) break;
    front.rto_timer.cancel();
    newest_sent_at = front.first_sent;
    if (!front.retransmitted) {
      // Karn's algorithm: only sample RTT from unambiguous (never
      // retransmitted) segments — the ack for a retransmission cannot be
      // matched to a send time, and a sample taken from it would poison
      // SRTT/RTTVAR with either the doubled timeout or a stale send.
      update_rtt(stack_->simulator().now() - front.first_sent);
    }
    outstanding_.pop_front();
  }
  // RFC 6582 partial ack: progress that stops short of the recovery point
  // means the next outstanding segment died in the same flight. Retransmit
  // it now — waiting a full RTO per lost segment starves small windows
  // (on_loss is a no-op for losses inside the current episode).
  if (cc_.fast_recovery_enabled() && snd_una_ < recover_ &&
      !outstanding_.empty()) {
    cc_.on_loss(outstanding_.front().first_sent, stack_->simulator().now());
    resend_front();
  }
  arm_rto();

  // Window growth: slow start / congestion avoidance per the configured
  // algorithm; acks for recovery-episode data do not grow the window.
  cc_.on_ack(static_cast<std::size_t>(newly_acked), newest_sent_at,
             stack_->simulator().now());

  if (state_ == TcpState::kSynReceived) enter_established();
  if ((state_ == TcpState::kFinWait || state_ == TcpState::kLastAck) &&
      fin_sent_ && snd_una_ >= snd_nxt_ && peer_fin_seen_) {
    finish(util::Error::none());
    return;
  }
  pump_send();
}

void TcpConnection::handle_segment(Segment segment) {
  if (state_ == TcpState::kClosed) return;

  if (segment.rst) {
    finish(state_ == TcpState::kSynSent
               ? util::Error::conn_refused("RST in response to SYN")
               : util::Error::conn_reset("connection reset by peer"));
    return;
  }

  if (segment.syn && segment.has_ack && state_ == TcpState::kSynSent) {
    // SYN-ACK: peer's SYN consumes its seq 0.
    rcv_nxt_ = 1;
    const bool had_early_data = !reassembly_.empty();
    // TFO fallback: if our SYN carried early data but the peer acknowledged
    // only the SYN (ack == 1), the server ignored the payload — requeue it
    // for normal transmission after the handshake (RFC 7413 §4.1.3).
    if (segment.ack == 1 && !outstanding_.empty() &&
        outstanding_.front().segment.syn &&
        !outstanding_.front().segment.payload.empty()) {
      auto& payload = outstanding_.front().segment.payload;
      send_buffer_.insert(send_buffer_.begin(), payload.data(),
                          payload.data() + payload.size());
      payload.clear();
      snd_nxt_ = 1;
      used_tfo_ = false;
    }
    handle_ack(segment.ack, /*pure_ack=*/false);
    send_pure_ack();
    enter_established();
    // 0.5-RTT data from a TFO server can outrace the SYN-ACK; it was
    // stashed in the reassembly buffer and becomes deliverable now.
    if (had_early_data) deliver_in_order();
    return;
  }

  if (segment.syn && !segment.has_ack) {
    // Duplicate SYN (our SYN-ACK or their retransmission raced); re-ack.
    if (!is_client_) send_pure_ack();
    return;
  }

  if (segment.has_ack) {
    const bool pure_ack =
        segment.payload.empty() && !segment.syn && !segment.fin;
    handle_ack(segment.ack, pure_ack);
  }
  if (state_ == TcpState::kClosed) return;

  bool advanced = false;
  if (!segment.payload.empty()) {
    if (segment.seq == rcv_nxt_) {
      rcv_nxt_ += segment.payload.size();
      advanced = true;
      if (on_data_) on_data_(segment.payload.view());
      deliver_in_order();
    } else if (segment.seq > rcv_nxt_) {
      reassembly_.emplace(segment.seq, std::move(segment.payload));
    }
    // Data at or below rcv_nxt_ is a duplicate: just re-ack.
    send_pure_ack();
  }

  if (segment.fin) {
    peer_fin_seen_ = true;
    peer_fin_seq_ = segment.seq;
    if (segment.seq == rcv_nxt_) {
      rcv_nxt_ += 1;
      advanced = true;
    }
    send_pure_ack();
    if (state_ == TcpState::kEstablished) {
      state_ = TcpState::kCloseWait;
    }
    if (!remote_fin_notified_ && segment.seq == rcv_nxt_ - 1) {
      remote_fin_notified_ = true;
      if (on_remote_fin_) on_remote_fin_();
      if (state_ == TcpState::kClosed) return;
    }
    if (fin_sent_ && snd_una_ >= snd_nxt_) {
      finish(util::Error::none());
      return;
    }
  }
  (void)advanced;
}

void TcpConnection::deliver_in_order() {
  auto it = reassembly_.begin();
  while (it != reassembly_.end()) {
    if (it->first > rcv_nxt_) break;
    if (it->first + it->second.size() <= rcv_nxt_) {
      // Entirely duplicate.
      it = reassembly_.erase(it);
      continue;
    }
    const std::size_t skip = static_cast<std::size_t>(rcv_nxt_ - it->first);
    std::span<const std::uint8_t> fresh(it->second.data() + skip,
                                        it->second.size() - skip);
    rcv_nxt_ += fresh.size();
    if (on_data_) on_data_(fresh);
    it = reassembly_.erase(it);
    it = reassembly_.begin();
  }
  // Peer FIN may now be in order.
  if (peer_fin_seen_ && peer_fin_seq_ && *peer_fin_seq_ == rcv_nxt_) {
    rcv_nxt_ += 1;
    if (state_ == TcpState::kEstablished) state_ = TcpState::kCloseWait;
    if (!remote_fin_notified_) {
      remote_fin_notified_ = true;
      if (on_remote_fin_) on_remote_fin_();
    }
  }
}

void TcpConnection::send_pure_ack() {
  Segment ack;
  ack.has_ack = true;
  ack.seq = snd_nxt_;
  ack.ack = rcv_nxt_;
  transmit(std::move(ack), /*count_outstanding=*/false);
}

void TcpConnection::finish(util::Error error) {
  if (state_ == TcpState::kClosed) return;
  state_ = TcpState::kClosed;
  for (auto& out : outstanding_) out.rto_timer.cancel();
  outstanding_.clear();
  auto cb = on_closed_;
  // Deregister from the stack last; `this` may die when the stack's
  // shared_ptr drops, so keep a local reference.
  auto self = shared_from_this();
  stack_->remove_connection(TcpStack::FlowKey{local_, remote_});
  if (cb) cb(error);
  // Break reference cycles (handlers capture owners that hold this
  // connection); deferred so a running closure is never destroyed mid-call.
  stack_->simulator().schedule(0, [self] {
    self->on_connected_ = nullptr;
    self->on_data_ = nullptr;
    self->on_closed_ = nullptr;
    self->on_remote_fin_ = nullptr;
  });
}

}  // namespace doxlab::tcp
