// QUIC connection state machine (client and server endpoints).
//
// Implements the QUIC v1 mechanisms that drive the paper's findings:
//   * 1-RTT combined transport+crypto handshake: the connection drives the
//     tls::Handshake that DoT and DoH use, carrying its messages in CRYPTO
//     frames of the packet-number space that matches each message's level,
//   * datagram padding of INITIAL-carrying datagrams to >= 1200 bytes
//     (clients pad all of them, servers pad ack-eliciting ones — RFC 9000
//     §14.1), which is why DoQ's handshake bytes are ~2x DoH's in Table 1,
//   * the 3x anti-amplification limit for unvalidated servers (RFC 9000
//     §8.1) — the cause of the +1 RTT stall in ~40% of the paper's
//     *preliminary* measurements, eliminated here by Session Resumption
//     because the server flight shrinks below 3x1200 bytes,
//   * address validation: Retry (+1 RTT, optional server policy) and
//     NEW_TOKEN tokens presented in later INITIALs,
//   * Version Negotiation (+1 RTT when the client guesses wrong),
//   * TLS Session Resumption and 0-RTT early data in QUIC packets,
//   * PTO-based loss recovery with a 1 s initial timeout (RFC 9002),
//   * client-initiated bidirectional streams (one DoQ query per stream).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "cc/cc.h"
#include "net/udp.h"
#include "quic/range_set.h"
#include "quic/sent_packets.h"
#include "quic/types.h"
#include "quic/wire.h"
#include "sim/simulator.h"
#include "tls/handshake.h"
#include "tls/ticket.h"
#include "util/error.h"

namespace doxlab::quic {

struct QuicConfig {
  /// Client: the version offered in the first INITIAL (learned per resolver
  /// during cache warming in the study). Server: preferred version.
  QuicVersion version = QuicVersion::kV1;
  /// Versions this endpoint can speak.
  std::vector<QuicVersion> supported = {QuicVersion::kV1,
                                        QuicVersion::kDraft34,
                                        QuicVersion::kDraft32,
                                        QuicVersion::kDraft29};
  /// The TLS handshake's side of the connection: endpoint role, ALPN, SNI,
  /// certificate, tickets and 0-RTT. Its `ticket_secret` also keys this
  /// server's address tokens. QUIC always negotiates TLS 1.3, whatever
  /// `max_version` says (RFC 9001 §4.2).
  tls::TlsConfig tls = {};
  /// Server: validate addresses with Retry when no token is presented.
  bool require_retry = false;
  SimTime idle_timeout = 60 * kSecond;
  /// RFC 9002: PTO before any RTT sample (kInitialRtt 333ms x3 ~= 1 s).
  SimTime initial_pto = 1 * kSecond;
  int max_pto_count = 7;
  /// Largest UDP payload we emit (1252 - 8 byte UDP header model keeps the
  /// IP payload at a common Ethernet-safe size).
  std::size_t max_datagram_size = 1252;
  /// Server: the peer's IPv4 address (for token minting/validation);
  /// filled in by QuicServer.
  std::uint32_t peer_ip = 0;
  /// RFC 9002 congestion control (shared src/cc module, NewReno):
  /// cwnd-capped sending, packet-threshold loss detection, recovery
  /// episodes, persistent congestion. Off by default — the seed's PTO-only
  /// recovery is the pinned baseline; adverse-path studies enable it.
  bool enable_cc = false;
  /// Record the controller's (time, cwnd, phase) trace (benches/tests).
  bool cc_trace = false;
};

/// Facts about a completed QUIC handshake.
struct QuicHandshakeInfo {
  QuicVersion version = QuicVersion::kV1;
  std::string alpn;
  bool resumed = false;
  bool early_data_accepted = false;
  bool used_retry = false;
  bool used_version_negotiation = false;
  bool presented_token = false;
  /// True if the server stalled on the amplification limit (client observed
  /// an incomplete flight needing an extra round trip).
  bool amplification_stall = false;
};

/// A QUIC endpoint. Client instances own their socket; server instances are
/// created by QuicServer and share its socket.
class QuicConnection : public std::enable_shared_from_this<QuicConnection> {
 public:
  struct Callbacks {
    std::function<void(const QuicHandshakeInfo&)> on_handshake_complete;
    /// In-order stream payload; `fin` marks the peer's final byte. The view
    /// is valid for the call only.
    std::function<void(std::uint64_t stream_id,
                       std::span<const std::uint8_t> data, bool fin)>
        on_stream_data;
    std::function<void(const tls::SessionTicket&)> on_new_ticket;
    std::function<void(const AddressToken&)> on_new_token;
    /// Connection ended; kNone means clean close. kTimeout for idle/PTO
    /// expiry, kQuicTransportError for a peer CONNECTION_CLOSE with an
    /// error code, kProtocolError for malformed flights, kTlsAlert for a
    /// failed TLS handshake (an ALPN miss, a malformed message).
    std::function<void(const util::Error&)> on_closed;
    /// Raw datagram egress (wired to a UDP socket by the owner). The buffer
    /// is pooled and uniquely owned; sinks may ship it as-is.
    std::function<void(util::Buffer)> send_datagram;
  };

  // The handshake's callbacks hold this connection's address.
  QuicConnection(const QuicConnection&) = delete;
  QuicConnection& operator=(const QuicConnection&) = delete;

  /// Client factory.
  static std::shared_ptr<QuicConnection> make_client(sim::Simulator& sim,
                                                     QuicConfig config,
                                                     Callbacks callbacks);
  /// Server factory (used by QuicServer).
  static std::shared_ptr<QuicConnection> make_server(
      sim::Simulator& sim, QuicConfig config, Callbacks callbacks,
      bool address_validated);

  /// Client: starts the handshake. The ticket enables resumption (and 0-RTT
  /// when permitted); the token skips server address validation.
  void connect(std::optional<tls::SessionTicket> ticket = std::nullopt,
               std::optional<AddressToken> token = std::nullopt);

  /// Client: opens the next bidirectional stream and sends `data` on it.
  /// Pre-handshake data is queued (or flies as 0-RTT when eligible).
  /// Returns the stream id (0, 4, 8, ...). The connection keeps a reference
  /// to `data` until it is acknowledged; treat the bytes as immutable.
  std::uint64_t open_stream(util::Buffer data, bool fin);

  /// Sends data on an existing stream (server responses use this), on the
  /// same terms as open_stream.
  void send_stream(std::uint64_t stream_id, util::Buffer data, bool fin);

  /// Sends CONNECTION_CLOSE and tears down.
  void close(std::uint64_t error_code = 0, std::string reason = "");

  /// Feeds a received datagram into the connection. Its frames' payloads
  /// share the buffer's slab: in-order stream data is delivered from it, and
  /// out-of-order pieces keep a reference until they are delivered.
  void on_datagram(const util::Buffer& datagram);

  // Post-construction handler attachment (used by QuicServer accept hooks;
  // the closed handler set here is invoked *in addition* to the one passed
  // at construction, which QuicServer uses to drop the connection from its
  // map).
  void set_on_handshake_complete(
      std::function<void(const QuicHandshakeInfo&)> fn) {
    cb_.on_handshake_complete = std::move(fn);
  }
  void set_on_stream_data(
      std::function<void(std::uint64_t, std::span<const std::uint8_t>, bool)>
          fn) {
    cb_.on_stream_data = std::move(fn);
  }
  void set_on_new_ticket(std::function<void(const tls::SessionTicket&)> fn) {
    cb_.on_new_ticket = std::move(fn);
  }
  void set_on_new_token(std::function<void(const AddressToken&)> fn) {
    cb_.on_new_token = std::move(fn);
  }
  void set_on_closed(std::function<void(const util::Error&)> fn) {
    app_on_closed_ = std::move(fn);
  }

  bool handshake_complete() const { return complete_; }
  bool closed() const { return closed_; }
  const std::optional<QuicHandshakeInfo>& info() const { return info_; }
  QuicVersion version() const { return version_; }

  /// IP payload bytes (UDP header + datagram) sent/received.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }
  std::uint64_t datagrams_sent() const { return datagrams_sent_; }
  /// Streams with state held: finished streams (FIN sent and the peer's FIN
  /// delivered) are retired, so this counts unfinished ones.
  std::size_t live_streams() const { return streams_.size(); }
  std::uint64_t pto_count_total() const { return total_ptos_; }

  /// Congestion controller state (cwnd/phase/trace/loss episodes).
  const cc::CongestionController& congestion() const { return cc_; }
  std::size_t bytes_in_flight() const { return bytes_in_flight_; }
  /// Packets declared lost by ack-based (packet threshold) detection.
  std::uint64_t packets_declared_lost() const { return packets_lost_; }

 private:
  QuicConnection(sim::Simulator& sim, QuicConfig config, Callbacks callbacks);

  // --- output path ---
  struct PendingSpace {
    std::vector<Frame> frames;
  };
  void queue_frame(PnSpace space, Frame frame);
  void queue_crypto(PnSpace space, util::Buffer message);
  struct QueuedStream;
  /// Client before completion: holds a stream's data for the handshake to
  /// release, shipping it at once as 0-RTT when early data is offered.
  void queue_client_stream(QueuedStream qs);
  void send_0rtt(const QueuedStream& qs);
  void flush_output();
  /// Encodes `packets` as one datagram and sends it, or holds it back while
  /// the amplification limit blocks it. Moves the retransmittable frames
  /// out of `packets`.
  void send_datagram(std::span<QuicPacket> packets);
  /// Puts an encoded datagram on the wire and counts its bytes.
  void transmit(util::Buffer bytes);
  /// Records a sent ack-eliciting packet as in flight from now.
  void track_sent(int space, SentPacket packet);
  std::vector<Frame> take_frame_list();
  void recycle_frame_list(std::vector<Frame>& frames);
  std::size_t amplification_budget() const;

  // --- input path ---
  void process_packet(const QuicPacket& packet);
  void process_frames(PnSpace space, const QuicPacket& packet);
  void process_crypto_stream(PnSpace space);
  void handle_ack(PnSpace space, const Frame& ack);
  void detect_losses(PnSpace space, std::uint64_t largest_acked);
  void handle_stream_frame(const Frame& frame);
  struct Stream;
  /// Hands the bytes of the piece at `start` past the consumed offset to
  /// on_stream_data. False while the piece still lies ahead of that offset;
  /// true once it is delivered or found already delivered.
  bool deliver(std::uint64_t stream_id, Stream& stream, std::uint64_t start,
               std::span<const std::uint8_t> data, bool fin);
  void retire_if_finished(std::uint64_t stream_id);
  void handle_version_negotiation(const QuicPacket& packet);
  void handle_retry(const QuicPacket& packet);

  // --- handshake logic ---
  tls::Handshake::Callbacks handshake_callbacks();
  void send_client_initial();
  void on_handshake_failed(tls::Alert alert, const std::string& reason);
  void resend_rejected_0rtt();
  void complete_handshake();
  void fail(util::Error error);
  bool is_server() const { return config_.tls.is_server; }

  // --- loss recovery ---
  void notify_closed(const util::Error& error);
  void arm_pto();
  void on_pto();
  SimTime current_pto() const;
  void update_rtt(SimTime sample);

  void touch_idle_timer();

  sim::Simulator& sim_;
  QuicConfig config_;
  Callbacks cb_;
  std::function<void(const util::Error&)> app_on_closed_;
  tls::Handshake handshake_;

  QuicVersion version_;
  std::uint64_t local_cid_;
  std::uint64_t remote_cid_ = 0;
  bool complete_ = false;
  bool closed_ = false;
  std::optional<QuicHandshakeInfo> info_;
  QuicHandshakeInfo pending_info_;

  // Client handshake state.
  std::optional<tls::SessionTicket> ticket_;
  bool connect_called_ = false;

  bool address_validated_ = false;

  // Crypto streams (per space): send offset + receive reassembly.
  struct CryptoStream {
    std::uint64_t send_offset = 0;
    std::uint64_t recv_consumed = 0;
    std::map<std::uint64_t, util::Buffer> recv_buffer;  // datagram slices
    std::vector<std::uint8_t> assembled;  // contiguous, unparsed messages
  };
  CryptoStream crypto_[kNumPnSpaces];

  // Application streams.
  struct Stream {
    std::uint64_t send_offset = 0;
    bool send_fin = false;
    std::uint64_t recv_consumed = 0;
    /// Pieces that arrived ahead of recv_consumed, by offset: slices of
    /// their datagrams. In-order data never enters.
    struct Piece {
      util::Buffer data;
      bool fin = false;
    };
    std::map<std::uint64_t, Piece> recv_buffer;
    std::optional<std::uint64_t> fin_offset;
    bool fin_delivered = false;
  };
  std::map<std::uint64_t, Stream> streams_;
  /// Ids of retired streams, per stream type (id & 3) by sequence number
  /// (id >> 2). Frames for them are late retransmissions and are dropped.
  RangeSet retired_streams_[4];
  /// The stream whose data is being handed to on_stream_data; it must not
  /// be retired under the delivery loop.
  std::optional<std::uint64_t> delivering_stream_;
  std::uint64_t next_stream_id_ = 0;  // client-initiated bidi: 0,4,8,...
  struct QueuedStream {
    util::Buffer data;
    bool fin;
    std::uint64_t id;
  };
  std::vector<QueuedStream> queued_streams_;  // pre-handshake

  // Packet numbers and reliability.
  std::uint64_t next_pn_[kNumPnSpaces] = {0, 0, 0};
  /// Packet numbers received per space, as the runs an ACK frame lists.
  /// Sized by the gaps in the sequence, not by the connection's lifetime.
  RangeSet received_pns_[kNumPnSpaces];
  /// Ack-eliciting packets in flight, in packet-number order.
  std::deque<SentPacket> sent_[kNumPnSpaces];
  std::uint64_t next_send_order_ = 0;
  /// Emptied retransmittable-frame lists of acknowledged packets, reused
  /// for the next packets sent.
  std::vector<std::vector<Frame>> spare_frame_lists_;
  PendingSpace pending_[kNumPnSpaces];
  bool need_ack_[kNumPnSpaces] = {false, false, false};
  /// Raw token bytes echoed in INITIAL packets (from NEW_TOKEN or Retry).
  std::vector<std::uint8_t> initial_token_bytes_;
  /// True while processing an incoming datagram (defers flushes).
  bool processing_ = false;
  /// Completion callback deferred until the final handshake flight has been
  /// flushed, so byte counters observed in the callback include it.
  bool complete_callback_pending_ = false;

  // Amplification accounting (server, pre-validation).
  std::uint64_t unvalidated_received_ = 0;
  std::uint64_t unvalidated_sent_ = 0;
  /// A datagram the amplification limit holds back: its bytes, and its
  /// ack-eliciting packets (with their spaces) to track once it goes out.
  struct BlockedDatagram {
    util::Buffer bytes;
    std::vector<std::pair<int, SentPacket>> packets;
  };
  std::vector<BlockedDatagram> blocked_datagrams_;
  bool was_amplification_blocked_ = false;

  // Containers reused datagram after datagram, so that a long-lived
  // connection's steady state builds none: the decode target, the open
  // datagram's packets, one space's frames to send and the pending ones it
  // defers, and each space's ACK ranges (the ACK frames' views point here
  // until their datagram is encoded).
  DecodedDatagram rx_;
  PacketList tx_packets_;
  std::vector<Frame> tx_frames_;
  std::vector<Frame> tx_deferred_;
  std::vector<AckRange> tx_ack_ranges_[kNumPnSpaces];

  // Congestion control (RFC 9002, enforcement gated by config_.enable_cc).
  cc::CongestionController cc_;
  std::size_t bytes_in_flight_ = 0;
  std::uint64_t packets_lost_ = 0;

  // RTT / PTO.
  std::optional<SimTime> srtt_;
  SimTime rttvar_ = 0;
  int pto_backoff_ = 0;
  std::uint64_t total_ptos_ = 0;
  sim::Timer pto_timer_;
  sim::Timer idle_timer_;

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t datagrams_sent_ = 0;
  bool in_flush_ = false;
};

}  // namespace doxlab::quic
