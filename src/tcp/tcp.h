// TCP connection model.
//
// Implements the pieces of TCP that shape the paper's measurements:
//   * 3-way handshake (1 RTT before first data byte) and its byte cost
//     (SYN/SYN-ACK carry 20 bytes of options, established segments carry
//     12 bytes of timestamp options),
//   * TCP Fast Open (RFC 7413) as a switchable option — the paper finds no
//     resolver supports it, and the ablation bench turns it on,
//   * reliable in-order delivery with out-of-order reassembly (the fabric
//     jitters per packet, so reordering happens),
//   * RFC 6298 retransmission timing: 1 s initial RTO, SRTT/RTTVAR tracking,
//     exponential backoff — this is the "transport layer retransmission with
//     initial timeout of 1 second" the paper contrasts with DoUDP's 5 s
//     application-layer retry,
//   * graceful close (FIN) and abort (RST), since connection teardown bytes
//     are part of the paper's per-query size accounting.
//
// Sequence numbers are modelled as 64-bit logical stream offsets (SYN
// occupies seq 0, data starts at 1, FIN occupies the seq after the last data
// byte); there is no 32-bit wraparound to emulate because connections in the
// study carry at most a few kilobytes.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

#include "cc/cc.h"
#include "net/network.h"
#include "util/error.h"
#include "util/types.h"

namespace doxlab::tcp {

/// Header sizes used for IP-payload accounting.
inline constexpr std::size_t kSynHeaderBytes = 40;  // 20 base + 20 options
inline constexpr std::size_t kSegHeaderBytes = 32;  // 20 base + 12 TS option

struct TcpOptions {
  std::size_t mss = 1460;
  /// Initial congestion window in segments (RFC 6928).
  std::size_t initial_cwnd_segments = 10;
  /// RFC 6298: RTO before any RTT sample.
  SimTime initial_rto = 1 * kSecond;
  /// Lower bound for computed RTO (Linux-style 200 ms).
  SimTime min_rto = 200 * kMillisecond;
  /// Connection aborts after this many consecutive RTOs on one segment.
  int max_retransmits = 8;
  /// Client side: attempt TCP Fast Open (requires a cached cookie and a
  /// server that accepts TFO).
  bool enable_tfo = false;
  /// Congestion-control algorithm (shared src/cc module). The default is
  /// the seed-faithful legacy mode — pure slow start, collapse to one
  /// segment, no fast retransmit — so pinned artifacts stay byte-identical;
  /// adverse-path scenarios opt into kNewReno or kCubic.
  cc::CcAlgorithm congestion_algorithm = cc::CcAlgorithm::kLegacySlowStart;
  /// Record the (time, cwnd, phase) trace on the controller (benches/tests).
  bool cc_trace = false;
};

class TcpStack;

/// Connection state, exposed for tests.
enum class TcpState {
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinWait,    // we sent FIN, waiting for peer FIN/ACK
  kCloseWait,  // peer sent FIN, we have not closed yet
  kLastAck,    // peer FIN seen and our FIN sent
  kClosed,
};

/// A reliable byte-stream connection. Obtained from TcpStack::connect() or
/// a listener's accept callback; lifetime is managed by shared_ptr (the
/// stack keeps one reference until the connection closes).
class TcpConnection : public std::enable_shared_from_this<TcpConnection> {
 public:
  using ConnectedHandler = std::function<void()>;
  using DataHandler = std::function<void(std::span<const std::uint8_t>)>;
  /// Close reason: kNone for a clean FIN exchange, kConnRefused for an RST
  /// answering our SYN, kConnReset for an RST on an established connection
  /// (or a local abort), kTimeout for retransmit exhaustion.
  using ClosedHandler = std::function<void(const util::Error&)>;

  /// Queues stream bytes for transmission (before or after establishment;
  /// pre-handshake bytes flush when the handshake completes, or ride the SYN
  /// when TFO is active). When the stream buffer is empty and the bytes fit
  /// in one in-window segment — the steady state for DoT/DoH records — the
  /// buffer becomes the segment payload directly, with no stream copy.
  void send(util::Buffer data);
  void send(std::vector<std::uint8_t> data) {
    send(util::Buffer::copy_of(data));
  }

  /// Graceful close: FIN after all queued data.
  void close();

  /// Immediate teardown with RST.
  void abort();

  void on_connected(ConnectedHandler h) { on_connected_ = std::move(h); }
  void on_data(DataHandler h) { on_data_ = std::move(h); }
  void on_closed(ClosedHandler h) { on_closed_ = std::move(h); }
  /// Fires once when the peer's FIN is received in order (the connection
  /// enters CLOSE_WAIT). Servers typically close() in response.
  void on_remote_fin(ConnectedHandler h) { on_remote_fin_ = std::move(h); }

  TcpState state() const { return state_; }
  bool established() const {
    return state_ == TcpState::kEstablished || state_ == TcpState::kFinWait ||
           state_ == TcpState::kCloseWait || state_ == TcpState::kLastAck;
  }
  net::Endpoint local() const { return local_; }
  net::Endpoint remote() const { return remote_; }
  bool is_client() const { return is_client_; }

  /// IP payload bytes (TCP headers + payload) sent/received on this
  /// connection, including retransmissions and pure ACKs.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  std::uint64_t bytes_received() const { return bytes_received_; }

  /// Time on_connected fired; nullopt before establishment.
  std::optional<SimTime> connected_at() const { return connected_at_; }

  /// Latest smoothed RTT estimate; nullopt before the first sample.
  std::optional<SimTime> srtt() const { return srtt_; }

  /// Total retransmitted segments (diagnostics / tests).
  std::uint64_t retransmit_count() const { return retransmits_; }

  /// Congestion controller state (cwnd/ssthresh/phase/trace).
  const cc::CongestionController& congestion() const { return cc_; }
  std::size_t cwnd_bytes() const { return cc_.cwnd(); }
  /// Fast retransmits triggered by triple duplicate ACKs (vs RTO fires,
  /// which `retransmit_count` also includes).
  std::uint64_t fast_retransmit_count() const { return fast_retransmits_; }
  /// Current RTO backoff shift (clears when an ack advances snd_una).
  int rto_backoff() const { return backoff_; }

  /// True if this connection's first flight carried TFO data.
  bool used_tfo() const { return used_tfo_; }

 private:
  friend class TcpStack;

  struct Segment {
    std::uint64_t seq = 0;
    std::uint64_t ack = 0;
    bool syn = false;
    bool fin = false;
    bool rst = false;
    bool has_ack = false;
    bool tfo = false;  // SYN carries a fast-open cookie
    util::Buffer payload;  // shared (refcounted) with packet + retransmit state

    std::uint64_t seq_span() const {
      return payload.size() + (syn ? 1 : 0) + (fin ? 1 : 0);
    }
  };

  struct OutstandingSegment {
    Segment segment;
    SimTime first_sent = 0;
    /// RTO-driven (re)transmissions only — feeds the exhaustion abort.
    int transmissions = 0;
    /// Set by any retransmission (RTO or fast retransmit): the segment's
    /// ack is ambiguous, so Karn forbids sampling RTT from it.
    bool retransmitted = false;
    sim::Timer rto_timer;
  };

  TcpConnection(TcpStack& stack, net::Endpoint local, net::Endpoint remote,
                TcpOptions options, bool is_client);

  void start_connect();
  void accept_syn(const Segment& syn);
  void handle_segment(Segment segment);
  void handle_ack(std::uint64_t ack, bool pure_ack);
  void deliver_in_order();
  void pump_send();
  void transmit(Segment segment, bool count_outstanding);
  void retransmit_front();
  void fast_retransmit();
  void resend_front();
  void arm_rto();
  void update_rtt(SimTime sample);
  SimTime current_rto() const;
  void send_pure_ack();
  void enter_established();
  void finish(util::Error error);
  void maybe_send_fin();

  TcpStack* stack_;
  net::Endpoint local_;
  net::Endpoint remote_;
  TcpOptions options_;
  bool is_client_;
  TcpState state_ = TcpState::kSynSent;

  // Send side.
  std::vector<std::uint8_t> send_buffer_;  // not yet segmented
  std::uint64_t snd_nxt_ = 0;              // next logical seq to send
  std::uint64_t snd_una_ = 0;              // oldest unacked seq
  std::deque<OutstandingSegment> outstanding_;
  cc::CongestionController cc_;
  /// Duplicate-ACK counter for fast retransmit (RFC 5681 §3.2).
  int dup_acks_ = 0;
  /// NewReno recovery point (RFC 6582): snd_nxt_ when the current loss
  /// episode started. Acks below it are partial acks — the next segment
  /// died in the same flight and is retransmitted immediately.
  std::uint64_t recover_ = 0;
  bool fin_queued_ = false;
  bool fin_sent_ = false;
  bool syn_sent_ = false;

  // Receive side.
  std::uint64_t rcv_nxt_ = 0;
  std::map<std::uint64_t, util::Buffer> reassembly_;
  bool peer_fin_seen_ = false;
  std::optional<std::uint64_t> peer_fin_seq_;

  // RTT estimation (RFC 6298).
  std::optional<SimTime> srtt_;
  SimTime rttvar_ = 0;
  int backoff_ = 0;

  ConnectedHandler on_connected_;
  DataHandler on_data_;
  ClosedHandler on_closed_;
  ConnectedHandler on_remote_fin_;
  bool remote_fin_notified_ = false;

  std::uint64_t bytes_sent_ = 0;
  std::uint64_t bytes_received_ = 0;
  std::uint64_t retransmits_ = 0;
  std::uint64_t fast_retransmits_ = 0;
  std::optional<SimTime> connected_at_;
  bool used_tfo_ = false;
};

/// A listening socket.
class TcpListener {
 public:
  using AcceptHandler =
      std::function<void(const std::shared_ptr<TcpConnection>&)>;

  void on_accept(AcceptHandler h) { on_accept_ = std::move(h); }

  /// Whether this listener honours TCP Fast Open SYN data.
  void set_tfo_enabled(bool enabled) { tfo_enabled_ = enabled; }
  bool tfo_enabled() const { return tfo_enabled_; }

  std::uint16_t port() const { return port_; }

 private:
  friend class TcpStack;
  explicit TcpListener(std::uint16_t port) : port_(port) {}
  std::uint16_t port_;
  bool tfo_enabled_ = false;
  AcceptHandler on_accept_;
};

/// Per-host TCP: demultiplexes segments to connections and listeners.
/// Construct at most one per host.
class TcpStack {
 public:
  explicit TcpStack(net::Host& host);
  TcpStack(const TcpStack&) = delete;
  TcpStack& operator=(const TcpStack&) = delete;

  /// Opens a listener; throws std::invalid_argument if the port is taken.
  TcpListener& listen(std::uint16_t port);

  /// Initiates a client connection from an ephemeral port.
  std::shared_ptr<TcpConnection> connect(const net::Endpoint& remote,
                                         TcpOptions options = {});

  /// Whether this client host holds a TFO cookie for `server` (cookies are
  /// learned out of band in the model; the study never exercises them
  /// because no resolver enables TFO).
  void learn_tfo_cookie(net::IpAddress server) { tfo_cookies_.insert(server); }
  bool has_tfo_cookie(net::IpAddress server) const {
    return tfo_cookies_.contains(server);
  }

  /// When enabled, a SYN to a port with no listener is answered with an RST
  /// (the initiator sees kConnRefused). Off by default: the model's default
  /// is to drop silently, which the initiator experiences as retransmit +
  /// timeout — keeping baseline timings unchanged. Fault-injection tests
  /// turn this on to exercise the refused path.
  void set_refuse_unbound(bool on) { refuse_unbound_ = on; }
  bool refuse_unbound() const { return refuse_unbound_; }

  net::Host& host() { return *host_; }
  sim::Simulator& simulator() { return host_->network().simulator(); }

 private:
  friend class TcpConnection;
  using FlowKey = std::pair<net::Endpoint, net::Endpoint>;  // local, remote

  struct FlowKeyHash {
    std::size_t operator()(const FlowKey& k) const noexcept {
      std::size_t a = std::hash<net::Endpoint>()(k.first);
      std::size_t b = std::hash<net::Endpoint>()(k.second);
      return a ^ (b * 0x9E3779B97F4A7C15ull);
    }
  };

  void on_packet(net::Packet& packet);
  void send_segment(const net::Endpoint& from, const net::Endpoint& to,
                    const TcpConnection::Segment& segment);
  void remove_connection(const FlowKey& key);
  std::uint16_t allocate_ephemeral_port();

  net::Host* host_;
  std::uint16_t next_ephemeral_ = 49152;
  /// Local ports of live connections (fast ephemeral allocation).
  std::multiset<std::uint16_t> ports_in_use_;
  std::unordered_map<std::uint16_t, std::unique_ptr<TcpListener>> listeners_;
  std::unordered_map<FlowKey, std::shared_ptr<TcpConnection>, FlowKeyHash>
      connections_;
  std::set<net::IpAddress> tfo_cookies_;
  bool refuse_unbound_ = false;
};

}  // namespace doxlab::tcp
