// The TLS handshake (1.3, and 1.2 for the servers that stop there), shared
// by both record layers.
//
// QUIC replaces only TLS's record layer (RFC 9001 §3-4), so one handshake
// makes every negotiation decision — version, ALPN, PSK resumption, the
// 0-RTT offer and its acceptance, the ticket's fields — and hands out each
// message, [type u8][length u24][body], tagged with the encryption level it
// travels at. TlsSession seals the messages into records over TCP;
// QuicConnection carries them in CRYPTO frames of the matching
// packet-number space. Flights:
//
//   TLS 1.3 full:      CH ->  | <- SH,EE,Cert,CV,Fin | Fin ->        (1 RTT)
//   TLS 1.3 resumed:   CH(PSK) -> | <- SH,EE,Fin | Fin ->            (1 RTT)
//   TLS 1.3 0-RTT:     CH(PSK)+early data -> | <- ...,Fin(+answer)   (0 RTT)
//   TLS 1.2:           CH -> | <- SH,Cert,SKE,SHD | CKE,Fin -> | <- Fin (2 RTT)
//
// TLS 1.2's ChangeCipherSpec is a record, not a handshake message; the TCP
// record layer writes it before each 1.2 Finished. After the handshake a
// TLS 1.3 server issues a NewSessionTicket when tickets are enabled, with
// the 7-day lifetime every resolver in the paper's population uses.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tls/ticket.h"
#include "tls/wire.h"

namespace doxlab::tls {

struct TlsConfig {
  bool is_server = false;
  /// Highest version this endpoint speaks (server may be TLS 1.2-only — the
  /// paper observed ~1% of DoT/DoH measurements on 1.2).
  TlsVersion max_version = TlsVersion::kTls13;
  /// Client: offered ALPN list, first is preferred. Server: supported list.
  std::vector<std::string> alpn = {};
  /// Client: server name indication.
  std::string sni = {};
  /// Server: certificate chain size in bytes (drawn per resolver).
  std::size_t certificate_chain_size = 3000;
  /// Server: issue NewSessionTicket after handshake.
  bool enable_session_tickets = true;
  /// Server: accept early data; client: attempt it when the ticket allows.
  bool enable_0rtt = false;
  /// Server: identity for ticket validation (stands in for the ticket key).
  std::uint64_t ticket_secret = 0;
};

/// Outcome facts about a completed handshake.
struct HandshakeInfo {
  TlsVersion version = TlsVersion::kTls13;
  bool resumed = false;
  bool early_data_accepted = false;
  std::string alpn;
  int round_trips = 1;  // network RTTs consumed before client app data flows
};

/// The fatal alerts a handshake raises (RFC 8446 §6.2). QUIC signals one as
/// CRYPTO_ERROR 0x100 + its code (RFC 9001 §4.8).
enum class Alert : std::uint8_t {
  kUnexpectedMessage = 10,
  kDecodeError = 50,
  kNoApplicationProtocol = 120,
};

class Handshake {
 public:
  struct Callbacks {
    /// A handshake message for the peer, at `level`. The buffer is pooled,
    /// uniquely owned and has the room to be sealed into a record in place.
    std::function<void(Level, util::Buffer)> send;
    /// Client: the server declined the 0-RTT data this client sent.
    std::function<void()> on_early_data_rejected;
    /// The handshake completed (client: its Finished is sent; server: the
    /// client's Finished arrived). info() is set.
    std::function<void()> on_complete;
    /// Client: a NewSessionTicket arrived.
    std::function<void(const SessionTicket&)> on_new_ticket;
    /// The handshake failed; it ignores all further input.
    std::function<void(Alert, const std::string& reason)> on_fail;
    /// Clock for ticket validity.
    std::function<SimTime()> now;
  };

  Handshake(TlsConfig config, Callbacks callbacks);

  /// Client: sends the ClientHello, starting the handshake afresh (QUIC
  /// restarts it after a Retry or Version Negotiation). A `ticket` valid now
  /// is offered for resumption when TLS 1.3 is possible; 0-RTT is offered
  /// with it when the client has `early_data`, the config enables 0-RTT and
  /// the ticket permits it. Returns whether 0-RTT was offered.
  bool start(const std::optional<SessionTicket>& ticket, bool early_data);

  /// Feeds one message from the peer. Bytes past it (a record's AEAD tag)
  /// are ignored.
  void receive(std::span<const std::uint8_t> message);

  const TlsConfig& config() const { return config_; }
  /// Client: start() was called. Server: always.
  bool started() const { return state_ != State::kIdle; }
  bool complete() const { return state_ == State::kComplete; }
  TlsVersion version() const { return version_; }
  /// Client: this handshake offered 0-RTT.
  bool early_data_offered() const { return early_offered_; }
  /// Server: early data is accepted. Client: the server accepted ours.
  bool early_data_accepted() const { return early_accepted_; }
  /// Server: its TLS 1.3 flight is out, so it may send 0.5-RTT data.
  bool half_rtt_open() const {
    return state_ == State::kWaitClientFinished &&
           version_ == TlsVersion::kTls13;
  }
  /// Set when the handshake completes.
  const std::optional<HandshakeInfo>& info() const { return info_; }

 private:
  enum class State {
    kIdle,
    kWaitServerFlight,    // client: TLS 1.3 SH..Fin, or 1.2 SH..SHD
    kWaitServerFinished,  // client: TLS 1.2 only
    kWaitClientHello,
    kWaitClientFinished,  // server: 1.3 Fin; 1.2 CKE, Fin
    kComplete,
    kFailed,
  };

  void client_receive(const HandshakeMessage& msg);
  void server_receive_client_hello(const ClientHello& ch);
  void server_receive_finished();
  void send(util::Buffer message);
  void finish();
  void fail(Alert alert, const std::string& reason);
  SimTime now() const { return cb_.now ? cb_.now() : 0; }

  TlsConfig config_;
  Callbacks cb_;
  TlsWire wire_;
  State state_;

  TlsVersion version_ = TlsVersion::kTls13;
  bool resumed_ = false;
  bool early_offered_ = false;
  bool early_accepted_ = false;
  bool saw_server_hello_ = false;
  std::string alpn_;
  std::optional<HandshakeInfo> info_;
  std::uint64_t next_ticket_id_ = 1;
};

}  // namespace doxlab::tls
