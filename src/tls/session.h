// The TLS record layer over an abstract reliable stream.
//
// The session is transport-agnostic: it emits bytes through a callback
// (wired to a TcpConnection by DoT/DoH) and is fed incoming bytes through
// `on_transport_data`. The negotiation is tls::Handshake's; the session
// seals its messages into records (with TLS 1.2's ChangeCipherSpec before
// each 1.2 Finished) and carries the application data: it queues client
// data until the handshake completes or sends it as 0-RTT early data, and
// lets a TLS 1.3 server answer at 0.5 RTT.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tls/handshake.h"
#include "tls/ticket.h"
#include "tls/wire.h"
#include "util/error.h"

namespace doxlab::tls {

class TlsSession {
 public:
  struct Callbacks {
    /// Record bytes to hand to the transport (never empty). The buffer is
    /// pooled and uniquely owned — the transport may ship it as-is.
    std::function<void(util::Buffer)> send_transport = nullptr;
    /// Handshake completed (client: Fin sent; server: client Fin received).
    std::function<void(const HandshakeInfo&)> on_handshake_complete =
        nullptr;
    /// Decrypted application payload.
    std::function<void(std::span<const std::uint8_t>)> on_application_data =
        nullptr;
    /// Client only: a NewSessionTicket arrived.
    std::function<void(const SessionTicket&)> on_new_ticket = nullptr;
    /// Fatal alert / protocol error (always kTlsAlert); the session is dead
    /// afterwards.
    std::function<void(const util::Error&)> on_error = nullptr;
    /// close_notify received.
    std::function<void()> on_close_notify = nullptr;
    /// Clock for ticket validity (wired to the simulator).
    std::function<SimTime()> now = nullptr;
  };

  TlsSession(TlsConfig config, Callbacks callbacks);
  // The handshake's callbacks hold this session's address.
  TlsSession(const TlsSession&) = delete;
  TlsSession& operator=(const TlsSession&) = delete;

  /// Client: begins the handshake, optionally resuming with `ticket` and
  /// sending `early_data` as 0-RTT (only if the ticket permits and config
  /// enables it; otherwise the data is queued for after the handshake).
  void start(std::optional<SessionTicket> ticket = std::nullopt,
             std::vector<std::uint8_t> early_data = {});

  /// Feeds raw transport bytes into the record layer.
  void on_transport_data(std::span<const std::uint8_t> data);

  /// Sends (or queues, pre-handshake) application data. The record header
  /// and AEAD tag are sealed into the buffer in place, so callers that
  /// encode with kRecordHeaderBytes of headroom pay zero copies.
  void send_application_data(util::Buffer data);
  void send_application_data(std::vector<std::uint8_t> data) {
    send_application_data(
        util::Buffer::copy_of(data, /*headroom=*/kRecordHeaderBytes));
  }

  /// Sends close_notify.
  void send_close_notify();

  bool handshake_complete() const { return handshake_.complete(); }
  bool failed() const { return failed_; }
  const std::optional<HandshakeInfo>& info() const {
    return handshake_.info();
  }

  /// Client: true when start() actually put early data on the wire.
  bool sent_early_data() const { return handshake_.early_data_offered(); }

 private:
  void send_handshake(Level level, util::Buffer message);
  void flush_pending();
  void fail(const std::string& reason);
  void emit(util::Buffer bytes);

  Callbacks cb_;
  TlsWire wire_;
  Handshake handshake_;

  std::vector<std::uint8_t> recv_buffer_;
  std::vector<std::uint8_t> pending_app_data_;
  std::vector<std::uint8_t> early_data_copy_;
  bool failed_ = false;
};

}  // namespace doxlab::tls
