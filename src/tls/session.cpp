#include "tls/session.h"

#include <utility>

#include "util/logging.h"

namespace doxlab::tls {

TlsSession::TlsSession(TlsConfig config, Callbacks callbacks)
    : cb_(std::move(callbacks)),
      handshake_(
          std::move(config),
          Handshake::Callbacks{
              .send =
                  [this](Level level, util::Buffer message) {
                    send_handshake(level, std::move(message));
                  },
              .on_early_data_rejected =
                  [this] {
                    // Retransmit the early data after the handshake
                    // (RFC 8446 appendix D.3).
                    pending_app_data_.insert(pending_app_data_.end(),
                                             early_data_copy_.begin(),
                                             early_data_copy_.end());
                  },
              .on_complete =
                  [this] {
                    early_data_copy_.clear();
                    // Queued application data must hit the wire before the
                    // completion callback runs: data the callback sends
                    // (e.g. an HTTP/2 request) has to stay ordered after
                    // the queued connection preface.
                    flush_pending();
                    if (cb_.on_handshake_complete) {
                      cb_.on_handshake_complete(*handshake_.info());
                    }
                  },
              .on_new_ticket = cb_.on_new_ticket,
              .on_fail = [this](Alert,
                                const std::string& reason) { fail(reason); },
              .now = cb_.now,
          }) {}

void TlsSession::emit(util::Buffer bytes) {
  if (cb_.send_transport) cb_.send_transport(std::move(bytes));
}

void TlsSession::send_handshake(Level level, util::Buffer message) {
  // TLS 1.2 switches to the negotiated keys with a ChangeCipherSpec record
  // just before each side's Finished.
  const auto type = static_cast<HandshakeType>(message.data()[0]);
  if (handshake_.version() == TlsVersion::kTls12 &&
      type == HandshakeType::kFinished) {
    emit(wire_.change_cipher_spec_record());
  }
  emit(TlsWire::seal_handshake(std::move(message), level));
}

void TlsSession::fail(const std::string& reason) {
  if (failed_) return;
  failed_ = true;
  DOXLAB_DEBUG("TLS failure: " << reason);
  if (cb_.on_error) cb_.on_error(util::Error::tls_alert(reason));
}

void TlsSession::start(std::optional<SessionTicket> ticket,
                       std::vector<std::uint8_t> early_data) {
  if (handshake_.started()) {  // a server's handshake is always started
    fail("start() on server or already-started session");
    return;
  }
  if (handshake_.start(ticket, !early_data.empty())) {
    // Keep a copy: if the server rejects 0-RTT we must retransmit the data
    // after the handshake.
    early_data_copy_ = early_data;
    emit(wire_.application_data_record(early_data));
  } else {
    // Not eligible for 0-RTT: treat as regular queued data.
    pending_app_data_.insert(pending_app_data_.end(), early_data.begin(),
                             early_data.end());
  }
}

void TlsSession::send_application_data(util::Buffer data) {
  if (failed_ || data.empty()) return;
  // TLS 1.3 servers may send application data right after their Finished
  // (0.5-RTT data) without waiting for the client's Finished — that is how
  // a resolver answers a 0-RTT query within a single round trip.
  if (!handshake_.complete() && !handshake_.half_rtt_open()) {
    pending_app_data_.insert(pending_app_data_.end(), data.data(),
                             data.data() + data.size());
    return;
  }
  emit(wire_.seal_application_data(std::move(data)));
}

void TlsSession::send_close_notify() {
  if (failed_) return;
  emit(wire_.alert_record());
}

void TlsSession::flush_pending() {
  if (pending_app_data_.empty()) return;
  emit(wire_.application_data_record(pending_app_data_));
  pending_app_data_.clear();
}

void TlsSession::on_transport_data(std::span<const std::uint8_t> data) {
  if (failed_) return;
  recv_buffer_.insert(recv_buffer_.end(), data.begin(), data.end());

  while (true) {
    auto record = TlsWire::next_record(recv_buffer_);
    if (!record) return;

    switch (record->type) {
      case RecordType::kChangeCipherSpec:
        // TLS 1.2 key change marker; no state we need to track.
        continue;
      case RecordType::kAlert:
        if (cb_.on_close_notify) cb_.on_close_notify();
        continue;
      case RecordType::kApplicationData: {
        auto payload = TlsWire::app_payload(record->body);
        if (handshake_.config().is_server && !handshake_.complete()) {
          // Early data: only legal if we accepted it in this handshake.
          if (handshake_.early_data_accepted()) {
            if (cb_.on_application_data) cb_.on_application_data(payload);
          }
          // Otherwise: 0-RTT rejected/ignored (client will retransmit after
          // completion) — drop silently, as real servers do.
          continue;
        }
        if (!handshake_.complete()) {
          fail("application data before handshake completion");
          return;
        }
        if (cb_.on_application_data) cb_.on_application_data(payload);
        continue;
      }
      case RecordType::kHandshake:
        handshake_.receive(record->body);
        if (failed_) return;
        continue;
    }
  }
}

}  // namespace doxlab::tls
