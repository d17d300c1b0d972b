#include "tls/handshake.h"

#include <algorithm>
#include <utility>

namespace doxlab::tls {

Handshake::Handshake(TlsConfig config, Callbacks callbacks)
    : config_(std::move(config)),
      cb_(std::move(callbacks)),
      state_(config_.is_server ? State::kWaitClientHello : State::kIdle) {}

void Handshake::send(util::Buffer message) {
  // A message's first byte is its type, and the type fixes its level.
  const Level level = level_of(static_cast<HandshakeType>(message.data()[0]));
  if (cb_.send) cb_.send(level, std::move(message));
}

void Handshake::fail(Alert alert, const std::string& reason) {
  if (state_ == State::kFailed) return;
  state_ = State::kFailed;
  if (cb_.on_fail) cb_.on_fail(alert, reason);
}

void Handshake::finish() {
  state_ = State::kComplete;
  HandshakeInfo info;
  info.version = version_;
  info.resumed = resumed_;
  info.early_data_accepted = early_accepted_;
  info.alpn = alpn_;
  info.round_trips = (version_ == TlsVersion::kTls13) ? 1 : 2;
  if (early_accepted_) info.round_trips = 0;
  info_ = info;
  if (cb_.on_complete) cb_.on_complete();
}

bool Handshake::start(const std::optional<SessionTicket>& ticket,
                      bool early_data) {
  ClientHello ch;
  ch.max_version = config_.max_version;
  ch.sni = config_.sni;
  ch.alpn = config_.alpn;
  if (ticket && ticket->valid_at(now()) &&
      config_.max_version == TlsVersion::kTls13) {
    ch.psk = *ticket;
    // 0-RTT requires a PSK whose ticket permitted early data.
    ch.early_data =
        early_data && config_.enable_0rtt && ticket->allow_early_data;
  }
  version_ = TlsVersion::kTls13;
  resumed_ = false;
  early_offered_ = ch.early_data;
  early_accepted_ = false;
  saw_server_hello_ = false;
  alpn_.clear();
  send(wire_.client_hello(ch));
  state_ = State::kWaitServerFlight;
  return early_offered_;
}

void Handshake::receive(std::span<const std::uint8_t> message) {
  if (state_ == State::kFailed) return;
  auto msg = wire_.parse_handshake(message, /*encrypted=*/false);
  if (!msg) return fail(Alert::kDecodeError, "malformed handshake message");
  if (!config_.is_server) return client_receive(*msg);
  // A repeated ClientHello, and anything but the client's Finished after
  // it (TLS 1.2's ClientKeyExchange is its byte cost), is ignored.
  if (msg->type == HandshakeType::kClientHello &&
      state_ == State::kWaitClientHello) {
    server_receive_client_hello(*msg->client_hello);
  } else if (msg->type == HandshakeType::kFinished &&
             state_ == State::kWaitClientFinished) {
    server_receive_finished();
  }
}

void Handshake::client_receive(const HandshakeMessage& msg) {
  if (msg.type == HandshakeType::kNewSessionTicket) {
    if (cb_.on_new_ticket) cb_.on_new_ticket(msg.new_session_ticket->ticket);
    return;
  }
  // Past the server's flight only tickets matter.
  if (state_ != State::kWaitServerFlight &&
      state_ != State::kWaitServerFinished) {
    return;
  }
  switch (msg.type) {
    case HandshakeType::kServerHello:
      saw_server_hello_ = true;
      version_ = msg.server_hello->version;
      resumed_ = msg.server_hello->psk_accepted;
      break;
    case HandshakeType::kEncryptedExtensions:
      alpn_ = msg.encrypted_extensions->alpn;
      early_accepted_ =
          msg.encrypted_extensions->early_data_accepted && early_offered_;
      if (early_offered_ && !early_accepted_ && cb_.on_early_data_rejected) {
        cb_.on_early_data_rejected();
      }
      break;
    case HandshakeType::kServerHelloDone:
      // TLS 1.2 second client flight.
      if (version_ != TlsVersion::kTls12) {
        return fail(Alert::kUnexpectedMessage, "SHD in TLS 1.3 handshake");
      }
      send(wire_.client_key_exchange());
      send(wire_.finished());
      state_ = State::kWaitServerFinished;
      break;
    case HandshakeType::kFinished:
      if (version_ == TlsVersion::kTls12) {
        // The server's Finished after ours.
        if (state_ != State::kWaitServerFinished) {
          return fail(Alert::kUnexpectedMessage,
                      "unexpected TLS 1.2 Finished");
        }
      } else {
        if (!saw_server_hello_) {
          return fail(Alert::kUnexpectedMessage, "Fin before SH");
        }
        send(wire_.finished());
      }
      finish();
      break;
    default:
      break;  // Certificate, CertificateVerify, ServerKeyExchange: byte cost
  }
}

void Handshake::server_receive_client_hello(const ClientHello& ch) {
  // Version: lowest of the two maxima.
  version_ = (ch.max_version == TlsVersion::kTls13 &&
              config_.max_version == TlsVersion::kTls13)
                 ? TlsVersion::kTls13
                 : TlsVersion::kTls12;

  // ALPN: first client protocol we also support. A client that offers none
  // gets none (RFC 7301 §3.2).
  alpn_.clear();
  for (const auto& proto : ch.alpn) {
    if (std::find(config_.alpn.begin(), config_.alpn.end(), proto) !=
        config_.alpn.end()) {
      alpn_ = proto;
      break;
    }
  }
  if (!ch.alpn.empty() && alpn_.empty()) {
    return fail(Alert::kNoApplicationProtocol, "no ALPN overlap");
  }

  resumed_ = version_ == TlsVersion::kTls13 && ch.psk &&
             ch.psk->server_secret == config_.ticket_secret &&
             ch.psk->valid_at(now());
  early_accepted_ = resumed_ && ch.early_data && config_.enable_0rtt &&
                    ch.psk->allow_early_data;

  send(wire_.server_hello(ServerHello{version_, resumed_}));
  if (version_ == TlsVersion::kTls13) {
    send(wire_.encrypted_extensions(
        EncryptedExtensions{alpn_, early_accepted_}));
    if (!resumed_) {
      send(wire_.certificate(config_.certificate_chain_size));
      send(wire_.certificate_verify());
    }
    send(wire_.finished());
  } else {
    send(wire_.certificate(config_.certificate_chain_size));
    send(wire_.server_key_exchange());
    send(wire_.server_hello_done());
  }
  state_ = State::kWaitClientFinished;
}

void Handshake::server_receive_finished() {
  if (version_ == TlsVersion::kTls12) send(wire_.finished());
  finish();

  if (version_ == TlsVersion::kTls13 && config_.enable_session_tickets) {
    SessionTicket ticket;
    ticket.server_secret = config_.ticket_secret;
    ticket.ticket_id = next_ticket_id_++;
    ticket.issued_at = now();
    ticket.lifetime = kTicketLifetime;
    ticket.allow_early_data = config_.enable_0rtt;
    ticket.version = version_;
    ticket.alpn = alpn_;
    send(wire_.new_session_ticket(ticket));
  }
}

}  // namespace doxlab::tls
