// TLS record and handshake-message wire model.
//
// We model TLS at message granularity: each handshake message is encoded
// with its real type byte, a 24-bit length, its *semantic* fields (versions,
// ALPN, SNI, PSK ticket, flags), and padding up to a calibrated size that
// matches what real stacks emit (key shares, extension lists, signatures and
// certificates are represented by their byte cost, not their cryptography).
// Records add the 5-byte header and, once encryption is active, a 16-byte
// AEAD tag — so the per-direction byte counts the paper's Table 1 reports
// fall out of actually encoding these messages.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "tls/ticket.h"
#include "util/bytes.h"

namespace doxlab::tls {

/// Record content types (RFC 8446 §5.1).
enum class RecordType : std::uint8_t {
  kChangeCipherSpec = 20,
  kAlert = 21,
  kHandshake = 22,
  kApplicationData = 23,
};

/// Handshake message types (RFC 8446 §4).
enum class HandshakeType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kNewSessionTicket = 4,
  kEncryptedExtensions = 8,
  kCertificate = 11,
  kServerKeyExchange = 12,   // TLS 1.2
  kCertificateVerify = 15,
  kServerHelloDone = 14,     // TLS 1.2
  kClientKeyExchange = 16,   // TLS 1.2
  kFinished = 20,
};

/// Calibrated on-the-wire handshake message body sizes (bytes, excluding the
/// 4-byte message header). Chosen to land the per-direction handshake byte
/// counts near the medians measured in the paper (Table 1).
struct WireSizes {
  std::size_t client_hello_base = 140;      // versions, random, ciphers, key share
  std::size_t psk_extension = 170;          // ticket + binder
  std::size_t early_data_extension = 8;
  std::size_t server_hello = 76;
  std::size_t encrypted_extensions = 10;
  std::size_t certificate_verify = 264;
  std::size_t finished = 36;
  std::size_t new_session_ticket = 208;
  std::size_t server_key_exchange = 300;    // TLS 1.2
  std::size_t client_key_exchange = 70;     // TLS 1.2
  std::size_t record_header = 5;
  std::size_t aead_tag = 16;
};

inline constexpr std::size_t kRecordHeaderBytes = 5;
inline constexpr std::size_t kAeadTagBytes = 16;

/// Semantic content of a ClientHello.
struct ClientHello {
  TlsVersion max_version = TlsVersion::kTls13;
  std::string sni;
  std::vector<std::string> alpn;
  std::optional<SessionTicket> psk;  // offered resumption ticket
  bool early_data = false;
};

/// Semantic content of a ServerHello.
struct ServerHello {
  TlsVersion version = TlsVersion::kTls13;
  bool psk_accepted = false;
};

/// Semantic content of EncryptedExtensions.
struct EncryptedExtensions {
  std::string alpn;
  bool early_data_accepted = false;
};

/// Semantic content of NewSessionTicket.
struct NewSessionTicketMsg {
  SessionTicket ticket;
};

/// A parsed handshake message: type + semantic payload (variant-free —
/// exactly one of the optionals is set, matching `type`).
struct HandshakeMessage {
  HandshakeType type = HandshakeType::kClientHello;
  std::size_t body_size = 0;  // declared size incl. padding
  std::optional<ClientHello> client_hello;
  std::optional<ServerHello> server_hello;
  std::optional<EncryptedExtensions> encrypted_extensions;
  std::optional<NewSessionTicketMsg> new_session_ticket;
  std::size_t certificate_size = 0;  // kCertificate only
};

/// The encryption level a handshake message travels at: the QUIC
/// packet-number space that carries it (RFC 9001 §4), and over TCP
/// whether its record is sealed with an AEAD tag.
enum class Level : std::uint8_t {
  kInitial,      // in the clear
  kHandshake,    // handshake keys
  kApplication,  // application (1-RTT) keys
};

/// The level of each message type. ClientHello, ServerHello and TLS 1.2's
/// key-exchange messages travel in the clear; EncryptedExtensions,
/// Certificate, CertificateVerify and Finished under handshake keys; the
/// NewSessionTicket under application keys. TLS 1.2 has no handshake keys:
/// the model seals its Finished, and its Certificate, as 1.3 does.
constexpr Level level_of(HandshakeType type) {
  switch (type) {
    case HandshakeType::kEncryptedExtensions:
    case HandshakeType::kCertificate:
    case HandshakeType::kCertificateVerify:
    case HandshakeType::kFinished:
      return Level::kHandshake;
    case HandshakeType::kNewSessionTicket:
      return Level::kApplication;
    case HandshakeType::kClientHello:
    case HandshakeType::kServerHello:
    case HandshakeType::kServerKeyExchange:
    case HandshakeType::kServerHelloDone:
    case HandshakeType::kClientKeyExchange:
      break;
  }
  return Level::kInitial;
}

/// Encodes handshake messages (semantic fields + padding to the calibrated
/// size) and the records that carry them over TCP.
class TlsWire {
 public:
  explicit TlsWire(WireSizes sizes = {}) : sizes_(sizes) {}

  // --- handshake messages, [type u8][length u24][body], each built once
  //     into a pooled buffer with the room to seal it into a record in
  //     place; QUIC carries the same bytes in CRYPTO frames ---
  util::Buffer client_hello(const ClientHello& ch) const;
  util::Buffer server_hello(const ServerHello& sh) const;
  util::Buffer encrypted_extensions(const EncryptedExtensions& ee) const;
  util::Buffer certificate(std::size_t chain_size) const;
  util::Buffer certificate_verify() const;
  util::Buffer finished() const;
  util::Buffer new_session_ticket(const SessionTicket& ticket) const;
  util::Buffer server_hello_done() const;
  util::Buffer server_key_exchange() const;
  util::Buffer client_key_exchange() const;

  /// Seals a handshake message into a record in place: the 5-byte header
  /// goes into its headroom and, past the Initial level, the AEAD tag into
  /// its tailroom.
  static util::Buffer seal_handshake(util::Buffer message, Level level);

  util::Buffer client_hello_record(const ClientHello& ch) const {
    return seal_handshake(client_hello(ch), Level::kInitial);
  }
  util::Buffer finished_record() const {
    return seal_handshake(finished(), Level::kHandshake);
  }
  util::Buffer new_session_ticket_record(const SessionTicket& ticket) const {
    return seal_handshake(new_session_ticket(ticket), Level::kApplication);
  }
  util::Buffer change_cipher_spec_record() const;

  /// Application data record (encrypted: header + payload + tag).
  util::Buffer application_data_record(
      std::span<const std::uint8_t> payload) const;

  /// Seals `payload` as an application-data record *in place*: the 5-byte
  /// record header goes into the buffer's headroom and the AEAD tag into
  /// its tailroom — zero copies when the payload was encoded with
  /// kRecordHeaderBytes of headroom. Byte-identical to
  /// application_data_record(payload).
  util::Buffer seal_application_data(util::Buffer payload) const;

  /// close_notify alert.
  util::Buffer alert_record() const;

  const WireSizes& sizes() const { return sizes_; }

  // --- decoding ---
  /// A record pulled off the byte stream.
  struct Record {
    RecordType type;
    std::vector<std::uint8_t> body;  // excludes header, includes any tag
  };

  /// Extracts the next complete record from `buffer`, erasing consumed
  /// bytes; nullopt if a full record is not yet buffered.
  static std::optional<Record> next_record(std::vector<std::uint8_t>& buffer);

  /// Parses a handshake message; `encrypted` first strips a record body's
  /// trailing AEAD tag. Bytes past the semantic fields are never read, so a
  /// sealed record's body also parses as it is.
  std::optional<HandshakeMessage> parse_handshake(
      std::span<const std::uint8_t> body, bool encrypted) const;

  /// Strips the AEAD tag from an application-data record body.
  static std::span<const std::uint8_t> app_payload(
      std::span<const std::uint8_t> body);

 private:
  util::Buffer message(HandshakeType type,
                       std::span<const std::uint8_t> semantic,
                       std::size_t declared_body) const;

  WireSizes sizes_;
};

}  // namespace doxlab::tls
