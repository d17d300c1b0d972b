#include "tls/wire.h"

#include <algorithm>
#include <cstring>

namespace doxlab::tls {

namespace {

void write_u24(ByteWriter& w, std::size_t v) {
  w.u8(static_cast<std::uint8_t>((v >> 16) & 0xFF));
  w.u16(static_cast<std::uint16_t>(v & 0xFFFF));
}

std::optional<std::size_t> read_u24(ByteReader& r) {
  auto hi = r.u8();
  auto lo = r.u16();
  if (!hi || !lo) return std::nullopt;
  return (static_cast<std::size_t>(*hi) << 16) | *lo;
}

void write_string(ByteWriter& w, const std::string& s) {
  w.u16(static_cast<std::uint16_t>(s.size()));
  w.bytes(s);
}

std::optional<std::string> read_string(ByteReader& r) {
  auto len = r.u16();
  if (!len) return std::nullopt;
  return r.string(*len);
}

/// Exact encoded size of write_string's output.
std::size_t string_size(const std::string& s) { return 2 + s.size(); }

/// Exact encoded size of write_ticket's output.
std::size_t ticket_size(const SessionTicket& t) {
  return 8 * 4 + 1 + 2 + string_size(t.alpn);
}

void write_ticket(ByteWriter& w, const SessionTicket& t) {
  w.u64(t.server_secret);
  w.u64(t.ticket_id);
  w.u64(static_cast<std::uint64_t>(t.issued_at));
  w.u64(static_cast<std::uint64_t>(t.lifetime));
  w.u8(t.allow_early_data ? 1 : 0);
  w.u16(static_cast<std::uint16_t>(t.version));
  write_string(w, t.alpn);
}

std::optional<SessionTicket> read_ticket(ByteReader& r) {
  SessionTicket t;
  auto secret = r.u64();
  auto id = r.u64();
  auto issued = r.u64();
  auto lifetime = r.u64();
  auto early = r.u8();
  auto version = r.u16();
  if (!secret || !id || !issued || !lifetime || !early || !version) {
    return std::nullopt;
  }
  auto alpn = read_string(r);
  if (!alpn) return std::nullopt;
  t.server_secret = *secret;
  t.ticket_id = *id;
  t.issued_at = static_cast<SimTime>(*issued);
  t.lifetime = static_cast<SimTime>(*lifetime);
  t.allow_early_data = *early != 0;
  t.version = static_cast<TlsVersion>(*version);
  t.alpn = std::move(*alpn);
  return t;
}

}  // namespace

util::Buffer TlsWire::message(HandshakeType type,
                              std::span<const std::uint8_t> semantic,
                              std::size_t declared_body) const {
  // One pooled slab holds the message plus the room seal_handshake needs:
  // the record header in front, the AEAD tag behind.
  const std::size_t body = std::max(declared_body, semantic.size());
  ByteWriter w = ByteWriter::pooled(4 + body + kAeadTagBytes,
                                    /*headroom=*/kRecordHeaderBytes);
  w.u8(static_cast<std::uint8_t>(type));
  write_u24(w, body);
  w.bytes(semantic);
  w.pad(body - semantic.size());
  return w.take_buffer();
}

util::Buffer TlsWire::seal_handshake(util::Buffer message, Level level) {
  if (level != Level::kInitial) {
    std::memset(message.append(kAeadTagBytes), 0, kAeadTagBytes);
  }
  const std::size_t record_len = message.size();
  std::uint8_t* header = message.prepend(kRecordHeaderBytes);
  header[0] = static_cast<std::uint8_t>(RecordType::kHandshake);
  header[1] = 0x03;  // legacy record version
  header[2] = 0x03;
  header[3] = static_cast<std::uint8_t>(record_len >> 8);
  header[4] = static_cast<std::uint8_t>(record_len & 0xFF);
  return message;
}

util::Buffer TlsWire::client_hello(const ClientHello& ch) const {
  std::size_t semantic_size = 2 + string_size(ch.sni) + 1 + 1 + 1;
  for (const auto& proto : ch.alpn) semantic_size += string_size(proto);
  if (ch.psk) semantic_size += ticket_size(*ch.psk);
  ByteWriter s(semantic_size);
  s.u16(static_cast<std::uint16_t>(ch.max_version));
  write_string(s, ch.sni);
  s.u8(static_cast<std::uint8_t>(ch.alpn.size()));
  for (const auto& proto : ch.alpn) write_string(s, proto);
  s.u8(ch.psk.has_value() ? 1 : 0);
  if (ch.psk) write_ticket(s, *ch.psk);
  s.u8(ch.early_data ? 1 : 0);

  std::size_t declared = sizes_.client_hello_base + ch.sni.size();
  for (const auto& proto : ch.alpn) declared += proto.size() + 2;
  if (ch.psk) declared += sizes_.psk_extension;
  if (ch.early_data) declared += sizes_.early_data_extension;
  return message(HandshakeType::kClientHello, s.data(), declared);
}

util::Buffer TlsWire::server_hello(const ServerHello& sh) const {
  ByteWriter s(3);
  s.u16(static_cast<std::uint16_t>(sh.version));
  s.u8(sh.psk_accepted ? 1 : 0);
  return message(HandshakeType::kServerHello, s.data(), sizes_.server_hello);
}

util::Buffer TlsWire::encrypted_extensions(
    const EncryptedExtensions& ee) const {
  ByteWriter s(string_size(ee.alpn) + 1);
  write_string(s, ee.alpn);
  s.u8(ee.early_data_accepted ? 1 : 0);
  return message(HandshakeType::kEncryptedExtensions, s.data(),
                 sizes_.encrypted_extensions + ee.alpn.size());
}

util::Buffer TlsWire::certificate(std::size_t chain_size) const {
  return message(HandshakeType::kCertificate, {}, chain_size);
}

util::Buffer TlsWire::certificate_verify() const {
  return message(HandshakeType::kCertificateVerify, {},
                 sizes_.certificate_verify);
}

util::Buffer TlsWire::finished() const {
  return message(HandshakeType::kFinished, {}, sizes_.finished);
}

util::Buffer TlsWire::new_session_ticket(const SessionTicket& ticket) const {
  ByteWriter s(ticket_size(ticket));
  write_ticket(s, ticket);
  return message(HandshakeType::kNewSessionTicket, s.data(),
                 sizes_.new_session_ticket);
}

util::Buffer TlsWire::server_hello_done() const {
  return message(HandshakeType::kServerHelloDone, {}, 4);
}

util::Buffer TlsWire::server_key_exchange() const {
  return message(HandshakeType::kServerKeyExchange, {},
                 sizes_.server_key_exchange);
}

util::Buffer TlsWire::client_key_exchange() const {
  return message(HandshakeType::kClientKeyExchange, {},
                 sizes_.client_key_exchange);
}

util::Buffer TlsWire::change_cipher_spec_record() const {
  ByteWriter w = ByteWriter::pooled(6, /*headroom=*/0);
  w.u8(static_cast<std::uint8_t>(RecordType::kChangeCipherSpec));
  w.u16(0x0303);
  w.u16(1);
  w.u8(1);
  return w.take_buffer();
}

util::Buffer TlsWire::application_data_record(
    std::span<const std::uint8_t> payload) const {
  ByteWriter w = ByteWriter::pooled(
      kRecordHeaderBytes + payload.size() + kAeadTagBytes, /*headroom=*/0);
  w.u8(static_cast<std::uint8_t>(RecordType::kApplicationData));
  w.u16(0x0303);
  w.u16(static_cast<std::uint16_t>(payload.size() + kAeadTagBytes));
  w.bytes(payload);
  w.pad(kAeadTagBytes);
  return w.take_buffer();
}

util::Buffer TlsWire::seal_application_data(util::Buffer payload) const {
  const std::size_t record_len = payload.size() + kAeadTagBytes;
  std::uint8_t* tag = payload.append(kAeadTagBytes);
  std::memset(tag, 0, kAeadTagBytes);
  std::uint8_t* header = payload.prepend(kRecordHeaderBytes);
  header[0] = static_cast<std::uint8_t>(RecordType::kApplicationData);
  header[1] = 0x03;
  header[2] = 0x03;
  header[3] = static_cast<std::uint8_t>(record_len >> 8);
  header[4] = static_cast<std::uint8_t>(record_len & 0xFF);
  return payload;
}

util::Buffer TlsWire::alert_record() const {
  ByteWriter w =
      ByteWriter::pooled(kRecordHeaderBytes + 2 + kAeadTagBytes,
                         /*headroom=*/0);
  w.u8(static_cast<std::uint8_t>(RecordType::kAlert));
  w.u16(0x0303);
  w.u16(2 + kAeadTagBytes);
  w.u8(1);  // warning
  w.u8(0);  // close_notify
  w.pad(kAeadTagBytes);
  return w.take_buffer();
}

std::optional<TlsWire::Record> TlsWire::next_record(
    std::vector<std::uint8_t>& buffer) {
  if (buffer.size() < kRecordHeaderBytes) return std::nullopt;
  ByteReader r(buffer);
  auto type = r.u8();
  r.u16();  // legacy version
  auto len = r.u16();
  if (!type || !len) return std::nullopt;
  if (buffer.size() < kRecordHeaderBytes + *len) return std::nullopt;
  Record record;
  record.type = static_cast<RecordType>(*type);
  record.body.assign(buffer.begin() + kRecordHeaderBytes,
                     buffer.begin() + kRecordHeaderBytes + *len);
  buffer.erase(buffer.begin(),
               buffer.begin() + kRecordHeaderBytes + *len);
  return record;
}

std::optional<HandshakeMessage> TlsWire::parse_handshake(
    std::span<const std::uint8_t> body, bool encrypted) const {
  if (encrypted) {
    if (body.size() < kAeadTagBytes) return std::nullopt;
    body = body.subspan(0, body.size() - kAeadTagBytes);
  }
  ByteReader r(body);
  auto type = r.u8();
  auto len = read_u24(r);
  if (!type || !len) return std::nullopt;
  HandshakeMessage msg;
  msg.type = static_cast<HandshakeType>(*type);
  msg.body_size = *len;

  switch (msg.type) {
    case HandshakeType::kClientHello: {
      ClientHello ch;
      auto version = r.u16();
      auto sni = read_string(r);
      auto alpn_count = r.u8();
      if (!version || !sni || !alpn_count) return std::nullopt;
      ch.max_version = static_cast<TlsVersion>(*version);
      ch.sni = std::move(*sni);
      for (int i = 0; i < *alpn_count; ++i) {
        auto proto = read_string(r);
        if (!proto) return std::nullopt;
        ch.alpn.push_back(std::move(*proto));
      }
      auto has_psk = r.u8();
      if (!has_psk) return std::nullopt;
      if (*has_psk) {
        auto ticket = read_ticket(r);
        if (!ticket) return std::nullopt;
        ch.psk = std::move(*ticket);
      }
      auto early = r.u8();
      if (!early) return std::nullopt;
      ch.early_data = *early != 0;
      msg.client_hello = std::move(ch);
      break;
    }
    case HandshakeType::kServerHello: {
      ServerHello sh;
      auto version = r.u16();
      auto psk = r.u8();
      if (!version || !psk) return std::nullopt;
      sh.version = static_cast<TlsVersion>(*version);
      sh.psk_accepted = *psk != 0;
      msg.server_hello = sh;
      break;
    }
    case HandshakeType::kEncryptedExtensions: {
      EncryptedExtensions ee;
      auto alpn = read_string(r);
      auto early = r.u8();
      if (!alpn || !early) return std::nullopt;
      ee.alpn = std::move(*alpn);
      ee.early_data_accepted = *early != 0;
      msg.encrypted_extensions = std::move(ee);
      break;
    }
    case HandshakeType::kNewSessionTicket: {
      auto ticket = read_ticket(r);
      if (!ticket) return std::nullopt;
      msg.new_session_ticket = NewSessionTicketMsg{std::move(*ticket)};
      break;
    }
    case HandshakeType::kCertificate:
      msg.certificate_size = *len;
      break;
    default:
      break;  // size-only messages (Finished, CV, SHD, KEX)
  }
  return msg;
}

std::span<const std::uint8_t> TlsWire::app_payload(
    std::span<const std::uint8_t> body) {
  if (body.size() < kAeadTagBytes) return {};
  return body.subspan(0, body.size() - kAeadTagBytes);
}

}  // namespace doxlab::tls
