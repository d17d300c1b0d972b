// The QUIC packet codec as it stood before frames carried util::Buffer
// slices: every CRYPTO and STREAM payload and every ACK range list copied
// into its own std::vector. Frozen verbatim (doc comments aside) so that
// quic_test can check the current codec against it byte for byte and field
// for field, as bench/legacy_dns.h freezes the seed DNS codec. Not used by
// any library code.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "quic/wire.h"
#include "util/bytes.h"

namespace doxlab::quic::legacy {

struct Frame {
  FrameType type = FrameType::kPadding;

  // kAck: ranges sorted descending by packet number (RFC 9000 §19.3).
  std::vector<AckRange> ack_ranges;

  // kCrypto / kStream.
  std::uint64_t offset = 0;
  std::vector<std::uint8_t> data;

  // kStream.
  std::uint64_t stream_id = 0;
  bool fin = false;

  // kNewToken.
  std::vector<std::uint8_t> token;

  // kConnectionClose.
  std::uint64_t error_code = 0;
  std::string reason;

  bool ack_eliciting() const {
    return type != FrameType::kAck && type != FrameType::kPadding &&
           type != FrameType::kConnectionClose;
  }

  static Frame ack(std::vector<AckRange> ranges) {
    Frame f;
    f.type = FrameType::kAck;
    f.ack_ranges = std::move(ranges);
    return f;
  }

  bool acks(std::uint64_t pn) const {
    for (const AckRange& r : ack_ranges) {
      if (pn >= r.first && pn <= r.last) return true;
    }
    return false;
  }
  static Frame crypto(std::uint64_t offset, std::vector<std::uint8_t> data) {
    Frame f;
    f.type = FrameType::kCrypto;
    f.offset = offset;
    f.data = std::move(data);
    return f;
  }
  static Frame stream(std::uint64_t id, std::uint64_t offset,
                      std::vector<std::uint8_t> data, bool fin) {
    Frame f;
    f.type = FrameType::kStream;
    f.stream_id = id;
    f.offset = offset;
    f.data = std::move(data);
    f.fin = fin;
    return f;
  }
  static Frame new_token(std::vector<std::uint8_t> token) {
    Frame f;
    f.type = FrameType::kNewToken;
    f.token = std::move(token);
    return f;
  }
  static Frame connection_close(std::uint64_t code, std::string reason) {
    Frame f;
    f.type = FrameType::kConnectionClose;
    f.error_code = code;
    f.reason = std::move(reason);
    return f;
  }
  static Frame ping() {
    Frame f;
    f.type = FrameType::kPing;
    return f;
  }
  static Frame handshake_done() {
    Frame f;
    f.type = FrameType::kHandshakeDone;
    return f;
  }
};

struct QuicPacket {
  PacketType type = PacketType::kInitial;
  QuicVersion version = QuicVersion::kV1;
  std::uint64_t dcid = 0;
  std::uint64_t scid = 0;
  std::uint64_t packet_number = 0;
  std::vector<std::uint8_t> token;  // INITIAL: address token; Retry: minted
  std::vector<QuicVersion> supported_versions;  // VN only
  std::vector<Frame> frames;

  bool ack_eliciting() const {
    for (const Frame& f : frames) {
      if (f.ack_eliciting()) return true;
    }
    return false;
  }
};

inline constexpr std::size_t kAeadTag = 16;
inline constexpr std::size_t kCidBytes = 8;

// First-byte encodings. Long header: form bit 0x80 + fixed 0x40 + type.
inline constexpr std::uint8_t kFirstInitial = 0xC0;
inline constexpr std::uint8_t kFirstZeroRtt = 0xD0;
inline constexpr std::uint8_t kFirstHandshake = 0xE0;
inline constexpr std::uint8_t kFirstRetry = 0xF0;
inline constexpr std::uint8_t kFirstOneRtt = 0x40;

constexpr std::size_t varint_size(std::uint64_t v) {
  if (v < (1ull << 6)) return 1;
  if (v < (1ull << 14)) return 2;
  if (v < (1ull << 30)) return 4;
  return 8;
}

inline std::size_t encoded_frames_size(const std::vector<Frame>& frames) {
  std::size_t total = 0;
  for (const Frame& f : frames) {
    switch (f.type) {
      case FrameType::kPadding:
      case FrameType::kPing:
      case FrameType::kHandshakeDone:
        total += 1;
        break;
      case FrameType::kAck: {
        total += 1;
        if (f.ack_ranges.empty()) {
          total += 4;  // four zero varints
          break;
        }
        const AckRange& top = f.ack_ranges.front();
        total += varint_size(top.last) + varint_size(0) +
                 varint_size(f.ack_ranges.size() - 1) +
                 varint_size(top.last - top.first);
        std::uint64_t prev_first = top.first;
        for (std::size_t i = 1; i < f.ack_ranges.size(); ++i) {
          const AckRange& r = f.ack_ranges[i];
          total += varint_size(prev_first - r.last - 2) +
                   varint_size(r.last - r.first);
          prev_first = r.first;
        }
        break;
      }
      case FrameType::kCrypto:
        total += 1 + varint_size(f.offset) + varint_size(f.data.size()) +
                 f.data.size();
        break;
      case FrameType::kNewToken:
        total += 1 + varint_size(f.token.size()) + f.token.size();
        break;
      case FrameType::kStream:
        total += 1 + varint_size(f.stream_id) + varint_size(f.offset) +
                 varint_size(f.data.size()) + f.data.size();
        break;
      case FrameType::kConnectionClose:
        total += 1 + varint_size(f.error_code) + varint_size(0) +
                 varint_size(f.reason.size()) + f.reason.size();
        break;
    }
  }
  return total;
}

inline void encode_frames(ByteWriter& w, const std::vector<Frame>& frames) {
  for (const Frame& f : frames) {
    switch (f.type) {
      case FrameType::kPadding:
        w.u8(0x00);
        break;
      case FrameType::kPing:
        w.u8(0x01);
        break;
      case FrameType::kAck: {
        // RFC 9000 §19.3: largest, delay, range count, first range, then
        // alternating gap/length pairs, all descending.
        w.u8(0x02);
        if (f.ack_ranges.empty()) {
          w.varint(0);
          w.varint(0);
          w.varint(0);
          w.varint(0);
          break;
        }
        const AckRange& top = f.ack_ranges.front();
        w.varint(top.last);
        w.varint(0);  // ack delay
        w.varint(f.ack_ranges.size() - 1);
        w.varint(top.last - top.first);
        std::uint64_t prev_first = top.first;
        for (std::size_t i = 1; i < f.ack_ranges.size(); ++i) {
          const AckRange& r = f.ack_ranges[i];
          // gap = number of missing packets between ranges - 1.
          w.varint(prev_first - r.last - 2);
          w.varint(r.last - r.first);
          prev_first = r.first;
        }
        break;
      }
      case FrameType::kCrypto:
        w.u8(0x06);
        w.varint(f.offset);
        w.varint(f.data.size());
        w.bytes(f.data);
        break;
      case FrameType::kNewToken:
        w.u8(0x07);
        w.varint(f.token.size());
        w.bytes(f.token);
        break;
      case FrameType::kStream: {
        // STREAM with OFF|LEN bits (+FIN).
        std::uint8_t first = 0x08 | 0x04 | 0x02 | (f.fin ? 0x01 : 0x00);
        w.u8(first);
        w.varint(f.stream_id);
        w.varint(f.offset);
        w.varint(f.data.size());
        w.bytes(f.data);
        break;
      }
      case FrameType::kConnectionClose:
        w.u8(0x1C);
        w.varint(f.error_code);
        w.varint(0);  // frame type
        w.varint(f.reason.size());
        w.bytes(f.reason);
        break;
      case FrameType::kHandshakeDone:
        w.u8(0x1E);
        break;
    }
  }
}

inline std::optional<std::vector<Frame>> decode_frames(
    std::span<const std::uint8_t> payload) {
  std::vector<Frame> out;
  ByteReader r(payload);
  while (!r.at_end()) {
    auto first = r.u8();
    if (!first) return std::nullopt;
    Frame f;
    switch (*first) {
      case 0x00:
        continue;  // padding: not materialized
      case 0x01:
        f.type = FrameType::kPing;
        break;
      case 0x02: {
        f.type = FrameType::kAck;
        auto largest = r.varint();
        auto delay = r.varint();
        auto range_count = r.varint();
        auto range0 = r.varint();
        if (!largest || !delay || !range_count || !range0) return std::nullopt;
        if (*range0 > *largest) return std::nullopt;
        f.ack_ranges.push_back(AckRange{*largest - *range0, *largest});
        std::uint64_t prev_first = *largest - *range0;
        for (std::uint64_t i = 0; i < *range_count; ++i) {
          auto gap = r.varint();
          auto len = r.varint();
          if (!gap || !len) return std::nullopt;
          if (*gap + 2 > prev_first) return std::nullopt;
          const std::uint64_t last = prev_first - *gap - 2;
          if (*len > last) return std::nullopt;
          f.ack_ranges.push_back(AckRange{last - *len, last});
          prev_first = last - *len;
        }
        break;
      }
      case 0x06: {
        f.type = FrameType::kCrypto;
        auto offset = r.varint();
        auto len = r.varint();
        if (!offset || !len) return std::nullopt;
        auto data = r.bytes(*len);
        if (!data) return std::nullopt;
        f.offset = *offset;
        f.data.assign(data->begin(), data->end());
        break;
      }
      case 0x07: {
        f.type = FrameType::kNewToken;
        auto len = r.varint();
        if (!len) return std::nullopt;
        auto data = r.bytes(*len);
        if (!data) return std::nullopt;
        f.token.assign(data->begin(), data->end());
        break;
      }
      case 0x1C: {
        f.type = FrameType::kConnectionClose;
        auto code = r.varint();
        auto frame_type = r.varint();
        auto len = r.varint();
        if (!code || !frame_type || !len) return std::nullopt;
        auto reason = r.string(*len);
        if (!reason) return std::nullopt;
        f.error_code = *code;
        f.reason = std::move(*reason);
        break;
      }
      case 0x1E:
        f.type = FrameType::kHandshakeDone;
        break;
      default: {
        if ((*first & 0xF8) == 0x08) {
          f.type = FrameType::kStream;
          f.fin = (*first & 0x01) != 0;
          auto id = r.varint();
          auto offset = r.varint();
          auto len = r.varint();
          if (!id || !offset || !len) return std::nullopt;
          auto data = r.bytes(*len);
          if (!data) return std::nullopt;
          f.stream_id = *id;
          f.offset = *offset;
          f.data.assign(data->begin(), data->end());
          break;
        }
        return std::nullopt;  // unknown frame type
      }
    }
    out.push_back(std::move(f));
  }
  return out;
}

inline void encode_packet_into(ByteWriter& w, const QuicPacket& packet) {
  switch (packet.type) {
    case PacketType::kVersionNegotiation: {
      w.u8(0x80);
      w.u32(0);  // version 0 marks VN
      w.u8(kCidBytes);
      w.u64(packet.dcid);
      w.u8(kCidBytes);
      w.u64(packet.scid);
      for (QuicVersion v : packet.supported_versions) {
        w.u32(static_cast<std::uint32_t>(v));
      }
      return;
    }
    case PacketType::kRetry: {
      w.u8(kFirstRetry);
      w.u32(static_cast<std::uint32_t>(packet.version));
      w.u8(kCidBytes);
      w.u64(packet.dcid);
      w.u8(kCidBytes);
      w.u64(packet.scid);
      w.varint(packet.token.size());
      w.bytes(packet.token);
      w.pad(16);  // retry integrity tag
      return;
    }
    case PacketType::kInitial:
    case PacketType::kZeroRtt:
    case PacketType::kHandshake: {
      const std::uint8_t first = packet.type == PacketType::kInitial
                                     ? kFirstInitial
                                     : packet.type == PacketType::kZeroRtt
                                           ? kFirstZeroRtt
                                           : kFirstHandshake;
      w.u8(first);
      w.u32(static_cast<std::uint32_t>(packet.version));
      w.u8(kCidBytes);
      w.u64(packet.dcid);
      w.u8(kCidBytes);
      w.u64(packet.scid);
      if (packet.type == PacketType::kInitial) {
        w.varint(packet.token.size());
        w.bytes(packet.token);
      }
      // Length covers packet number (2 bytes) + payload + tag.
      w.varint(2 + encoded_frames_size(packet.frames) + kAeadTag);
      w.u16(static_cast<std::uint16_t>(packet.packet_number & 0xFFFF));
      encode_frames(w, packet.frames);
      w.pad(kAeadTag);
      return;
    }
    case PacketType::kOneRtt: {
      // Model simplification: short-header packets carry an explicit length
      // varint so coalesced parsing works without header protection.
      w.u8(kFirstOneRtt);
      w.u64(packet.dcid);
      w.varint(2 + encoded_frames_size(packet.frames) + kAeadTag);
      w.u16(static_cast<std::uint16_t>(packet.packet_number & 0xFFFF));
      encode_frames(w, packet.frames);
      w.pad(kAeadTag);
      return;
    }
  }
}

inline std::size_t encoded_packet_size(const QuicPacket& packet) {
  switch (packet.type) {
    case PacketType::kVersionNegotiation:
      return 1 + 4 + (1 + 8) * 2 + 4 * packet.supported_versions.size();
    case PacketType::kRetry:
      return 1 + 4 + (1 + 8) * 2 + varint_size(packet.token.size()) +
             packet.token.size() + 16;
    case PacketType::kInitial:
    case PacketType::kZeroRtt:
    case PacketType::kHandshake: {
      const std::size_t body = 2 + encoded_frames_size(packet.frames) +
                               kAeadTag;
      std::size_t size = 1 + 4 + (1 + 8) * 2;
      if (packet.type == PacketType::kInitial) {
        size += varint_size(packet.token.size()) + packet.token.size();
      }
      return size + varint_size(body) + body;
    }
    case PacketType::kOneRtt: {
      const std::size_t body = 2 + encoded_frames_size(packet.frames) +
                               kAeadTag;
      return 1 + 8 + varint_size(body) + body;
    }
  }
  return 0;
}

inline std::vector<std::uint8_t> encode_packet(const QuicPacket& packet) {
  ByteWriter w(encoded_packet_size(packet));
  encode_packet_into(w, packet);
  return w.take();
}

inline std::optional<std::vector<QuicPacket>> decode_datagram(
    std::span<const std::uint8_t> datagram) {
  std::vector<QuicPacket> out;
  ByteReader r(datagram);
  while (!r.at_end()) {
    auto first = r.u8();
    if (!first) return std::nullopt;
    if (*first == 0x00) continue;  // datagram padding

    QuicPacket p;
    if ((*first & 0x80) != 0) {
      // Long header.
      auto version = r.u32();
      auto dcid_len = r.u8();
      if (!version || !dcid_len || *dcid_len != kCidBytes) return std::nullopt;
      auto dcid = r.u64();
      auto scid_len = r.u8();
      if (!dcid || !scid_len || *scid_len != kCidBytes) return std::nullopt;
      auto scid = r.u64();
      if (!scid) return std::nullopt;
      p.dcid = *dcid;
      p.scid = *scid;

      if (*version == 0) {
        p.type = PacketType::kVersionNegotiation;
        while (r.remaining() >= 4) {
          auto v = r.u32();
          p.supported_versions.push_back(static_cast<QuicVersion>(*v));
        }
        out.push_back(std::move(p));
        return out;  // VN is never coalesced
      }
      p.version = static_cast<QuicVersion>(*version);

      const std::uint8_t type_bits = *first & 0xF0;
      if (type_bits == kFirstRetry) {
        p.type = PacketType::kRetry;
        auto token_len = r.varint();
        if (!token_len) return std::nullopt;
        auto token = r.bytes(*token_len);
        if (!token) return std::nullopt;
        p.token.assign(token->begin(), token->end());
        if (!r.bytes(16)) return std::nullopt;  // integrity tag
        out.push_back(std::move(p));
        continue;
      }

      p.type = type_bits == kFirstInitial
                   ? PacketType::kInitial
                   : type_bits == kFirstZeroRtt ? PacketType::kZeroRtt
                                                : PacketType::kHandshake;
      if (p.type == PacketType::kInitial) {
        auto token_len = r.varint();
        if (!token_len) return std::nullopt;
        auto token = r.bytes(*token_len);
        if (!token) return std::nullopt;
        p.token.assign(token->begin(), token->end());
      }
      auto length = r.varint();
      if (!length || *length < 2 + kAeadTag) return std::nullopt;
      auto pn = r.u16();
      if (!pn) return std::nullopt;
      p.packet_number = *pn;
      auto payload = r.bytes(*length - 2 - kAeadTag);
      if (!payload) return std::nullopt;
      if (!r.bytes(kAeadTag)) return std::nullopt;
      auto frames = decode_frames(*payload);
      if (!frames) return std::nullopt;
      p.frames = std::move(*frames);
      out.push_back(std::move(p));
    } else {
      // Short header (1-RTT).
      p.type = PacketType::kOneRtt;
      auto dcid = r.u64();
      auto length = r.varint();
      if (!dcid || !length || *length < 2 + kAeadTag) return std::nullopt;
      p.dcid = *dcid;
      auto pn = r.u16();
      if (!pn) return std::nullopt;
      p.packet_number = *pn;
      auto payload = r.bytes(*length - 2 - kAeadTag);
      if (!payload) return std::nullopt;
      if (!r.bytes(kAeadTag)) return std::nullopt;
      auto frames = decode_frames(*payload);
      if (!frames) return std::nullopt;
      p.frames = std::move(*frames);
      out.push_back(std::move(p));
    }
  }
  return out;
}

}  // namespace doxlab::quic::legacy
