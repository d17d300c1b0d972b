// QUIC packet and frame codec.
//
// Packets are encoded byte-faithfully enough for the study's size accounting:
// long headers carry version, 8-byte connection IDs, the INITIAL token and a
// varint length; every protected packet pays a 16-byte AEAD tag; datagrams
// that contain an ack-eliciting INITIAL are padded to 1200 bytes. One
// deliberate simplification is documented inline: short-header (1-RTT)
// packets also carry an explicit length varint so that coalesced parsing
// needs no header protection logic.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "quic/range_set.h"
#include "quic/types.h"
#include "util/buffer.h"
#include "util/bytes.h"

namespace doxlab::quic {

enum class PacketType : std::uint8_t {
  kInitial,
  kZeroRtt,
  kHandshake,
  kRetry,
  kVersionNegotiation,
  kOneRtt,
};

/// Which packet-number space a packet type belongs to.
PnSpace space_of(PacketType type);

enum class FrameType : std::uint8_t {
  kPadding = 0x00,
  kPing = 0x01,
  kAck = 0x02,
  kCrypto = 0x06,
  kNewToken = 0x07,
  kStream = 0x08,  // bits 0x08..0x0F; we always set LEN|OFF and FIN as needed
  kConnectionClose = 0x1C,
  kHandshakeDone = 0x1E,
};

/// A decoded/encodable frame. Exactly the fields relevant to `type` are
/// meaningful; the rest stay default.
///
/// CRYPTO and STREAM payloads are `util::Buffer` slices: a decoded frame
/// shares the received datagram's slab, a sent frame shares the caller's
/// buffer, and a split or a retransmittable copy costs a refcount, never a
/// byte copy. ACK ranges are a view: a decoded frame's point into its
/// DecodedDatagram, a sent frame's into storage its sender keeps until the
/// datagram is encoded.
struct Frame {
  FrameType type = FrameType::kPadding;

  // kAck: ranges sorted descending by packet number (RFC 9000 §19.3).
  std::span<const AckRange> ack_ranges;

  // kCrypto / kStream.
  std::uint64_t offset = 0;
  util::Buffer data;

  // kStream.
  std::uint64_t stream_id = 0;
  bool fin = false;

  // kNewToken.
  std::vector<std::uint8_t> token;

  // kConnectionClose.
  std::uint64_t error_code = 0;
  std::string reason;

  /// True for frames that demand acknowledgement (everything but ACK,
  /// PADDING and CONNECTION_CLOSE — RFC 9002 §2).
  bool ack_eliciting() const {
    return type != FrameType::kAck && type != FrameType::kPadding &&
           type != FrameType::kConnectionClose;
  }

  /// `ranges` must outlive the frame's encoding.
  static Frame ack(std::span<const AckRange> ranges) {
    Frame f;
    f.type = FrameType::kAck;
    f.ack_ranges = ranges;
    return f;
  }

  /// True if `pn` falls inside any acknowledged range.
  bool acks(std::uint64_t pn) const {
    for (const AckRange& r : ack_ranges) {
      if (pn >= r.first && pn <= r.last) return true;
    }
    return false;
  }
  static Frame crypto(std::uint64_t offset, util::Buffer data) {
    Frame f;
    f.type = FrameType::kCrypto;
    f.offset = offset;
    f.data = std::move(data);
    return f;
  }
  static Frame stream(std::uint64_t id, std::uint64_t offset,
                      util::Buffer data, bool fin) {
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

/// A packet before encoding / after decoding.
struct QuicPacket {
  PacketType type = PacketType::kInitial;
  QuicVersion version = QuicVersion::kV1;
  std::uint64_t dcid = 0;
  std::uint64_t scid = 0;
  /// The full number when sending; as decoded, the 2 bytes on the wire
  /// (expand_packet_number recovers the full number).
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

/// Packets whose storage outlives them: clear() keeps every packet's
/// vectors, so a list filled datagram after datagram (a connection's
/// decode target and its flush scratch) stops allocating once it has grown
/// to the largest datagram seen.
class PacketList {
 public:
  /// Appends a default packet, reusing a cleared one's storage.
  QuicPacket& add();
  /// Drops the last packet, keeping its storage.
  void drop_last();
  /// Empties the list; frame payloads are released, capacity is kept.
  void clear();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  QuicPacket& operator[](std::size_t i) { return packets_[i]; }
  std::span<QuicPacket> view() { return {packets_.data(), size_}; }
  QuicPacket* begin() { return packets_.data(); }
  QuicPacket* end() { return packets_.data() + size_; }

 private:
  std::vector<QuicPacket> packets_;
  std::size_t size_ = 0;
};

/// The packets of one received datagram, as decode_datagram leaves them.
/// Decoding into the same object again reuses its storage. The frames'
/// payloads share the datagram's slab, so they stay valid after the caller
/// drops the datagram; each ACK frame's ranges sit in a block of
/// `ack_ranges` (one per ACK frame of the datagram) and stay valid until
/// the next decode into this object.
struct DecodedDatagram {
  PacketList packets;
  std::vector<std::vector<AckRange>> ack_ranges;
};

/// Encodes one packet (including its 16-byte tag for protected types) into
/// an exactly-sized pooled buffer, unpadded.
util::Buffer encode_packet(const QuicPacket& packet);

/// Exact encoded size of `packet`, computed analytically without encoding.
/// Matches `encode_packet(packet).size()` byte for byte; used by the packet
/// scheduler to size datagrams without a throwaway encode per packet.
std::size_t encoded_packet_size(const QuicPacket& packet);

/// Encodes a datagram from coalesced packets, applying RFC 9000 §14.1
/// padding to 1200 bytes: clients pad every INITIAL-carrying datagram,
/// servers pad those carrying an ack-eliciting INITIAL. All coalesced
/// packets are written into one exactly-sized pooled buffer.
util::Buffer encode_datagram(std::span<const QuicPacket> packets,
                             bool sender_is_client);

/// Decodes all packets coalesced in `datagram` into `out`, replacing what
/// it held; false on malformed input. Trailing zero padding is skipped.
bool decode_datagram(const util::Buffer& datagram, DecodedDatagram& out);

/// The full packet number that the 2-byte `truncated` one on the wire
/// stands for: the candidate nearest `expected`, which is the largest
/// number received in the space plus one, or 0 before any (RFC 9000 §17.1
/// and Appendix A.3).
std::uint64_t expand_packet_number(std::uint64_t expected,
                                   std::uint64_t truncated);

}  // namespace doxlab::quic
