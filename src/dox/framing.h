// DNS message framing shared by the transport clients and the resolver:
// the RFC 1035 §4.2.2 length prefix (DoTCP, DoT, DoQ since draft -i03), its
// bounded stream reader, the DoQ stream payload, and the RFC 8484 DoH
// header lists (HTTP/2 and HTTP/3 alike).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "h2/hpack.h"
#include "util/buffer.h"

namespace doxlab::dox {

/// Adds a 2-byte length prefix (DNS over stream transports, RFC 1035 §4.2.2).
std::vector<std::uint8_t> length_prefixed(const std::vector<std::uint8_t>& m);

/// In-place variant: the prefix goes into `m`'s headroom (encode messages
/// with at least 2 bytes of headroom to stay copy-free).
util::Buffer length_prefixed(util::Buffer m);

/// Headroom for a DoT message buffer: 2-byte length prefix + 5-byte TLS
/// record header, both prepended in place on the way down the stack.
inline constexpr std::size_t kDotHeadroom = 2 + 5;

/// Headroom for a DoH body buffer: 9-byte H2 frame header + 5-byte TLS
/// record header.
inline constexpr std::size_t kDohHeadroom = 9 + 5;

/// Incremental parser for length-prefixed DNS messages on a byte stream.
/// Bounded: the reassembly buffer never exceeds one maximum message
/// (65535 + 2 prefix bytes), and a garbage prefix — a length too short to
/// hold a DNS header — poisons the reader instead of growing the buffer.
/// Callers check failed() after feed() and drop the stream.
class StreamMessageReader {
 public:
  /// Largest DNS message a 2-byte prefix can announce.
  static constexpr std::size_t kMaxMessageBytes = 65535;
  /// Hard cap on buffered bytes (one full message + its prefix).
  static constexpr std::size_t kMaxBufferedBytes = kMaxMessageBytes + 2;
  /// A length prefix below the fixed DNS header size is garbage.
  static constexpr std::size_t kMinMessageBytes = 12;

  /// Appends stream bytes; returns every complete DNS message payload.
  /// After a malformed prefix the reader is poisoned: it returns nothing
  /// and failed() is true until reset().
  std::vector<std::vector<std::uint8_t>> feed(
      std::span<const std::uint8_t> data);

  bool failed() const { return failed_; }
  std::size_t buffered() const { return buffer_.size(); }

  void reset() {
    buffer_.clear();
    failed_ = false;
  }

 private:
  std::vector<std::uint8_t> buffer_;
  bool failed_ = false;
};

/// DoQ framing by negotiated ALPN: "doq" (RFC 9250) and drafts doq-i03 and
/// later carry the 2-byte length prefix (added in -i03 to permit multiple
/// responses); doq-i00..i02 send the bare message and rely on stream FIN.
bool alpn_uses_length_prefix(std::string_view alpn);

/// The DNS message in a complete DoQ stream: the whole stream, or with
/// `length_prefix` the announced length clamped to the bytes present.
/// nullopt when a prefixed stream is too short to hold its prefix.
std::optional<std::span<const std::uint8_t>> doq_stream_message(
    std::span<const std::uint8_t> stream, bool length_prefix);

/// RFC 8484 POST request headers for a `content_length`-byte DNS query.
std::vector<h2::Header> doh_request_headers(std::string authority,
                                            std::size_t content_length);

/// RFC 8484 response headers for a `content_length`-byte DNS answer.
std::vector<h2::Header> doh_response_headers(std::size_t content_length);

}  // namespace doxlab::dox
