// DNS messages: header, question and resource-record sections, and the full
// RFC 1035 wire codec (with EDNS0 per RFC 6891).
//
// The study's single-query byte counts (Table 1) are produced by actually
// encoding these messages, so the codec is byte-faithful: a cached A lookup
// for google.com with an EDNS0 COOKIE option encodes to the same sizes the
// paper reports for DoUDP (59-byte query / 63-byte response IP payloads).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "util/bytes.h"

namespace doxlab::dns {

/// A question-section entry.
struct Question {
  DnsName name;
  RRType type = RRType::kA;
  RRClass klass = RRClass::kIN;

  bool operator==(const Question&) const = default;
};

/// A resource record. `rdata` holds the *uncompressed* wire RDATA; typed
/// constructors and accessors below avoid hand-rolling it.
struct ResourceRecord {
  DnsName name;
  RRType type = RRType::kA;
  /// For OPT pseudo-records this field carries the UDP payload size.
  std::uint16_t klass_or_udpsize = static_cast<std::uint16_t>(RRClass::kIN);
  /// For OPT pseudo-records this carries extended RCODE and flags.
  std::uint32_t ttl = 0;
  std::vector<std::uint8_t> rdata;

  bool operator==(const ResourceRecord&) const = default;
};

/// Builds an A record.
ResourceRecord make_a(DnsName name, std::uint32_t ttl, std::uint32_t ipv4);
/// Builds an AAAA record.
ResourceRecord make_aaaa(DnsName name, std::uint32_t ttl,
                         std::array<std::uint8_t, 16> ipv6);
/// Builds a CNAME record.
ResourceRecord make_cname(DnsName name, std::uint32_t ttl, DnsName target);
/// Builds a TXT record (single character-string, split if > 255).
ResourceRecord make_txt(DnsName name, std::uint32_t ttl, std::string text);

/// An EDNS0 option (RFC 6891 §6.1.2).
struct EdnsOption {
  std::uint16_t code = 0;
  std::vector<std::uint8_t> value;
};

/// RFC 7873 DNS COOKIE option code.
inline constexpr std::uint16_t kEdnsCookieOption = 10;
/// RFC 7828 edns-tcp-keepalive option code.
inline constexpr std::uint16_t kEdnsTcpKeepaliveOption = 11;
/// RFC 7830 padding option code.
inline constexpr std::uint16_t kEdnsPaddingOption = 12;

/// Builds an OPT pseudo-record (RFC 6891).
ResourceRecord make_opt(std::uint16_t udp_payload_size,
                        std::span<const EdnsOption> options = {});

/// Extracts the IPv4 address from an A record; nullopt on wrong type/size.
std::optional<std::uint32_t> rdata_as_a(const ResourceRecord& rr);
/// Extracts the target name from a CNAME/NS/PTR record.
std::optional<DnsName> rdata_as_name(const ResourceRecord& rr);
/// Parses OPT RDATA into options.
std::optional<std::vector<EdnsOption>> rdata_as_options(
    const ResourceRecord& rr);

/// A complete DNS message.
struct Message {
  std::uint16_t id = 0;
  bool qr = false;  ///< response flag
  Opcode opcode = Opcode::kQuery;
  bool aa = false;  ///< authoritative answer
  bool tc = false;  ///< truncation
  bool rd = true;   ///< recursion desired
  bool ra = false;  ///< recursion available
  bool ad = false;  ///< authentic data
  bool cd = false;  ///< checking disabled
  RCode rcode = RCode::kNoError;

  std::vector<Question> questions;
  std::vector<ResourceRecord> answers;
  std::vector<ResourceRecord> authorities;
  std::vector<ResourceRecord> additionals;

  /// Encodes to wire format with name compression.
  std::vector<std::uint8_t> encode() const;

  /// Encodes into a pooled buffer with `headroom` bytes reserved in front
  /// so outer layers (DoT length prefix, TLS record, H2 frame) can prepend
  /// their framing in place. Byte-identical to encode().
  util::Buffer encode_buffer(std::size_t headroom = 0) const;

  /// Decodes from wire format; nullopt on malformed input.
  static std::optional<Message> decode(std::span<const std::uint8_t> wire);

  /// Decodes into `out`, reusing its section/name/rdata storage — the
  /// steady-state allocation-free path. `out` is fully overwritten on
  /// success and unspecified on failure. Returns false on malformed input.
  static bool decode_into(std::span<const std::uint8_t> wire, Message& out);

  /// Convenience: the first question, if any.
  const Question* question() const {
    return questions.empty() ? nullptr : &questions.front();
  }

  /// Finds the OPT pseudo-record in additionals, if present.
  const ResourceRecord* opt() const;

  bool operator==(const Message&) const = default;

 private:
  /// Uncompressed-size upper bound (writers reserve this and never regrow).
  std::size_t encoded_size_estimate() const;
  /// Shared encoder behind encode()/encode_buffer().
  void encode_to(ByteWriter& w) const;
};

/// What the hot paths read of a message, from one validating pass.
struct MessageHead {
  std::uint16_t id = 0;
  std::uint16_t flags = 0;    ///< the header flags word, RCODE included
  std::uint16_t qdcount = 0;
  /// The first question's type and class; unset if qdcount == 0.
  RRType qtype = RRType::kA;
  RRClass qclass = RRClass::kIN;

  bool qr() const { return (flags & 0x8000) != 0; }
  bool tc() const { return (flags & 0x0200) != 0; }
  RCode rcode() const { return static_cast<RCode>(flags & 0x0F); }
};

/// Validating scan: accepts exactly the inputs Message::decode_into accepts,
/// but reads only the header and the first question's type and class.
/// Every name, the question's included, and every record is walked and
/// checked, not copied, so answers that never need the question name cost
/// no name build. `out` is unspecified on failure.
bool scan_message(std::span<const std::uint8_t> wire, MessageHead& out);

/// Reads the first question's name, which starts right after the 12-byte
/// header, into `out`'s retained storage in one lower-casing pass. Call it
/// on a message scan_message accepted with qdcount > 0; it fails only
/// where that scan would have.
bool read_question_name(std::span<const std::uint8_t> wire, DnsName& out);

/// Builds a standard recursive query for (name, type) with EDNS0 and an
/// 8-byte client COOKIE — the same shape dnsperf sends in the paper's
/// measurements.
Message make_query(std::uint16_t id, const DnsName& name, RRType type,
                   std::uint16_t udp_payload_size = 1232,
                   bool with_cookie = true);

/// Builds a response skeleton echoing the query's id/question, with RA set.
Message make_response(const Message& query, RCode rcode = RCode::kNoError);

/// Pads `message` with an EDNS0 PADDING option (RFC 7830) so its encoded
/// size becomes the next multiple of `block_size` (RFC 8467 recommends 128
/// for queries, 468 for responses). Requires an OPT record (one is added if
/// missing). No-op when the message already aligns.
void pad_to_block(Message& message, std::size_t block_size);

/// The advertised UDP payload size from the query's OPT record, or 512
/// (RFC 1035 classic limit) when EDNS0 is absent.
std::uint16_t advertised_udp_size(const Message& query);

/// Truncates `response` for a UDP channel limited to `limit` bytes: if the
/// encoding exceeds the limit, answer/authority sections are dropped and TC
/// is set (the client is expected to retry over TCP). Returns true if
/// truncation happened.
bool truncate_for_udp(Message& response, std::size_t limit);

}  // namespace doxlab::dns
