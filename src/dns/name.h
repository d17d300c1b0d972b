// DNS domain names: parsing, canonicalization, and RFC 1035 §4.1.4 wire
// encoding with message compression.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "util/bytes.h"

namespace doxlab::dns {

class DnsName;

/// Reads a possibly-compressed name into `out` in one lower-casing pass,
/// reusing its storage (the allocation-free decode path). The reader must
/// be positioned within the full message buffer (pointer targets are
/// absolute offsets). Returns false, leaving `out` as it was, on
/// truncation, pointer loops, or forward pointers.
bool read_name_into(ByteReader& reader, DnsName& out);

/// Steps over a name exactly as read_name_into would read it — same
/// pointer, length and truncation checks — without materializing it.
bool skip_name(ByteReader& reader);

/// A fully-qualified domain name. Labels are stored lower-cased and
/// flattened into one length-prefixed string — the RFC 1035 wire encoding
/// without the terminating zero octet ("www.google.com" is stored as
/// "\3www\6google\3com") — so construction and decode cost a single
/// allocation instead of one per label, and comparison and hashing
/// (`dns::record_hash`) are single passes over the flat bytes.
class DnsName {
 public:
  DnsName() = default;

  /// Parses dotted presentation form ("google.com", trailing dot optional).
  /// Throws std::invalid_argument on empty labels, labels > 63 octets, or
  /// total length > 255 octets.
  static DnsName parse(std::string_view text);

  /// The root name (".").
  static DnsName root() { return DnsName(); }

  /// Builds from raw labels (already split; used where labels may legally
  /// contain '.' characters). Labels are lower-cased. Throws
  /// std::invalid_argument on invalid label or total length.
  static DnsName from_labels(const std::vector<std::string>& labels);

  /// The labels as strings, materialized on demand (prefer label_count()/
  /// first_label() on hot paths).
  std::vector<std::string> labels() const;
  std::size_t label_count() const;
  /// The leftmost label; empty view for the root name.
  std::string_view first_label() const {
    return wire_.empty()
               ? std::string_view{}
               : std::string_view(wire_.data() + 1,
                                  static_cast<std::uint8_t>(wire_[0]));
  }
  bool is_root() const { return wire_.empty(); }

  /// The flat length-prefixed label bytes (wire form minus the terminating
  /// zero octet) — the compressor and hashers key on this directly.
  std::string_view wire_labels() const { return wire_; }

  /// Presentation form without trailing dot ("google.com"); "." for root.
  std::string to_string() const;

  /// Wire length without compression: 1 byte per label length + label bytes
  /// + terminating zero octet.
  std::size_t wire_length() const { return wire_.size() + 1; }

  /// Label-wise suffix test: true if `suffix` is the root name, equals
  /// `this`, or `this` is a subdomain of it. Allocation-free — a byte-level
  /// suffix compare over the flat label storage plus a label-boundary walk
  /// (label bytes may themselves contain length-like values, so ends_with
  /// alone would false-positive). Case-insensitive by construction: labels
  /// are stored lower-cased. This is the comparator the policy suffix rule
  /// evaluates per query.
  bool has_suffix(const DnsName& suffix) const;

  /// True if `this` equals `other` or is a subdomain of it (alias of
  /// has_suffix, kept for call-site readability).
  bool is_subdomain_of(const DnsName& other) const {
    return has_suffix(other);
  }

  /// Strips the leftmost label ("www.google.com" -> "google.com").
  /// Precondition: !is_root().
  DnsName parent() const;

  bool operator==(const DnsName&) const = default;
  auto operator<=>(const DnsName&) const = default;

 private:
  friend bool read_name_into(ByteReader& reader, DnsName& out);

  std::string wire_;
};

/// Tracks name offsets within one message so later names can point at
/// earlier ones (RFC 1035 §4.1.4 compression pointers). Suffix keys are
/// views into the written names' flat label storage, so the names must
/// outlive the compressor — true for Message::encode, where both live for
/// the duration of one encode call. Typical messages fit the inline entry
/// array and the compressor allocates nothing.
class NameCompressor {
 public:
  /// Writes `name` at the writer's current position, compressing against
  /// previously written names.
  void write(ByteWriter& writer, const DnsName& name);

 private:
  struct Entry {
    std::string_view suffix;  // wire-form label bytes of the suffix
    std::uint16_t offset = 0;
  };

  const Entry* find(std::string_view suffix) const;
  void remember(std::string_view suffix, std::uint16_t offset);

  std::array<Entry, 24> inline_{};
  std::size_t count_ = 0;
  std::vector<Entry> overflow_;
};

/// Reads a possibly-compressed name (allocating wrapper over
/// read_name_into). Returns nullopt on malformed input.
std::optional<DnsName> read_name(ByteReader& reader);

}  // namespace doxlab::dns
