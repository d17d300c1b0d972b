#include "dns/name.h"

#include <span>
#include <stdexcept>

#include "util/strings.h"

namespace doxlab::dns {

namespace {

char lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c + ('a' - 'A')) : c;
}

/// Appends one length-prefixed lowercased label; throws on invalid size.
void append_label(std::string& wire, std::string_view label) {
  if (label.empty()) throw std::invalid_argument("empty DNS label");
  if (label.size() > 63) throw std::invalid_argument("DNS label > 63 octets");
  wire.push_back(static_cast<char>(label.size()));
  for (char c : label) wire.push_back(lower(c));
}

}  // namespace

DnsName DnsName::parse(std::string_view text) {
  DnsName name;
  if (text.empty() || text == ".") return name;
  if (text.back() == '.') text.remove_suffix(1);

  name.wire_.reserve(text.size() + 1);
  std::size_t start = 0;
  while (start <= text.size()) {
    const std::size_t dot = text.find('.', start);
    const std::size_t end = dot == std::string_view::npos ? text.size() : dot;
    append_label(name.wire_, text.substr(start, end - start));
    if (dot == std::string_view::npos) break;
    start = dot + 1;
  }
  if (name.wire_.size() + 1 > 255) {
    throw std::invalid_argument("DNS name > 255 octets");
  }
  return name;
}

DnsName DnsName::from_labels(const std::vector<std::string>& labels) {
  DnsName name;
  for (const std::string& label : labels) append_label(name.wire_, label);
  if (name.wire_.size() + 1 > 255) {
    throw std::invalid_argument("DNS name > 255 octets");
  }
  return name;
}

std::vector<std::string> DnsName::labels() const {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos < wire_.size()) {
    const std::size_t len = static_cast<std::uint8_t>(wire_[pos]);
    out.emplace_back(wire_, pos + 1, len);
    pos += 1 + len;
  }
  return out;
}

std::size_t DnsName::label_count() const {
  std::size_t count = 0;
  std::size_t pos = 0;
  while (pos < wire_.size()) {
    ++count;
    pos += 1 + static_cast<std::uint8_t>(wire_[pos]);
  }
  return count;
}

std::string DnsName::to_string() const {
  if (wire_.empty()) return ".";
  std::string out;
  out.reserve(wire_.size());
  std::size_t pos = 0;
  while (pos < wire_.size()) {
    const std::size_t len = static_cast<std::uint8_t>(wire_[pos]);
    if (pos > 0) out.push_back('.');
    out.append(wire_, pos + 1, len);
    pos += 1 + len;
  }
  return out;
}

bool DnsName::has_suffix(const DnsName& suffix) const {
  if (suffix.wire_.size() > wire_.size()) return false;
  const std::size_t split = wire_.size() - suffix.wire_.size();
  if (std::string_view(wire_).substr(split) != suffix.wire_) return false;
  // A byte-level suffix match only counts when it starts on a label
  // boundary (label bytes may themselves contain length-like values).
  std::size_t pos = 0;
  while (pos < split) pos += 1 + static_cast<std::uint8_t>(wire_[pos]);
  return pos == split;
}

DnsName DnsName::parent() const {
  DnsName p;
  p.wire_ = wire_.substr(1 + static_cast<std::uint8_t>(wire_[0]));
  return p;
}

const NameCompressor::Entry* NameCompressor::find(
    std::string_view suffix) const {
  for (std::size_t i = 0; i < count_; ++i) {
    if (inline_[i].suffix == suffix) return &inline_[i];
  }
  for (const Entry& e : overflow_) {
    if (e.suffix == suffix) return &e;
  }
  return nullptr;
}

void NameCompressor::remember(std::string_view suffix, std::uint16_t offset) {
  if (count_ < inline_.size()) {
    inline_[count_++] = Entry{suffix, offset};
  } else {
    overflow_.push_back(Entry{suffix, offset});
  }
}

void NameCompressor::write(ByteWriter& writer, const DnsName& name) {
  const std::string_view wire = name.wire_labels();
  std::size_t pos = 0;
  while (pos < wire.size()) {
    const std::string_view suffix = wire.substr(pos);
    if (const Entry* hit = find(suffix)) {
      writer.u16(static_cast<std::uint16_t>(0xC000 | hit->offset));
      return;
    }
    // Pointers can only address the first 16KiB - and the top two bits are
    // the pointer tag - so only record offsets that fit in 14 bits.
    if (writer.size() < 0x3FFF) {
      remember(suffix, static_cast<std::uint16_t>(writer.size()));
    }
    const std::size_t label_len = static_cast<std::uint8_t>(wire[pos]);
    writer.u8(static_cast<std::uint8_t>(label_len));
    writer.bytes(wire.substr(pos, 1 + label_len).substr(1));
    pos += 1 + label_len;
  }
  writer.u8(0);
}

namespace {

/// Walks one possibly-compressed name, handing each label's raw bytes to
/// `on_label`. read_name_into and skip_name both go through here, so the
/// materializing read and the validating skip accept exactly the same
/// inputs. The walk indexes the reader's input directly: names are the
/// hot part of every message scan.
template <typename OnLabel>
bool walk_name(ByteReader& reader, OnLabel&& on_label) {
  constexpr std::size_t kNoPointer = static_cast<std::size_t>(-1);
  const std::span<const std::uint8_t> wire = reader.data();
  std::size_t pos = reader.position();
  std::size_t length = 0;  // flat label bytes so far
  int pointer_hops = 0;
  std::size_t resume_at = kNoPointer;  // position after the first pointer

  while (true) {
    if (pos >= wire.size()) return false;
    const std::uint8_t len = wire[pos++];
    if ((len & 0xC0) == 0xC0) {
      // Compression pointer: 14-bit absolute offset.
      if (pos >= wire.size()) return false;
      const std::size_t target =
          (static_cast<std::size_t>(len & 0x3F) << 8) | wire[pos++];
      if (resume_at == kNoPointer) resume_at = pos;
      // Require strictly backward pointers; combined with the hop limit this
      // rules out loops.
      if (target >= pos - 2) return false;
      if (++pointer_hops > 32) return false;
      pos = target;
      continue;
    }
    if ((len & 0xC0) != 0) return false;  // reserved tags 01/10
    if (len == 0) break;
    if (wire.size() - pos < len) return false;
    if (length + 1 + len + 1 > 255) return false;
    length += 1 + len;
    on_label(wire.subspan(pos, len));
    pos += len;
  }

  return reader.seek(resume_at == kNoPointer ? pos : resume_at);
}

}  // namespace

bool read_name_into(ByteReader& reader, DnsName& out) {
  // One pass: each label is lower-cased as it is copied into a stack
  // buffer (walk_name bounds the flat bytes at 254), then the name is
  // assigned once, into the storage `out` already has.
  char flat[255];
  std::size_t length = 0;
  if (!walk_name(reader, [&](std::span<const std::uint8_t> label) {
        flat[length++] = static_cast<char>(label.size());
        for (const std::uint8_t byte : label) {
          flat[length++] = lower(static_cast<char>(byte));
        }
      })) {
    return false;
  }
  out.wire_.assign(flat, length);
  return true;
}

bool skip_name(ByteReader& reader) {
  return walk_name(reader, [](std::span<const std::uint8_t>) {});
}

std::optional<DnsName> read_name(ByteReader& reader) {
  DnsName name;
  if (!read_name_into(reader, name)) return std::nullopt;
  return name;
}

}  // namespace doxlab::dns
