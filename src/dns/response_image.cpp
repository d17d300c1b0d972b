#include "dns/response_image.h"

#include <algorithm>
#include <cstring>
#include <limits>

#include "dns/cache_tier.h"

namespace doxlab::dns {

namespace {

inline std::uint16_t read_be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((std::uint16_t(p[0]) << 8) | p[1]);
}

inline std::uint32_t read_be32(const std::uint8_t* p) {
  return (std::uint32_t(p[0]) << 24) | (std::uint32_t(p[1]) << 16) |
         (std::uint32_t(p[2]) << 8) | std::uint32_t(p[3]);
}

inline void write_be16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
}

inline void write_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

ResponseImage ResponseImage::of(const Message& response) {
  return build(response.encode_buffer());
}

ResponseImage ResponseImage::answer_to(
    const Question& question, std::span<const ResourceRecord> answers) {
  Message response;
  response.qr = true;
  response.ra = true;
  response.questions.push_back(question);
  response.answers.assign(answers.begin(), answers.end());
  return of(response);
}

ResponseImage ResponseImage::adopt(std::span<const std::uint8_t> wire) {
  MessageHead head;
  if (!scan_message(wire, head)) return {};
  return build(util::Buffer::copy_of(wire));
}

ResponseImage ResponseImage::build(util::Buffer slab) {
  const std::size_t size = slab.size();
  if (size < 12 || size > std::numeric_limits<std::uint32_t>::max() / 2) {
    return {};
  }
  const std::uint8_t* header = slab.data();
  if (read_be16(header + 4) != 1) return {};
  const std::uint32_t answers = read_be16(header + 6);
  const std::uint32_t records =
      answers + read_be16(header + 8) + read_be16(header + 10);
  // Room for one offset per record; OPT slots are dropped at the end.
  slab.append(4 * std::size_t{records});
  std::uint8_t* base = slab.data();
  base[0] = 0;
  base[1] = 0;

  ResponseImage image;
  ByteReader reader(std::span<const std::uint8_t>(base, size));
  if (!reader.seek(12) || !skip_name(reader)) return {};
  image.qclass_offset_ = static_cast<std::uint32_t>(reader.position() + 2);
  if (!reader.bytes(4)) return {};
  std::uint32_t count = 0;
  std::uint32_t min_ttl = std::numeric_limits<std::uint32_t>::max();
  for (std::uint32_t i = 0; i < records; ++i) {
    if (!skip_name(reader)) return {};
    const std::size_t at = reader.position();
    const auto fixed = reader.bytes(10);  // type, class, ttl, rdlength
    if (!fixed || !reader.bytes(read_be16(fixed->data() + 8))) return {};
    // OPT reuses the TTL field for EDNS flags: never rewrite it.
    if (i >= answers && read_be16(fixed->data()) ==
                            static_cast<std::uint16_t>(RRType::kOPT)) {
      continue;
    }
    const auto offset = static_cast<std::uint32_t>(at + 4);
    std::memcpy(base + size + 4 * std::size_t{count}, &offset, 4);
    min_ttl = std::min(min_ttl, read_be32(base + offset));
    ++count;
  }
  slab.drop_back(4 * std::size_t{records - count});
  // Published to other shards' threads through the L2: atomic refcounts
  // from here on, and the bytes are immutable.
  slab.share();
  image.slab_ = std::move(slab);
  image.wire_size_ = static_cast<std::uint32_t>(size);
  image.min_ttl_ = count == 0 ? 0 : min_ttl;
  return image;
}

std::uint32_t ResponseImage::ttl_offset(std::size_t i) const {
  std::uint32_t offset = 0;
  std::memcpy(&offset, slab_.data() + wire_size_ + 4 * i, 4);
  return offset;
}

void ResponseImage::rewrite_ttls(std::uint8_t* wire, TtlRewrite ttl) const {
  if (ttl.mode == TtlRewrite::Mode::kDecay && ttl.value == 0) return;
  const std::size_t count = ttl_count();
  for (std::size_t i = 0; i < count; ++i) {
    std::uint8_t* field = wire + ttl_offset(i);
    write_be32(field, ttl.mode == TtlRewrite::Mode::kStamp
                          ? ttl.value
                          : tier_decay_ttl(read_be32(field), ttl.value));
  }
}

util::Buffer ResponseImage::answer(std::uint16_t id, RRClass qclass,
                                   TtlRewrite ttl) const {
  if (empty()) return {};
  util::Buffer out = util::Buffer::allocate(wire_size_);
  std::uint8_t* bytes = out.append(wire_size_);
  std::memcpy(bytes, slab_.data(), wire_size_);
  write_be16(bytes, id);
  write_be16(bytes + qclass_offset_, static_cast<std::uint16_t>(qclass));
  rewrite_ttls(bytes, ttl);
  return out;
}

ResponseImage ResponseImage::decayed(std::uint32_t age_s) const {
  if (age_s == 0 || empty()) return *this;
  ResponseImage next;
  next.slab_ = util::Buffer::copy_of(slab_.view());
  rewrite_ttls(next.slab_.data(), TtlRewrite::decay(age_s));
  next.slab_.share();
  next.wire_size_ = wire_size_;
  next.min_ttl_ = tier_decay_ttl(min_ttl_, age_s);
  next.qclass_offset_ = qclass_offset_;
  return next;
}

}  // namespace doxlab::dns
