// Response images: the unit every engine cache tier stores.
//
// An image is a fully encoded answer with its transaction ID zeroed, plus
// the byte offsets of its record TTLs (found once, when the image is built —
// compression pointers make them non-trivial). Serving a cached answer from
// any tier is then one copy into a pooled buffer followed by a patch: the
// asking query's ID and qclass go in, and every TTL is decayed by the
// entry's age or stamped with a stale TTL.
//
// The image lives in one pooled slab — wire bytes, then the offset table —
// that is share()d when built, so the engine's L1, the shared L2 and the
// snapshot tier hold refcounted handles to the same bytes, across shard
// threads. Images are never patched in place: a tier that needs different
// TTLs (promotion with decayed TTLs) builds a new image with decayed().
#pragma once

#include <cstdint>
#include <span>

#include "dns/message.h"
#include "util/buffer.h"

namespace doxlab::dns {

/// How an image's record TTLs are rewritten when it is copied out.
struct TtlRewrite {
  enum class Mode : std::uint8_t { kDecay, kStamp };
  Mode mode = Mode::kDecay;
  /// Age in whole seconds (kDecay, clamped at 0) or the TTL to stamp.
  std::uint32_t value = 0;

  static TtlRewrite decay(std::uint32_t age_s) {
    return {Mode::kDecay, age_s};
  }
  static TtlRewrite stamp(std::uint32_t ttl) { return {Mode::kStamp, ttl}; }
};

class ResponseImage {
 public:
  ResponseImage() = default;

  /// The image of `response` as Message::encode_buffer writes it, with the
  /// ID stored as 0. Requires exactly one question.
  static ResponseImage of(const Message& response);

  /// The forwarder's NOERROR answer to `question`: QR, RD and RA set, the
  /// question, and `answers` with compressed names.
  static ResponseImage answer_to(const Question& question,
                                 std::span<const ResourceRecord> answers);

  /// Adopts stored response bytes (snapshot replay): checks them with the
  /// message scan, zeroes the ID and finds the TTLs. Returns an empty image
  /// for malformed bytes or a question count other than one.
  static ResponseImage adopt(std::span<const std::uint8_t> wire);

  bool empty() const { return wire_size_ == 0; }
  /// The encoded response, ID zero.
  std::span<const std::uint8_t> wire() const {
    return slab_.view().first(wire_size_);
  }
  /// Records whose TTL a patch rewrites: every answer and authority record
  /// and every additional record but OPT.
  std::size_t ttl_count() const { return (slab_.size() - wire_size_) / 4; }
  /// Smallest of those TTLs; 0 when there are none.
  std::uint32_t min_ttl() const { return min_ttl_; }
  /// Slab bytes held: the tier byte accounting unit.
  std::size_t footprint() const { return slab_.size(); }

  /// The answer to a query: a pooled copy of the wire with `id` and
  /// `qclass` patched in and every TTL rewritten.
  util::Buffer answer(std::uint16_t id, RRClass qclass, TtlRewrite ttl) const;

  /// A new image with every TTL decayed by `age_s` — how an entry moves to
  /// a tier that stamps its own insertion time. Age 0 shares this image.
  ResponseImage decayed(std::uint32_t age_s) const;

 private:
  /// Zeroes the ID of the encoded response in `slab`, appends its TTL
  /// offsets behind it and shares the slab. Empty image when the bytes are
  /// not one question plus well-framed records.
  static ResponseImage build(util::Buffer slab);
  std::uint32_t ttl_offset(std::size_t i) const;
  void rewrite_ttls(std::uint8_t* wire, TtlRewrite ttl) const;

  util::Buffer slab_;
  std::uint32_t wire_size_ = 0;
  std::uint32_t min_ttl_ = 0;
  std::uint32_t qclass_offset_ = 0;
};

}  // namespace doxlab::dns
