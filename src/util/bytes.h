// Byte-buffer reader/writer used by every wire-format codec in doxlab.
//
// The codecs (DNS, QUIC varints, HTTP/2 frames, TLS records) all operate on
// network byte order (big-endian). `ByteWriter` grows an owned buffer;
// `ByteReader` is a non-owning cursor over caller-provided bytes and reports
// truncation instead of reading past the end.
//
// ByteWriter has two backends behind one interface: the classic
// std::vector (default) and a pooled util::Buffer whose headroom lets
// outer protocol layers prepend their framing in place (see util/buffer.h).
// Offsets passed to patch_u16 and values returned by size() are always
// relative to the writer's own start, whichever backend is active.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/buffer.h"

namespace doxlab {

/// Growable big-endian byte sink.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }
  /// Pooled mode: appends into `buf` (after any existing content — the
  /// writer's offset 0 is the buffer's current end). take_buffer() hands
  /// back the buffer, headroom intact, for in-place framing.
  explicit ByteWriter(util::Buffer buf)
      : pooled_(std::move(buf)), base_(pooled_.size()), pooled_mode_(true) {}

  /// Pooled-mode writer over a fresh slab sized for `capacity` payload
  /// bytes plus `headroom` reserved front bytes.
  static ByteWriter pooled(std::size_t capacity, std::size_t headroom) {
    return ByteWriter(util::Buffer::allocate(capacity, headroom));
  }

  void u8(std::uint8_t v) { *grab(1) = v; }
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);

  /// QUIC RFC 9000 §16 variable-length integer (1/2/4/8 bytes).
  void varint(std::uint64_t v);

  void bytes(std::span<const std::uint8_t> data);
  void bytes(std::string_view data);

  /// Appends `n` copies of `fill` (used for QUIC INITIAL padding).
  void pad(std::size_t n, std::uint8_t fill = 0);

  /// Overwrites two bytes at `offset` (for back-patched length fields).
  void patch_u16(std::size_t offset, std::uint16_t v);

  std::size_t size() const {
    return pooled_mode_ ? pooled_.size() - base_ : buf_.size();
  }
  std::span<const std::uint8_t> view() const {
    return pooled_mode_
               ? std::span<const std::uint8_t>(pooled_.data() + base_, size())
               : std::span<const std::uint8_t>(buf_);
  }
  /// The written bytes as a vector: moved out in vector mode, copied in
  /// pooled mode (pooled callers should use take_buffer()).
  std::vector<std::uint8_t> take() {
    if (!pooled_mode_) return std::move(buf_);
    return {pooled_.data() + base_, pooled_.data() + pooled_.size()};
  }
  /// Pooled mode only: the backing buffer (prior content + written bytes).
  util::Buffer take_buffer() { return std::move(pooled_); }
  const std::vector<std::uint8_t>& data() const { return buf_; }

 private:
  /// Extends the backend by `n` bytes and returns the write cursor.
  std::uint8_t* grab(std::size_t n) {
    if (!pooled_mode_) {
      const std::size_t at = buf_.size();
      buf_.resize(at + n);
      return buf_.data() + at;
    }
    return pooled_.append(n);
  }

  std::vector<std::uint8_t> buf_;
  util::Buffer pooled_;
  std::size_t base_ = 0;
  bool pooled_mode_ = false;
};

/// Non-owning big-endian cursor. All reads return std::nullopt on truncation.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  std::optional<std::uint8_t> u8();
  std::optional<std::uint16_t> u16();
  std::optional<std::uint32_t> u32();
  std::optional<std::uint64_t> u64();

  /// QUIC RFC 9000 §16 variable-length integer.
  std::optional<std::uint64_t> varint();

  /// Reads exactly `n` bytes; nullopt if fewer remain.
  std::optional<std::span<const std::uint8_t>> bytes(std::size_t n);

  /// Reads `n` bytes into a std::string.
  std::optional<std::string> string(std::size_t n);

  std::size_t remaining() const { return data_.size() - pos_; }
  std::size_t position() const { return pos_; }
  /// The whole input, for parsers that index it directly (DNS names).
  std::span<const std::uint8_t> data() const { return data_; }
  bool at_end() const { return pos_ == data_.size(); }

  /// Moves the cursor to an absolute offset (for DNS compression pointers).
  /// Returns false if the offset is out of range.
  bool seek(std::size_t offset);

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Hex dump (lowercase, no separators) — used in tests and diagnostics.
std::string to_hex(std::span<const std::uint8_t> data);

}  // namespace doxlab
