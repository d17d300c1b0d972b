// A set of integers kept as maximal runs: the shape of an ACK frame.
//
// QUIC acknowledges received packet numbers as descending ranges (RFC 9000
// §19.3), so the receiver's state is stored in that form directly. Memory
// and per-insert cost grow with the number of gaps, not with how many
// integers the set holds, which keeps a long-lived connection's per-packet
// work flat.
#pragma once

#include <cstdint>
#include <vector>

namespace doxlab::quic {

/// Inclusive packet-number range [first, last].
struct AckRange {
  std::uint64_t first = 0;
  std::uint64_t last = 0;
  bool operator==(const AckRange&) const = default;
};

/// Sorted, disjoint, non-adjacent inclusive ranges. Adjacent insertions
/// merge, so every range is a maximal run of present integers.
class RangeSet {
 public:
  /// Adds `value`; returns false if it was already present.
  bool insert(std::uint64_t value);
  bool contains(std::uint64_t value) const;
  void clear() { ranges_.clear(); }
  bool empty() const { return ranges_.empty(); }

  /// The largest member; the set must not be empty.
  std::uint64_t largest() const { return ranges_.back().last; }

  /// Writes the runs into `out` in descending order, as an ACK frame lists
  /// them, reusing `out`'s storage.
  void descending(std::vector<AckRange>& out) const {
    out.assign(ranges_.rbegin(), ranges_.rend());
  }

 private:
  /// First range whose last element is >= value.
  std::vector<AckRange>::const_iterator upper_neighbour(
      std::uint64_t value) const;

  std::vector<AckRange> ranges_;
};

}  // namespace doxlab::quic
