#include "quic/sent_packets.h"

#include <algorithm>

namespace doxlab::quic {

AckedPackets acknowledge(std::deque<SentPacket>& sent,
                         std::span<const AckRange> ranges,
                         std::vector<std::vector<Frame>>& spare_frame_lists) {
  AckedPackets acked;
  if (ranges.empty()) return acked;
  const std::uint64_t largest = ranges.front().last;
  // Packets below `unsearched` may still be acknowledged by a later
  // (lower) range; an erase leaves their positions as they were.
  std::size_t unsearched = sent.size();
  for (const AckRange& range : ranges) {
    if (unsearched == 0 || range.last < sent.front().pn) break;
    const auto end = sent.begin() + static_cast<std::ptrdiff_t>(unsearched);
    const auto first = std::lower_bound(
        sent.begin(), end, range.first,
        [](const SentPacket& p, std::uint64_t pn) { return p.pn < pn; });
    const auto last = std::upper_bound(
        first, end, range.last,
        [](std::uint64_t pn, const SentPacket& p) { return pn < p.pn; });
    unsearched = static_cast<std::size_t>(first - sent.begin());
    if (first == last) continue;
    if (acked.count == 0) {
      // The first run found holds the highest packet acknowledged.
      const SentPacket& newest = *(last - 1);
      acked.newest_sent_at = newest.sent_at;
      if (newest.pn == largest) acked.largest_sent_at = newest.sent_at;
    }
    for (auto it = first; it != last; ++it) {
      ++acked.count;
      acked.bytes += it->size;
      it->retransmittable.clear();
      spare_frame_lists.push_back(std::move(it->retransmittable));
    }
    sent.erase(first, last);
  }
  return acked;
}

}  // namespace doxlab::quic
