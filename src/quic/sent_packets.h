// Loss recovery's record of the packets in flight, and the ACK walk over it.
//
// A space's ack-eliciting packets wait in a queue ordered by packet number.
// An ACK frame lists descending ranges (RFC 9000 §19.3), so it meets the
// queue from its newest end: each range that overlaps the queue costs one
// binary search, and the packets it acknowledges leave as one erased run.
// An ACK therefore costs what it acknowledges, not the number of packets
// in flight times the number of ranges.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "quic/range_set.h"
#include "quic/wire.h"
#include "util/types.h"

namespace doxlab::quic {

/// An ack-eliciting packet awaiting acknowledgement.
struct SentPacket {
  std::uint64_t pn = 0;
  /// Frames worth recovering; their payloads share the sender's buffers.
  std::vector<Frame> retransmittable;
  SimTime sent_at = 0;
  std::size_t size = 0;  // encoded bytes, for in-flight accounting
  /// Rank in the order the connection sent its packets. It differs from
  /// packet-number order only when the amplification limit held a datagram
  /// back while later ones went out; retransmission re-queues frames in
  /// this order.
  std::uint64_t send_order = 0;
};

/// What one ACK frame newly acknowledged.
struct AckedPackets {
  std::size_t count = 0;
  std::size_t bytes = 0;
  /// Send time of the largest acknowledged packet if it was still in
  /// flight: the RTT sample (RFC 9002 §5.1).
  std::optional<SimTime> largest_sent_at;
  /// Send time of the highest-numbered packet newly acknowledged.
  SimTime newest_sent_at = 0;
};

/// Removes from `sent` (ascending packet numbers) every packet that
/// `ranges` (descending, as an ACK frame lists them) acknowledges. The
/// acknowledged packets' emptied frame lists are appended to
/// `spare_frame_lists` for the next packets sent.
AckedPackets acknowledge(std::deque<SentPacket>& sent,
                         std::span<const AckRange> ranges,
                         std::vector<std::vector<Frame>>& spare_frame_lists);

}  // namespace doxlab::quic
