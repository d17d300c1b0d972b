// Persistent snapshot tier: the disk level of the cache hierarchy.
//
// The per-shard L1 and shared L2 die with the process; this tier is what a
// restarted forwarder warm-starts from. The design is the append-log +
// compacting-snapshot shape of dnsdist's KVS lookup stores (and LMDB
// underneath them), reduced to what a DNS RRset store actually needs:
//
//   * One flat file per engine shard. Writes are appends — an insert
//     serializes the answer's response image (dns/response_image.h: the
//     same bytes the L1 and L2 hold, so promotion costs no re-encode) with
//     its *absolute* insertion stamp and minimum TTL, and appends one
//     framed record: `[u32 payload_len][u32 fnv1a32(payload)][payload]`
//     after the 8-byte `DOXSNAP2` magic. Later records for a key supersede
//     earlier ones. A log with another magic (`DOXSNAP1` included) is a
//     foreign file: the tier starts a fresh log.
//   * Replay (construction) walks the frames and stops cleanly at the first
//     torn or corrupt one: a truncated tail — the crash case — costs at
//     most the records after the tear, never the file. A frame whose
//     checksum matches but whose payload fails to parse, or whose stored
//     TTL is not the lifetime its image implies, is skipped, not fatal.
//   * Expiry is judged against the absolute stamps at *lookup* time by
//     `classify` (dns/cache_tier.h) with the caller's `max_stale`: a fresh
//     entry decays by its age, an entry inside the stale window serves
//     stale, anything older is dropped from the index (and reclaimed by the
//     next compaction).
//   * Compaction: when the log grows past `compact_min_bytes` AND to more
//     than twice the live payload, the live entries are rewritten to
//     `<path>.tmp` and renamed over the log — the same
//     write-new-then-rename discipline as an LMDB copy-compact.
//
// Single-threaded by design, like the engine's L1: each engine owns its own
// snapshot file (`shard-<index>.snap`), so no locking anywhere.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "dns/cache_tier.h"
#include "dns/message.h"
#include "dns/record_table.h"
#include "dns/response_image.h"
#include "util/types.h"

namespace doxlab::dns {

struct SnapshotConfig {
  /// Log file path. The file is created if absent, replayed if present.
  std::string path;
  /// Compaction trigger floor: never compact a log smaller than this.
  std::size_t compact_min_bytes = 1 << 20;
};

class SnapshotTier {
 public:
  /// Opens (replaying) or creates the log. A path that cannot be opened
  /// leaves the tier alive but inert: lookups miss, inserts drop.
  explicit SnapshotTier(SnapshotConfig config);
  ~SnapshotTier();

  SnapshotTier(const SnapshotTier&) = delete;
  SnapshotTier& operator=(const SnapshotTier&) = delete;

  /// Serves a fresh entry, or — when `max_stale > 0` — a stale one, by
  /// `classify`. The hit is valid until the next insert(), lookup() or
  /// compact(). Entries past the stale window are evicted from the index
  /// here (the log reclaims the bytes at compaction).
  bool lookup(const DnsName& name, RRType type, SimTime now, TierHit& out,
              SimTime max_stale = 0);

  /// Appends (superseding any previous record for the key). Images without
  /// records or with a zero minimum TTL are not persisted, mirroring the
  /// L2.
  void insert(const DnsName& name, RRType type, const ResponseImage& image,
              SimTime now);

  /// Flushes buffered appends to the OS. Called by the destructor; exposed
  /// so a campaign can checkpoint mid-run.
  void flush();

  /// Rewrites the log to exactly the live index (write-new-then-rename),
  /// in for_each's order. Automatic when the compaction trigger fires
  /// inside insert().
  void compact();

  /// Visits every live index entry in the order the entries were first
  /// indexed (a slot freed by an eviction is reused by the next new key) —
  /// the warm-start protocol: the engine promotes fresh entries into L1/L2
  /// at construction.
  using EntryVisitor = std::function<void(const DnsName& name, RRType type,
                                          const TierEntry& entry)>;
  void for_each(const EntryVisitor& visit) const;

  /// What construction found on disk.
  struct ReplayStats {
    std::uint64_t frames_replayed = 0;  ///< well-formed frames applied
    std::uint64_t superseded = 0;       ///< frames overwritten by later ones
    std::uint64_t torn_dropped = 0;     ///< truncated/corrupt tail frames
    std::uint64_t skipped_bad = 0;      ///< checksum-ok but unparseable,
                                        ///< or TTL not the image's
    std::uint64_t bytes_read = 0;
  };
  const ReplayStats& replay_stats() const { return replay_stats_; }

  TierStats tier_stats() const;
  std::size_t size() const { return entries_.size(); }
  /// Current on-disk log size (header + appended frames).
  std::uint64_t log_bytes() const { return log_bytes_; }
  std::uint64_t compactions() const { return compactions_; }
  const std::string& path() const { return config_.path; }

 private:
  /// Serializes one record payload (no frame header).
  static std::vector<std::uint8_t> encode_payload(const DnsName& name,
                                                  RRType type,
                                                  const TierEntry& entry);
  /// Parses a payload back; returns false on malformed bytes or a stored
  /// TTL other than the lifetime the image implies.
  static bool decode_payload(std::span<const std::uint8_t> payload,
                             RecordKey& key, TierEntry& entry);

  void replay();
  bool append_frame(std::span<const std::uint8_t> payload);
  void apply(const DnsName& name, RRType type, TierEntry entry);
  void maybe_compact();

  SnapshotConfig config_;
  RecordTable<TierEntry> entries_;
  std::FILE* log_ = nullptr;
  std::uint64_t log_bytes_ = 0;
  std::uint64_t live_bytes_ = 0;  ///< frame bytes of live index entries
  std::uint64_t payload_bytes_ = 0;  ///< image bytes of live index entries
  std::uint64_t compactions_ = 0;
  ReplayStats replay_stats_;
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t stale_hits_ = 0;
  std::uint64_t inserts_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace doxlab::dns
