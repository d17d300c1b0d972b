#include "dns/snapshot_tier.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "dns/name.h"
#include "util/bytes.h"

namespace doxlab::dns {

namespace {

/// Log header: version-stamped magic. Bump the digit on format changes.
constexpr char kMagic[8] = {'D', 'O', 'X', 'S', 'N', 'A', 'P', '2'};

/// Anything claiming a larger payload than this is a torn length field, not
/// a record (a response image is a few hundred bytes).
constexpr std::uint32_t kMaxPayload = 1u << 22;

/// Payload bytes before the owner name: qtype, stamp and TTL.
constexpr std::size_t kPayloadFixed = 2 + 8 + 4;

std::uint32_t fnv1a32(std::span<const std::uint8_t> data) {
  std::uint32_t h = 2166136261u;
  for (const std::uint8_t b : data) {
    h ^= b;
    h *= 16777619u;
  }
  return h;
}

/// On-disk size of the frame that holds `entry` for `name`.
std::uint64_t frame_bytes(const DnsName& name, const TierEntry& entry) {
  return 8 + kPayloadFixed + name.wire_length() + entry.image.wire().size();
}

/// Writes one frame: `[u32 len][u32 fnv1a32(payload)][payload]`.
bool write_frame(std::FILE* out, std::span<const std::uint8_t> payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = fnv1a32(payload);
  const std::uint8_t header[8] = {
      static_cast<std::uint8_t>(len >> 24),
      static_cast<std::uint8_t>(len >> 16),
      static_cast<std::uint8_t>(len >> 8),
      static_cast<std::uint8_t>(len),
      static_cast<std::uint8_t>(crc >> 24),
      static_cast<std::uint8_t>(crc >> 16),
      static_cast<std::uint8_t>(crc >> 8),
      static_cast<std::uint8_t>(crc)};
  return std::fwrite(header, 1, sizeof(header), out) == sizeof(header) &&
         std::fwrite(payload.data(), 1, payload.size(), out) ==
             payload.size();
}

}  // namespace

SnapshotTier::SnapshotTier(SnapshotConfig config)
    : config_(std::move(config)) {
  replay();
}

SnapshotTier::~SnapshotTier() {
  if (log_ != nullptr) {
    std::fflush(log_);
    std::fclose(log_);
  }
}

std::vector<std::uint8_t> SnapshotTier::encode_payload(
    const DnsName& name, RRType type, const TierEntry& entry) {
  const std::span<const std::uint8_t> wire = entry.image.wire();
  ByteWriter writer(kPayloadFixed + name.wire_length() + wire.size());
  writer.u16(static_cast<std::uint16_t>(type));
  writer.u64(static_cast<std::uint64_t>(entry.inserted_at));
  writer.u32(entry.ttl_s);
  writer.bytes(name.wire_labels());
  writer.u8(0);
  writer.bytes(wire);
  return writer.take();
}

bool SnapshotTier::decode_payload(std::span<const std::uint8_t> payload,
                                  RecordKey& key, TierEntry& entry) {
  ByteReader reader(payload);
  const auto type = reader.u16();
  const auto inserted_at = reader.u64();
  const auto ttl_s = reader.u32();
  if (!type || !inserted_at || !ttl_s) return false;
  if (!read_name_into(reader, key.name)) return false;
  key.type = static_cast<RRType>(*type);
  const auto wire = reader.bytes(reader.remaining());
  if (!wire) return false;
  entry = TierEntry::of(ResponseImage::adopt(*wire),
                        static_cast<SimTime>(*inserted_at));
  // The stored TTL is redundant with the image; a frame where they differ
  // would serve TTL-0 answers as fresh.
  return !entry.image.empty() && entry.ttl_s == *ttl_s;
}

void SnapshotTier::replay() {
  if (config_.path.empty()) return;
  {
    // First use of a snapshot directory: make sure it exists so the append
    // handle below can be opened.
    std::error_code ec;
    const std::filesystem::path parent =
        std::filesystem::path(config_.path).parent_path();
    if (!parent.empty()) std::filesystem::create_directories(parent, ec);
  }
  std::vector<std::uint8_t> file;
  if (std::FILE* in = std::fopen(config_.path.c_str(), "rb")) {
    std::fseek(in, 0, SEEK_END);
    const long size = std::ftell(in);
    std::fseek(in, 0, SEEK_SET);
    if (size > 0) {
      file.resize(static_cast<std::size_t>(size));
      if (std::fread(file.data(), 1, file.size(), in) != file.size()) {
        file.clear();
      }
    }
    std::fclose(in);
  }
  replay_stats_.bytes_read = file.size();

  std::size_t good_end = sizeof(kMagic);
  if (file.size() < sizeof(kMagic) ||
      std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    // Missing or foreign file: start a fresh log (an unreadable header
    // counts as one torn drop so the caller can tell).
    if (!file.empty()) ++replay_stats_.torn_dropped;
    if (std::FILE* fresh = std::fopen(config_.path.c_str(), "wb")) {
      std::fwrite(kMagic, 1, sizeof(kMagic), fresh);
      std::fclose(fresh);
    }
  } else {
    ByteReader reader(file);
    (void)reader.seek(sizeof(kMagic));
    while (reader.remaining() > 0) {
      const auto len = reader.u32();
      const auto crc = reader.u32();
      if (!len || !crc || *len == 0 || *len > kMaxPayload) {
        ++replay_stats_.torn_dropped;
        break;
      }
      const auto payload = reader.bytes(*len);
      if (!payload) {
        ++replay_stats_.torn_dropped;
        break;
      }
      if (fnv1a32(*payload) != *crc) {
        // A checksum mismatch means the tail is untrustworthy from here on
        // (a torn write never leaves valid frames after it) — stop.
        ++replay_stats_.torn_dropped;
        break;
      }
      RecordKey key;
      TierEntry entry;
      if (!decode_payload(*payload, key, entry)) {
        ++replay_stats_.skipped_bad;
        good_end = reader.position();
        continue;
      }
      if (entries_.find(key.name, key.type) != kNoNode) {
        ++replay_stats_.superseded;
      }
      apply(key.name, key.type, std::move(entry));
      ++replay_stats_.frames_replayed;
      good_end = reader.position();
    }
    if (good_end < file.size()) {
      // Drop the torn tail so future appends land on a clean frame edge.
      std::error_code ec;
      std::filesystem::resize_file(config_.path, good_end, ec);
    }
  }
  log_bytes_ = good_end;
  log_ = std::fopen(config_.path.c_str(), "ab");
}

void SnapshotTier::apply(const DnsName& name, RRType type,
                         TierEntry entry) {
  live_bytes_ += frame_bytes(name, entry);
  payload_bytes_ += entry.image.footprint();
  const auto [node, inserted] = entries_.try_emplace(name, type);
  TierEntry& slot = entries_.value(node);
  if (!inserted) {
    live_bytes_ -= frame_bytes(name, slot);
    payload_bytes_ -= slot.image.footprint();
  }
  slot = std::move(entry);
}

bool SnapshotTier::append_frame(std::span<const std::uint8_t> payload) {
  if (log_ == nullptr || !write_frame(log_, payload)) return false;
  log_bytes_ += 8 + payload.size();
  return true;
}

bool SnapshotTier::lookup(const DnsName& name, RRType type, SimTime now,
                          TierHit& out, SimTime max_stale) {
  ++lookups_;
  const NodeIndex node = entries_.find(name, type);
  if (node == kNoNode) return false;
  const TierEntry& entry = entries_.value(node);
  if (const auto hit = classify(entry, now, max_stale)) {
    out = *hit;
    ++hits_;
    if (hit->stale) ++stale_hits_;
    return true;
  }
  // Past the stale window: dead weight in the index; the log's copy is
  // reclaimed by the next compaction.
  live_bytes_ -= frame_bytes(name, entry);
  payload_bytes_ -= entry.image.footprint();
  entries_.erase(node);
  ++evictions_;
  return false;
}

void SnapshotTier::insert(const DnsName& name, RRType type,
                          const ResponseImage& image, SimTime now) {
  if (image.ttl_count() == 0 || image.min_ttl() == 0) return;
  TierEntry entry = TierEntry::of(image, now);
  if (!append_frame(encode_payload(name, type, entry))) return;
  apply(name, type, std::move(entry));
  ++inserts_;
  maybe_compact();
}

void SnapshotTier::flush() {
  if (log_ != nullptr) std::fflush(log_);
}

void SnapshotTier::maybe_compact() {
  if (log_bytes_ < config_.compact_min_bytes) return;
  if (log_bytes_ <= 2 * (live_bytes_ + sizeof(kMagic))) return;
  compact();
}

void SnapshotTier::compact() {
  if (config_.path.empty()) return;
  const std::string tmp = config_.path + ".tmp";
  std::FILE* out = std::fopen(tmp.c_str(), "wb");
  if (out == nullptr) return;
  std::fwrite(kMagic, 1, sizeof(kMagic), out);
  bool ok = true;
  std::uint64_t written = sizeof(kMagic);
  entries_.for_each([&](NodeIndex node) {
    if (!ok) return;
    const RecordKey& key = entries_.key(node);
    const std::vector<std::uint8_t> payload =
        encode_payload(key.name, key.type, entries_.value(node));
    ok = write_frame(out, payload);
    written += 8 + payload.size();
  });
  std::fflush(out);
  std::fclose(out);
  if (!ok) {
    std::remove(tmp.c_str());
    return;
  }
  // Write-new-then-rename: readers of the old log (there are none while we
  // run, but a crashed rename leaves one valid file either way) never see a
  // half-written state.
  if (log_ != nullptr) {
    std::fflush(log_);
    std::fclose(log_);
    log_ = nullptr;
  }
  if (std::rename(tmp.c_str(), config_.path.c_str()) != 0) {
    std::remove(tmp.c_str());
    log_ = std::fopen(config_.path.c_str(), "ab");
    return;
  }
  log_bytes_ = written;
  live_bytes_ = written - sizeof(kMagic);
  ++compactions_;
  log_ = std::fopen(config_.path.c_str(), "ab");
}

void SnapshotTier::for_each(const EntryVisitor& visit) const {
  entries_.for_each([&](NodeIndex node) {
    const RecordKey& key = entries_.key(node);
    visit(key.name, key.type, entries_.value(node));
  });
}

TierStats SnapshotTier::tier_stats() const {
  TierStats t;
  t.lookups = lookups_;
  t.hits = hits_;
  t.stale_hits = stale_hits_;
  t.inserts = inserts_;
  t.evictions = evictions_;
  t.entries = entries_.size();
  t.bytes = payload_bytes_;
  return t;
}

}  // namespace doxlab::dns
