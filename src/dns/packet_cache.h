// Shared L2 packet cache for the sharded forwarder engine.
//
// Every shard keeps its own L1 `dns::WireCache` (see src/engine); this class
// is the level below it — one table shared by all shards so an answer
// resolved on shard 3 serves shard 5's next miss. The concurrency design
// borrows the dnsdist packet-cache tricks and adapts them to the
// discrete-event setting:
//
//   * The table (dns/record_table.h) is only ever mutated by sweep(), so
//     it grows — doubling its slots or its node pool — only there, while
//     no reader runs: a lookup never sees a rehash, and construction
//     allocates nothing for it.
//   * Readers take the table lock *shared*, and only with try_lock_shared:
//     concurrent lookups from different shards never exclude each other. A
//     reader that does find the lock held exclusively is *not* waited out —
//     it is recorded (`lock_misses`) and reported as a cache miss, so the
//     per-query hot path never blocks on a lock.
//   * Writers never touch the table from the hot path at all: insert() parks
//     the encoded answer on the inserting shard's private lane
//     (`deferred_inserts`), and the coordinator merges all lanes into the
//     table under the exclusive lock in sweep(), which runs at epoch
//     barriers while no shard is executing.
//
// This split is also what makes the sharded engine deterministic: only
// sweep() ever takes the lock exclusively, and it runs at barriers, so
// mid-epoch try_lock_shared always succeeds and a lookup's outcome depends
// only on simulated time and the previous epoch's merged state — never on
// how the OS interleaved the shard threads. The contended-read fallback
// exists for safety and is exercised by unit tests, not by the engine.
//
// Entries are `TierEntry`s (dns/cache_tier.h) whose image slab has been
// share()d (atomic refcount). A hit points the reading shard at bytes
// another shard's thread produced, and at the table node holding them:
// both stay valid until the next sweep (a barrier), the only call that
// moves or frees nodes;
// a shard that keeps the image, by promoting it into its L1, takes a
// refcounted handle, and whichever thread drops the last reference
// recycles the slab into its own pool.
#pragma once

#include <cstdint>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <vector>

#include "dns/cache_tier.h"
#include "dns/message.h"
#include "dns/record_table.h"
#include "dns/response_image.h"
#include "stats/metrics.h"
#include "util/types.h"

namespace doxlab::dns {

/// An L2 hit. The image pointer is valid until the next sweep(), which
/// runs only at epoch barriers.
using PacketCacheHit = TierHit;

/// SharedPacketCache::Stats' counters.
#define DOXLAB_L2_METRICS(X)                                                \
  X(hits, kSum)                                                             \
  X(stale_hits, kSum)        /* subset of hits past expiry */               \
  X(misses, kSum)            /* includes lock_misses and expired */         \
  X(lock_misses, kSum)       /* try_lock_shared-vs-exclusive fallbacks */   \
  X(deferred_inserts, kSum)  /* insert() calls parked on lanes */           \
  X(applied_inserts, kSum)   /* lane entries merged by sweep */             \
  X(replaced, kSum)          /* merges that overwrote a key */              \
  X(rejected_capacity, kSum) /* merges dropped at the bound */              \
  X(expired_evicted, kSum)   /* entries reaped by sweeps */                 \
  X(sweeps, kSum)                                                           \
  X(size, kGauge)            /* live entries right now */                   \
  X(bytes, kGauge)           /* live image bytes */

/// Sharded-reader packet cache. Thread contract: lookup()/insert() may be
/// called concurrently from different shard threads (each shard passes its
/// own index; a lane is only ever touched by its shard); sweep() and
/// stats() must run while no shard is executing (epoch barrier).
class SharedPacketCache {
 public:
  /// `capacity` bounds the table (entries beyond it are rejected at sweep
  /// time, not evicted LRU — the L1s in front absorb recency); the table
  /// starts empty and grows inside sweeps. `shards` fixes the number of
  /// insert lanes.
  SharedPacketCache(std::size_t capacity, std::uint32_t shards);

  SharedPacketCache(const SharedPacketCache&) = delete;
  SharedPacketCache& operator=(const SharedPacketCache&) = delete;

  /// Hot-path read from shard `shard`. Returns true and fills `out` on a
  /// hit by `classify` (dns/cache_tier.h): fresh, or — when `max_stale > 0`
  /// — an RFC 8767 stale hit (`out.stale` set) for entries expired less
  /// than `max_stale` ago.
  /// Readers lock shared, so they only contend with the exclusive sweep
  /// (impossible mid-epoch, see header), never with each other; a contended
  /// or expired/absent entry reports false, and expired entries are left
  /// for sweep() to reap. Callers serving stale must also extend the sweep
  /// window via set_stale_retention(), or the entry is reaped at the next
  /// barrier and the stale window silently collapses to one epoch.
  bool lookup(std::uint32_t shard, const DnsName& name, RRType type,
              SimTime now, PacketCacheHit& out, SimTime max_stale = 0);

  /// Parks `image` on shard `shard`'s lane; the table itself is untouched
  /// until the next sweep(). Images without records or with a zero minimum
  /// TTL are not cached (negative answers stay an L1 concern).
  void insert(std::uint32_t shard, const DnsName& name, RRType type,
              ResponseImage image, SimTime now);

  /// Same, for a record set: builds the forwarder's answer image for
  /// (name, type, IN) carrying `records`.
  void insert(std::uint32_t shard, const DnsName& name, RRType type,
              std::span<const ResourceRecord> records, SimTime now);

  /// Epoch-barrier maintenance: merges every lane into the table in shard
  /// order (deterministic regardless of which threads ran the shards), then
  /// reaps expired entries. Takes the lock exclusively and *blocking* — by
  /// contract nobody else holds it here.
  void sweep(SimTime now);

  /// Keeps expired entries sweepable-stale for `keep` past their expiry
  /// instead of reaping them at the next barrier (0 = reap immediately, the
  /// default). Set once before the run, at a barrier, when the engine
  /// serves stale from the L2.
  void set_stale_retention(SimTime keep) { retain_stale_ = keep; }

  struct Stats {
    DOXLAB_METRICS(Stats, DOXLAB_L2_METRICS)
  };
  /// The table's counters plus every lane's, merged in shard order.
  Stats stats() const;

  std::size_t size() const { return entries_.size(); }
  std::size_t capacity() const { return capacity_; }
  /// Table slots allocated; changes only inside sweep().
  std::size_t slot_capacity() const { return entries_.slot_capacity(); }

  /// Test hooks, never used by the engine: `lock_for_testing` holds the
  /// table lock *exclusively* (as sweep does) so a unit test can force the
  /// contended-read fallback deterministically; `lock_shared_for_testing`
  /// holds it shared, proving readers never exclude each other.
  std::unique_lock<std::shared_mutex> lock_for_testing() {
    return std::unique_lock<std::shared_mutex>(mu_);
  }
  std::shared_lock<std::shared_mutex> lock_shared_for_testing() {
    return std::shared_lock<std::shared_mutex>(mu_);
  }

 private:
  struct Pending {
    RecordKey key;
    TierEntry entry;
  };

  /// Per-shard insert lane + read counters. Padded to its own cache lines
  /// so shard threads bumping counters never false-share.
  struct alignas(64) Lane {
    std::vector<Pending> pending;
    Stats counters;  ///< the lookup and deferred-insert counters
  };

  /// Guards entries_ and the sweep counters: shared for lookups, exclusive
  /// for the barrier-time sweep/stats.
  mutable std::shared_mutex mu_;
  RecordTable<TierEntry> entries_;
  std::size_t capacity_;
  SimTime retain_stale_ = 0;
  std::vector<Lane> lanes_;
  /// The sweep counters and the live image bytes.
  Stats counters_;
};

}  // namespace doxlab::dns
