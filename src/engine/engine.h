// The forwarder engine — a production-shaped descendant of proxy::DnsProxy.
//
// Where `DnsProxy` forwards one stub client to one upstream transport with
// its cache off (the paper's measurement configuration), `ForwarderEngine`
// serves *many* concurrent stub clients against a *pool* of upstream DoX
// resolvers:
//
//   * in-flight query coalescing — identical (qname, qtype) queries from
//     different clients share one upstream resolve; the answer fans back
//     out to every waiter with its own transaction id;
//   * a bounded L1 of response images (dns::WireCache, LRU capacity) with
//     RFC 8767 serve-stale: an expired entry is answered immediately with a
//     clamped TTL while a background refresh re-resolves it, and a
//     resolution failure falls back to stale data before SERVFAIL. Every
//     tier below it (shared L2, snapshot) stores the same images, so a
//     cached answer from any tier is one copy plus an ID/qclass/TTL patch;
//     queries are read by a validating scan, never fully decoded;
//   * cross-protocol upstream fallback with health tracking, via
//     `UpstreamPool` (DoQ -> DoT -> DoUDP, Happy-Eyeballs-style);
//   * a compiled policy chain (src/policy) evaluated on every query BEFORE
//     cache and coalescing — drop/refuse/truncate abusive traffic, route
//     qname suffixes to named upstream pools — so attack floods are shed
//     ahead of every expensive mechanism;
//   * a stats surface: coalesce rate, hit/stale/miss split, SERVFAILs,
//     per-upstream health and per-policy-rule hit counters.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "dns/packet_cache.h"
#include "dns/record_key.h"
#include "dns/snapshot_tier.h"
#include "dns/wire_cache.h"
#include "engine/upstream_pool.h"
#include "net/udp.h"
#include "policy/policy.h"
#include "stats/metrics.h"

namespace doxlab::engine {

/// How long past expiry a serve-stale entry may still be answered.
inline constexpr SimTime kMaxStale = 10 * kMinute;
/// TTL (seconds) stamped on stale answers (RFC 8767 §4 recommends <= 30).
inline constexpr std::uint32_t kStaleTtl = 30;

struct EngineConfig {
  /// Local port the stub listener binds.
  std::uint16_t listen_port = 53;
  /// Share one upstream resolve among identical concurrent queries.
  bool coalesce = true;
  bool cache_enabled = true;
  /// L1 capacity bound (entries); 0 = unbounded.
  std::size_t cache_capacity = 4096;
  /// RFC 8767 serve-stale: answer expired entries immediately (for up to
  /// kMaxStale past expiry, with kStaleTtl stamped) and refresh in the
  /// background.
  bool serve_stale = true;
  /// Clamp record TTLs on cache insert to at most this (seconds; 0 = no
  /// clamp). A low `max_ttl` forces refresh traffic — the serve-stale
  /// ablation knob.
  std::uint32_t max_ttl = 0;
  /// Upstream pool behaviour (timeouts, health thresholds, selection);
  /// shared by every named pool.
  PoolConfig pool;
  /// Policy rule chain, compiled at engine construction against the named
  /// upstream pools. Empty: every query is allowed (zero overhead).
  policy::ChainConfig policy;
  /// Shared L2 packet cache (sharded engine). Not owned; null = no L2.
  /// Consulted only after the local L1 has neither a fresh nor a stale
  /// entry; successful resolves are offered to it as deferred inserts.
  dns::SharedPacketCache* l2 = nullptr;
  /// Serve RFC 8767 stale answers straight from the shared L2 (default off
  /// so every pinned engine digest stays byte-identical): a stale L2 hit is
  /// answered with kStaleTtl stamped and owes exactly one background
  /// refresh, which re-promotes the fresh answer into the L1. The sharded
  /// runner must also extend the L2's sweep retention to kMaxStale.
  bool l2_serve_stale = false;
  /// This engine's shard index — selects its L2 insert lane and labels its
  /// rows in per-shard reports.
  std::uint32_t shard_index = 0;
  /// Persistent snapshot tier directory (empty = disabled, the default —
  /// pinned artifacts untouched). Each engine owns
  /// `<snapshot_dir>/shard-<shard_index>.snap`: construction replays the
  /// log and warm-starts the L1 (and offers fresh entries to the L2), every
  /// successful resolve is appended, and lookups fall back to it after an
  /// L2 miss — so a restarted engine never pays a cold-miss storm.
  std::string snapshot_dir;
};

/// Counters + health snapshot (cheap to copy; taken at any time). The
/// gauges are tier occupancy sampled when stats() is taken.
#define DOXLAB_ENGINE_METRICS(X)                                            \
  X(queries, kSum)            /* well-formed stub queries received */       \
  X(malformed, kSum)          /* stub datagrams dropped unanswered: failed  \
                                 scan, QR set, or no question */            \
  X(cache_hits, kSum)         /* answered fresh from the L1 cache */        \
  X(stale_hits, kSum)         /* answered stale (RFC 8767; any source) */   \
  X(misses, kSum)             /* needed an upstream resolve */              \
  X(coalesced, kSum)          /* joined an in-flight resolve */             \
  X(l2_hits, kSum)            /* answered from the shared L2 cache */       \
  X(l2_lookups, kSum)         /* L1-missing queries that probed L2 */       \
  X(upstream_resolves, kSum)  /* pool resolves started */                   \
  X(upstream_attempts, kSum)  /* transport attempts (incl. retries) */      \
  X(failovers, kSum)          /* attempts beyond a query's first */         \
  X(stale_refreshes, kSum)    /* background refreshes triggered */          \
  X(servfails_sent, kSum)     /* mirrors proxy::DnsProxy's counter */       \
  /* Per-tier surface (dns/cache_tier.h): l1_* is the engine's own image    \
     L1 (l1_bytes counts image bytes), snapshot_* its SnapshotTier. The     \
     shared L2's counters are the sharded runner's (ShardedResult::l2). */  \
  X(l1_lookups, kSum)                                                       \
  X(l1_evictions, kSum)       /* LRU evictions at the L1 capacity */        \
  X(l1_entries, kGauge)                                                     \
  X(l1_bytes, kGauge)                                                       \
  X(snapshot_hits, kSum)      /* answered from the snapshot tier */         \
  X(snapshot_lookups, kSum)   /* L2-missing queries that probed it */       \
  X(snapshot_evictions, kSum)                                               \
  X(snapshot_entries, kGauge)                                               \
  X(snapshot_bytes, kGauge)                                                 \
  X(snapshot_warm_loaded, kSum)  /* entries promoted at startup */          \
  /* Policy pipeline surface. */                                            \
  X(policy_evaluations, kSum) /* queries through the chain */               \
  X(policy_dropped, kSum)     /* kDrop: discarded silently */               \
  X(policy_refused, kSum)     /* kRefuse: answered with RCODE */            \
  X(policy_truncated, kSum)   /* kTruncate: TC=1 answers */                 \
  X(policy_routed, kSum)      /* kRoutePool to a non-default pool */        \
  /* Link-level path pressure (net::Link totals for the world's fabric;     \
     zero when no link models are configured). */                           \
  X(link_packets, kSum)       /* packets that traversed a link */           \
  X(link_drops, kSum)         /* tail-drops at full link queues */          \
  X(link_burst_losses, kSum)  /* Gilbert-Elliott erasures */                \
  X(link_queue_peak, kMax)    /* max backlog bytes on any link */
struct EngineStats {
  DOXLAB_METRICS(EngineStats, DOXLAB_ENGINE_METRICS)

  /// Failed upstream attempts, tallied per util::ErrorClass (timeouts,
  /// resets, REFUSED answers, ...), aggregated across named pools.
  util::ErrorCounters upstream_errors;
  std::vector<UpstreamHealth> upstreams;
  /// Policy verdicts keyed into the PR-4 failure taxonomy: refusals count
  /// as kRcode, truncations as kTruncated, silent drops as kCancelled (the
  /// engine deliberately tore the query down; the client sees a timeout).
  util::ErrorCounters policy_errors;
  /// Per-rule hit counters in chain order (`doxperf --policy-csv`).
  std::vector<policy::RuleStats> policy_rules;

  /// Fraction of evaluated queries the chain refused/dropped/truncated.
  double policy_shed_rate() const {
    const std::uint64_t shed =
        policy_dropped + policy_refused + policy_truncated;
    return policy_evaluations == 0
               ? 0.0
               : static_cast<double>(shed) /
                     static_cast<double>(policy_evaluations);
  }

  /// Merges `other` into this: sibling shards, or a restart's later world
  /// onto the earlier one. Counters follow their table rule; upstream
  /// health rows append across shards (each shard has its own pool) and
  /// merge row by row across a restart (attempts and failures add, the
  /// health is the later world's); per-rule policy counters sum
  /// elementwise when the chains line up (identical config per shard) and
  /// append otherwise.
  void add(const EngineStats& other, stats::Across across);

  /// Fraction of cache-missing queries that coalesced onto an existing
  /// in-flight resolve.
  double coalesce_rate() const {
    const std::uint64_t candidates = misses + coalesced;
    return candidates == 0
               ? 0.0
               : static_cast<double>(coalesced) /
                     static_cast<double>(candidates);
  }
};

class ForwarderEngine {
 public:
  /// Binds the stub listener on `stub_udp`, groups `upstreams` into named
  /// pools (order of first appearance; the first upstream's pool is the
  /// default routing target), compiles the policy chain against those pool
  /// names, and creates upstream transports from `deps` as pools first use
  /// them. Throws std::invalid_argument if the chain references an unknown
  /// pool.
  ForwarderEngine(sim::Simulator& sim, net::UdpStack& stub_udp,
                  const dox::TransportDeps& upstream_deps,
                  std::vector<UpstreamConfig> upstreams, EngineConfig config);

  ForwarderEngine(const ForwarderEngine&) = delete;
  ForwarderEngine& operator=(const ForwarderEngine&) = delete;

  /// Drops upstream connections (keeps tickets/tokens) across all pools.
  void reset_sessions() {
    for (auto& pool : pools_) pool->reset_sessions();
  }

  const EngineConfig& config() const { return config_; }
  std::size_t pool_count() const { return pools_.size(); }
  UpstreamPool& pool(std::size_t index = 0) { return *pools_[index]; }
  const std::vector<std::string>& pool_names() const { return pool_names_; }
  /// The L1: response images by (qname, qtype).
  const dns::WireCache& cache() const { return l1_; }

  EngineStats stats() const;
  /// The persistent snapshot tier, or null when snapshot_dir is empty.
  const dns::SnapshotTier* snapshot() const { return snapshot_.get(); }

 private:
  struct Waiter {
    net::Endpoint from;
    std::uint16_t stub_id = 0;
  };
  struct InFlight {
    std::vector<Waiter> waiters;  ///< empty for a pure background refresh
  };

  void on_stub_query(const net::Endpoint& from,
                     util::Buffer payload);
  /// Burst entry point (batched delivery): consumes every datagram in one
  /// event while staging responses, then flushes them with one batched
  /// send. Per-query behaviour is identical to per-datagram delivery.
  void on_stub_batch(std::span<net::Datagram> batch);
  /// Ships an encoded response: immediately, or staged onto the batch
  /// flush when inside on_stub_batch.
  void ship(const net::Endpoint& to, util::Buffer wire);
  /// Applies a terminal policy verdict (drop/refuse/truncate). Returns true
  /// when the query was consumed and must not proceed to resolution.
  bool apply_policy_verdict(const policy::Verdict& verdict,
                            const Waiter& waiter,
                            const dns::Question& question);
  /// Answers from a cached image: one copy, then the waiter's ID, `qclass`
  /// and the TTL rewrite patched in.
  void answer_image(const Waiter& waiter, const dns::ResponseImage& image,
                    dns::RRClass qclass, dns::TtlRewrite ttl);
  /// Stores an image whose TTLs are already decayed to their remaining
  /// lifetime, stamped now: into the L1 and, with `to_l2`, the shared L2.
  void promote(const dns::DnsName& name, dns::RRType type,
               const dns::ResponseImage& image, bool to_l2);
  /// Answers a hit from a tier below the L1 (shared L2 or snapshot). A
  /// fresh hit is promoted with decayed TTLs into the L1 and, with
  /// `to_l2`, the shared L2, then answered by patch. A stale one answers
  /// with the stale TTL stamped and triggers exactly one background
  /// refresh (no promotion — the refresh re-promotes fresh data).
  void answer_tier_hit(const Waiter& waiter, const dns::Question& question,
                       const dns::TierHit& hit, std::uint32_t pool_index,
                       bool to_l2);
  /// Answers a stale tier hit with the stale TTL stamped and starts the
  /// hierarchy's single background refresh unless one is already in
  /// flight.
  void answer_stale_with_refresh(const Waiter& waiter,
                                 const dns::Question& question,
                                 const dns::ResponseImage& image,
                                 std::uint32_t pool_index);
  /// Warm-start protocol: promotes every still-fresh snapshot entry into
  /// the L1 (TTLs decayed to their remaining lifetime) and offers it to the
  /// shared L2. Runs once, at construction, when snapshot_dir is set.
  void warm_start_from_snapshot();
  void answer_servfail(const Waiter& waiter, const dns::Question& question);
  /// Stamps header flags and the question on the scratch response (its
  /// answers are the caller's) and returns it.
  dns::Message& stage_response(const dns::Question& question,
                               dns::RCode rcode, bool tc = false);
  /// Ships the staged scratch response as one pooled buffer — SERVFAIL and
  /// policy answers. `tc` sets the truncation bit (policy kTruncate).
  void send_response(const Waiter& waiter, const dns::Question& question,
                     dns::RCode rcode, bool tc = false);
  /// Starts an upstream resolve for `key` on pool `pool_index` (the
  /// coalescing point).
  void start_resolve(const dns::RecordKey& key, const dns::Question& question,
                     std::uint32_t pool_index);
  void on_upstream_result(const dns::RecordKey& key,
                          const dns::Question& question,
                          dox::QueryResult result);
  /// Encodes a successful result into one image, stores it in every tier
  /// and answers `waiters` from it (or stale/SERVFAIL on failure).
  void deliver(std::vector<Waiter> waiters, const dns::Question& question,
               dox::QueryResult result);
  std::vector<dns::ResourceRecord> clamp_ttls(
      std::vector<dns::ResourceRecord> records) const;

  sim::Simulator& sim_;
  EngineConfig config_;
  std::unique_ptr<net::UdpSocket> listener_;
  /// Named upstream pools, grouped from the upstream configs (index 0 is
  /// the default routing target). Names in `pool_names_` align by index.
  std::vector<std::unique_ptr<UpstreamPool>> pools_;
  std::vector<std::string> pool_names_;
  /// Compiled policy chain; empty means every query is allowed.
  policy::RuleChain chain_;
  dns::WireCache l1_;
  /// Persistent snapshot tier; null when snapshot_dir is empty.
  std::unique_ptr<dns::SnapshotTier> snapshot_;
  dns::RecordMap<InFlight> inflight_;
  /// Reusable scratch: every query scans into `scratch_head_` and SERVFAIL,
  /// policy and image builds stage in `scratch_response_`, so their
  /// string/vector storage reaches a high-water mark and steady-state
  /// queries allocate nothing.
  dns::MessageHead scratch_head_;
  dns::Message scratch_response_;
  /// True while on_stub_batch is draining a burst: responses stage onto
  /// `response_flush_` instead of going out one send at a time.
  bool batching_ = false;
  std::vector<net::OutboundDatagram> response_flush_;

  /// The counters the engine counts itself; stats() adds the sampled
  /// tier, pool and chain views.
  EngineStats counters_;
};

}  // namespace doxlab::engine
