// One shard of the sharded forwarder engine: a complete, self-contained
// simulated world (event loop, network, upstream resolvers, ForwarderEngine,
// stub-client swarm) that runs on one thread at a time.
//
// The coordinator (engine/sharded.h) hashes stub clients onto shards by
// source address and hands each shard its slice of one global arrival
// schedule. Everything inside a shard is derived from (seed, shard index)
// only — never from the shard *count* or from wall-clock — so a shard's
// event stream is bit-identical run to run; the simulator's
// event_stream_digest() pins exactly that in the determinism tests.
//
// The swarm client differs from engine/load_gen.h's LoadGenerator: instead
// of one ephemeral socket per client (the UDP stack has ~16k ephemeral
// ports; the sharded scenario drives millions of clients), the whole shard
// shares ONE socket and stamps each query with its client's source address
// via send_to_from. Replies route back through the client prefix and demux
// by DNS transaction id, so per-client state is zero bytes — client count
// scales to millions for free.
//
// Off the heap allocator: each name's query image is encoded once, on first
// use, and a send copies it into a pooled buffer and patches the id; answers
// decode into one scratch message; in-flight queries live in a flat table
// indexed by transaction id. Arrivals stream through an arrival cursor: the
// shard holds its slice and keeps exactly one arrival event queued, under
// sequence numbers reserved where the whole slice used to be scheduled (see
// sim/simulator.h), so the event stream is the one eager scheduling gives.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "dns/message.h"
#include "dns/packet_cache.h"
#include "dox/transport.h"
#include "engine/engine.h"
#include "engine/load_gen.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "tcp/tcp.h"

namespace doxlab::engine {

/// One entry of the global arrival schedule: at simulated time `at`, client
/// `client` asks for name index `name`. Generated once by the coordinator
/// from the seed — identical for every shard count.
struct Arrival {
  SimTime at = 0;
  std::uint32_t client = 0;
  std::uint32_t name = 0;
};

/// Workload + world parameters shared by every shard (the coordinator's
/// config; see sharded.h for the fields' one-stop documentation).
struct ShardedConfig {
  std::uint32_t shards = 1;
  std::uint64_t seed = 42;
  /// Simulated stub clients across ALL shards (source-hashed onto shards).
  std::size_t clients = 1'000'000;
  /// Aggregate Poisson arrival rate across all shards, queries per second.
  double qps = 20'000.0;
  SimTime duration = 10 * kSecond;
  std::size_t names = 500;
  double zipf_exponent = 1.0;
  SimTime client_timeout = 8 * kSecond;
  /// Client source addressing (mirrors LoadConfig): client i sends from
  /// `client_base + splitmix64(seed, i) % client_span`. Each shard routes
  /// the narrowest prefix covering the whole span back to its swarm
  /// socket, so any span fits.
  net::IpAddress client_base = net::IpAddress::from_octets(10, 50, 0, 0);
  std::uint32_t client_span = 1 << 16;
  /// Per-shard engine template; `l2` and `shard_index` are stamped per
  /// shard, and rate-limit budgets are sliced across shards
  /// (policy::scale_rate_limits — /32-keyed rules keep the full budget).
  EngineConfig engine;
  std::vector<SimTime> upstream_one_way = {from_ms(25), from_ms(40),
                                           from_ms(60)};
  std::vector<dox::DnsProtocol> protocols = {dox::DnsProtocol::kDoQ,
                                             dox::DnsProtocol::kDoT,
                                             dox::DnsProtocol::kDoUdp};
  /// Shared L2 packet cache (0 capacity disables it).
  std::size_t l2_capacity = 1 << 16;
  /// Epoch length: shards run independently for one epoch, then barrier at
  /// its end for the L2 sweep.
  SimTime epoch = 100 * kMillisecond;
  /// Batched-delivery aggregation window (`--batch-us`; 0 = per-datagram
  /// events). Applied to each shard's fabric: UDP datagrams landing on one
  /// host within the window coalesce into a single PacketBatch event, and
  /// the engine answers the burst with one batched flush. Changes event
  /// count/order (and the stream digest) but never per-query outcomes —
  /// that is what `outcome_digest` pins.
  SimTime batch_window = 0;
  /// Worker threads driving the shards (<= 0: one per hardware thread).
  int threads = 0;
  /// Optional finite-rate bottleneck link on each shard host's ingress
  /// (all stub queries and upstream answers drain through it). Exercises
  /// the link queues under engine load — the TSan CI stage runs one; the
  /// default (unset) keeps the pinned digests' event streams.
  std::optional<net::LinkConfig> bottleneck;
};

/// The source address client `index` sends from (shared by the coordinator
/// for shard assignment and by the shard for query stamping).
net::IpAddress client_source(const ShardedConfig& config, std::uint32_t index);

/// Which shard owns `source`: splitmix64 over the address, mod shard count.
std::uint32_t shard_of(const ShardedConfig& config, net::IpAddress source);

/// The swarm's query for name index `name` ("name<name>.load.example", type
/// A, EDNS0 with a client cookie) under transaction id 0: byte-identical to
/// dns::make_query(0, name, kA).encode().
std::vector<std::uint8_t> swarm_query_image(std::uint32_t name);

/// Copies a query `image` into a pooled buffer and patches in `id`.
util::Buffer swarm_query(std::span<const std::uint8_t> image,
                         std::uint16_t id);

class EngineShard {
 public:
  /// Builds the shard's world and takes ownership of its `arrivals` slice,
  /// which must be sorted by time (the coordinator's schedule is). `l2` may
  /// be null (no shared cache). The ShardedConfig must outlive the shard.
  EngineShard(const ShardedConfig& config, std::uint32_t index,
              std::vector<Arrival> arrivals, dns::SharedPacketCache* l2);

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Advances this shard's simulated clock to `deadline` (one epoch's
  /// worth). Must not run concurrently with itself; the coordinator calls
  /// it from at most one pool worker at a time.
  void run_until(SimTime deadline);

  std::uint32_t index() const { return index_; }
  EngineStats engine_stats() const {
    EngineStats stats = engine_->stats();
    const net::LinkStats links = network_->link_totals();
    stats.link_packets = links.packets;
    stats.link_drops = links.tail_drops;
    stats.link_burst_losses = links.burst_losses;
    stats.link_queue_peak = links.queued_bytes_max;
    return stats;
  }
  const LoadReport& report() const { return report_; }
  std::uint64_t events_executed() const { return sim_.events_executed(); }
  /// True once this shard is past the arrival window with no client query
  /// awaiting an answer: everything left in the event queue is engine
  /// housekeeping (idle timers, keep-alives). The coordinator then collapses
  /// the remaining settle window into a single epoch — the same events
  /// execute in the same order, it just stops barriering for a swarm that
  /// has nothing more to say. Pure function of sim state, so deterministic.
  bool drained() const {
    return sim_.now() >= config_.duration && in_flight_ == 0;
  }
  std::uint64_t stream_digest() const { return sim_.event_stream_digest(); }
  /// Commutative per-query outcome fingerprint: every terminal outcome
  /// (answered / servfail / timeout / shed) folds
  /// splitmix64(seed ^ sent_at, outcome class) into a SUM, so the digest is
  /// invariant to answer ordering, shard assignment, and delivery batching
  /// — it changes iff some query's outcome (or send time) changes. The
  /// batch-determinism ctest compares it across --batch-us settings, where
  /// the event-stream digest necessarily differs.
  std::uint64_t outcome_digest() const { return outcome_digest_; }
  std::size_t arrivals_scheduled() const { return arrivals_.size(); }
  /// Moves the load report out (the coordinator's merge, once the run is
  /// over); report() is empty afterwards.
  LoadReport take_report() { return std::move(report_); }

 private:
  struct PendingQuery {
    SimTime sent_at = 0;
    sim::Timer timeout;
    bool live = false;
  };

  enum OutcomeClass : std::uint64_t {
    kOutcomeAnswered = 1,
    kOutcomeServfail = 2,
    kOutcomeTimeout = 3,
    kOutcomeShed = 4,
  };
  void book_outcome(SimTime sent_at, std::uint64_t outcome);

  /// Queues arrivals_[next_arrival_] under its reserved sequence number.
  void schedule_arrival();
  void on_arrival();
  void send_query(std::uint32_t client, std::uint32_t name_index);
  void on_response(util::Buffer payload);
  /// Frees a terminal query's id slot.
  void finish(PendingQuery& pending);

  const ShardedConfig& config_;
  std::uint32_t index_;
  std::vector<Arrival> arrivals_;
  std::size_t next_arrival_ = 0;
  /// First of arrivals_.size() sequence numbers reserved at construction.
  std::uint64_t arrival_seq_ = 0;
  sim::Simulator sim_;
  std::unique_ptr<net::Network> network_;
  net::Host* host_ = nullptr;
  std::unique_ptr<net::UdpStack> udp_;
  std::unique_ptr<tcp::TcpStack> tcp_;
  tls::TicketStore tickets_;
  dox::DoqSessionCache doq_cache_;
  std::vector<std::unique_ptr<resolver::DoxResolver>> resolvers_;
  std::unique_ptr<ForwarderEngine> engine_;

  /// Swarm client state: one socket for every client on this shard.
  std::unique_ptr<net::UdpSocket> swarm_;
  net::Endpoint target_;
  /// Query images by name index, each built on first use (empty until then).
  std::vector<std::vector<std::uint8_t>> images_;
  dns::Message response_;  ///< decode scratch for answers
  std::uint16_t next_id_ = 1;
  /// In-flight queries indexed by transaction id (65536 slots).
  std::vector<PendingQuery> pending_;
  std::size_t in_flight_ = 0;
  std::uint64_t outcome_digest_ = 0;
  LoadReport report_;
};

}  // namespace doxlab::engine
