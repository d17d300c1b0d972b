// One shard of the sharded forwarder engine: a complete, self-contained
// simulated world (event loop, network, upstream resolvers, ForwarderEngine,
// stub-client swarm) that runs on one thread at a time.
//
// The coordinator (engine/sharded.h) hashes stub clients onto shards by
// source address and streams each shard its share of the one arrival
// schedule (engine/schedule.h). Everything inside a shard is derived from
// (seed, shard index) only — never from the shard *count* or from
// wall-clock — so a shard's event stream is bit-identical run to run; the
// simulator's event_stream_digest() pins exactly that in the determinism
// tests.
//
// The swarm client does not open one ephemeral socket per client (the UDP
// stack has ~16k ephemeral ports; the sharded scenario drives millions of
// clients): the whole shard shares ONE socket and stamps each query with
// its client's source address via send_to_from. Replies route back through
// the client prefix and demux by DNS transaction id, so per-client state is
// zero bytes — client count scales to millions for free.
//
// Off the heap allocator: each query is composed straight into a pooled
// buffer; answers are read by one validating scan (id, flags, question)
// into one scratch head, never fully decoded; in-flight queries live in a
// flat table indexed by transaction id, and their timeouts in a FIFO of
// deadlines under one armed timer. Arrivals stream through an arrival
// cursor: the shard's arrival window holds the runs the coordinator has
// drawn so far, and the cursor keeps exactly one arrival event queued,
// under sequence numbers reserved at construction for all of the shard's
// entries (see sim/simulator.h), so the event stream is the one eager
// scheduling gives. The swarm's state is bounded by the window, not the
// run (DESIGN 10.1); only the latency samples grow with it.
//
// Attack entries, churn events, restart probes and the send-time series
// only exist when the config asks for them; without them the world and its
// event stream are the plain engine run's.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/message.h"
#include "dns/packet_cache.h"
#include "dox/transport.h"
#include "engine/engine.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "stats/metrics.h"
#include "stats/stats.h"
#include "tcp/tcp.h"

namespace doxlab::engine {

/// One entry of the arrival schedule, drawn by the coordinator from the
/// seed — identical for every shard count (engine/schedule.h). A legit
/// entry means client `client` asks for name index `name` at `at`. An
/// attack entry has kAttackTag set in `name` (the low bits index
/// ShardedConfig::attacks) and carries its spoofed source address in
/// `client`.
struct Arrival {
  SimTime at = 0;
  std::uint32_t client = 0;
  std::uint32_t name = 0;
};
// A shard's arrival window holds a few chunks' runs of these, and every
// fill writes them: keep them small.
static_assert(sizeof(Arrival) == 16, "Arrival must stay 16 bytes");

/// Marks an attack entry's `name` field; legit name indices stay below it.
inline constexpr std::uint32_t kAttackTag = 0x80000000u;

/// How long a swarm client waits for an answer before booking a timeout.
inline constexpr SimTime kClientTimeout = 8 * kSecond;

/// Abuse-traffic families (the attack mixes behind `doxperf abuse`).
enum class AttackKind : std::uint8_t {
  /// Cache-busting flood: a fresh random label under `zone` per query, so
  /// every query misses the cache and reaches the upstream path.
  kRandomSubdomain,
  /// Water torture: random labels under rotating subzones of `zone` — the
  /// classic NXDOMAIN flood shape against one victim domain.
  kWaterTorture,
  /// Reflection/amplification: small TXT queries whose spoofed sources are
  /// the victim's addresses, so answers (the amplified payload) backscatter
  /// towards the victim instead of the bot.
  kAmplification,
};

std::string_view attack_kind_name(AttackKind kind);

/// One attack mix: Poisson arrivals at `qps` from `start` until the arrival
/// window closes, each from a source in [source_base, source_base +
/// source_count). Bot sources (floods, torture) route back to the shard;
/// amplification sources route to a victim host, so the backscatter never
/// returns.
struct AttackConfig {
  AttackKind kind = AttackKind::kRandomSubdomain;
  double qps = 1000.0;
  SimTime start = 0;
  /// Zone the attack queries live under (one policy suffix rule covers the
  /// whole family).
  std::string zone = "flood.example";
  net::IpAddress source_base;
  std::uint32_t source_count = 256;
  /// kAmplification: requested TXT payload bytes (the resolver sizes the
  /// answer from a leading "txt<bytes>" label).
  std::size_t amp_payload = 1200;
};

/// What came back to one attack's sockets. Spoofed sources outside the
/// shard's prefixes never answer, so those counters stay at `sent` only.
#define DOXLAB_ATTACK_METRICS(X)                                            \
  X(sent, kSum)                                                             \
  X(answered, kSum)   /* non-error responses */                             \
  X(refused, kSum)    /* REFUSED (the policy shed) */                       \
  X(truncated, kSum)  /* TC=1 (policy slow-pathed the abuser) */
struct AttackReport {
  AttackKind kind = AttackKind::kRandomSubdomain;
  DOXLAB_METRICS(AttackReport, DOXLAB_ATTACK_METRICS)
};

/// Resolver-churn transitions. kOutage/kRecover take the upstream host down
/// and back (the pool discovers it through timeouts and quarantine);
/// kWithdraw/kAnnounce remove it from and restore it to the default pool's
/// candidate plan (an anycast catchment shift: no timeout is paid).
enum class ChurnAction : std::uint8_t {
  kOutage,
  kRecover,
  kWithdraw,
  kAnnounce,
};

std::string_view churn_action_name(ChurnAction action);

struct ChurnEvent {
  SimTime at = 0;
  std::size_t upstream = 0;  ///< index into `upstream_one_way`
  ChurnAction action = ChurnAction::kOutage;
};

/// The legit client-visible counters of a run (attack traffic is counted
/// in AttackReport).
#define DOXLAB_LOAD_METRICS(X)                                              \
  X(sent, kSum)                                                             \
  X(answered, kSum)   /* non-SERVFAIL responses */                          \
  X(servfails, kSum)  /* client-visible SERVFAILs */                        \
  X(timeouts, kSum)   /* gave up waiting */                                 \
  /* Arrivals dropped before sending (the swarm's 16-bit transaction-id     \
     space was exhausted); sent + shed == arrivals offered. */              \
  X(shed, kSum)                                                             \
  /* High waters of the swarm's bounded state (DESIGN 10.1): schedule       \
     chunks in the arrival window, entries in the deadline FIFO. */         \
  X(window_chunks_peak, kMax)                                               \
  X(deadline_fifo_peak, kMax)
struct LoadReport {
  DOXLAB_METRICS(LoadReport, DOXLAB_LOAD_METRICS)
  std::vector<double> latency_ms;  ///< answered queries only

  /// Merges `other`'s counters into this by the table's rules and moves its
  /// samples over: taken whole when this has room for none, appended
  /// otherwise. `other` keeps its counters and is left with no samples.
  void add(LoadReport&& other, stats::Across across) {
    stats::merge(*this, other, across);
    std::vector<double> samples = std::exchange(other.latency_ms, {});
    if (latency_ms.capacity() == 0) {
      latency_ms = std::move(samples);
    } else {
      latency_ms.insert(latency_ms.end(), samples.begin(), samples.end());
    }
  }
  /// Every *sent* query reached a terminal outcome (shed never went out).
  bool complete() const { return answered + servfails + timeouts == sent; }
  stats::Summary latency_summary() const {
    return stats::Summary::of(latency_ms);
  }
};

/// One send-time bucket of the legit series: the queries sent in
/// [start, start + width) by terminal outcome, with the answered ones'
/// latencies.
#define DOXLAB_SERIES_METRICS(X)                                            \
  X(answered, kSum)                                                         \
  X(servfails, kSum)                                                        \
  X(timeouts, kSum)
struct SeriesBucket {
  SimTime start = 0;
  DOXLAB_METRICS(SeriesBucket, DOXLAB_SERIES_METRICS)
  std::vector<double> latency_ms = {};

  std::uint64_t sent() const { return answered + servfails + timeouts; }
  double answer_rate() const {
    return sent() == 0 ? 0.0
                       : static_cast<double>(answered) /
                             static_cast<double>(sent());
  }
};

/// Workload + world parameters shared by every shard (the coordinator's
/// config).
struct ShardedConfig {
  std::uint32_t shards = 1;
  std::uint64_t seed = 42;
  /// Simulated stub clients across ALL shards (source-hashed onto shards).
  std::size_t clients = 1'000'000;
  /// Aggregate Poisson arrival rate across all shards, queries per second.
  double qps = 20'000.0;
  /// Arrival window [0, duration); attack entries fall inside it too.
  SimTime duration = 10 * kSecond;
  std::size_t names = 500;
  /// Client source addressing: client i sends from
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
  /// Threads driving the shards, the caller included (<= 0: one per
  /// hardware thread). At 1 the caller runs every task and no thread
  /// starts.
  int threads = 0;
  /// Optional finite-rate bottleneck link on each shard host's ingress
  /// (all stub queries and upstream answers drain through it). Exercises
  /// the link queues under engine load — the TSan CI stage runs one; the
  /// default (unset) keeps the pinned digests' event streams.
  std::optional<net::LinkConfig> bottleneck;
  /// Attack mixes, each drawn on its own RNG lane and merged by time into
  /// the schedule. When non-empty every shard also binds one socket per
  /// attack, routes the bot and victim prefixes, and duplicates upstream 0
  /// into an "anycast" pool for the policy chain to route to.
  std::vector<AttackConfig> attacks;
  /// Churn events, applied by every shard to its own copy of the upstream
  /// at the event's exact time.
  std::vector<ChurnEvent> churn;
  /// Restart the forwarder at this instant (0 = never): the arrivals
  /// before it run and drain in one set of worlds, then every shard and
  /// the L2 are rebuilt at `restart_at` (warm-starting from the snapshot
  /// tier when `engine.snapshot_dir` is set) and take the rest.
  SimTime restart_at = 0;
  /// Send-time series bucket width (0 = no series).
  SimTime series_bucket = 0;
};

/// The source address client `index` sends from (shared by the coordinator
/// for shard assignment and by the shard for query stamping).
net::IpAddress client_source(const ShardedConfig& config, std::uint32_t index);

/// Which shard owns `source`: splitmix64 over the address, mod shard count.
std::uint32_t shard_of(const ShardedConfig& config, net::IpAddress source);

/// The swarm's query for name index `name` ("name<name>.load.example", type
/// A, EDNS0 with a client cookie) under transaction id `id`, composed in a
/// pooled buffer: byte-identical to dns::make_query(id, name, kA).encode().
util::Buffer swarm_query(std::uint32_t name, std::uint16_t id);

class Schedule;

/// The part of a run one set of shard worlds covers: the clock starts at
/// `start`, the arrivals fall in [start, stop), and the engine counters are
/// copied at each `probes` instant.
struct Segment {
  SimTime start = 0;
  SimTime stop = 0;
  std::vector<SimTime> probes;
};

class EngineShard {
 public:
  /// Builds the shard's world for `segment`, whose arrivals are
  /// `schedule`'s (only its counts are read here: the entries come by
  /// `extend`). `l2` may be null (no shared cache). The ShardedConfig must
  /// outlive the shard.
  EngineShard(const ShardedConfig& config, std::uint32_t index,
              const Schedule& schedule, dns::SharedPacketCache* l2,
              const Segment& segment);

  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// Hands out one cleared run per element of `runs` for the next fill,
  /// recycled from runs the cursor has walked where there are any.
  void lend_runs(std::span<std::vector<Arrival>> runs);
  /// Appends filled `runs` (this shard's entries of the next chunks, in
  /// order) to the arrival window; every entry stored before `horizon` has
  /// now been drawn. Queues the cursor's next entry if it was waiting.
  /// Throws std::logic_error if the runs would reorder the shard's entries
  /// or queue one after the loop could have popped past it.
  void extend(std::span<std::vector<Arrival>> runs, SimTime horizon);

  /// Advances this shard's simulated clock to `deadline` (one epoch's
  /// worth), which must fall before the window's horizon (std::logic_error
  /// otherwise). Must not run concurrently with itself; the coordinator
  /// calls it from at most one pool worker at a time.
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
  std::uint64_t events_executed() const { return sim_.events_executed(); }
  /// True once this shard is past its arrival window with no client query
  /// awaiting an answer: everything left in the event queue is engine
  /// housekeeping (idle timers, keep-alives). The coordinator then collapses
  /// the remaining settle window into a single epoch — the same events
  /// execute in the same order, it just stops barriering for a swarm that
  /// has nothing more to say. Pure function of sim state, so deterministic.
  bool drained() const { return sim_.now() >= stop_ && in_flight_ == 0; }
  std::uint64_t stream_digest() const { return sim_.event_stream_digest(); }
  /// Commutative per-query outcome fingerprint: every terminal outcome
  /// (answered / servfail / timeout / shed) folds
  /// splitmix64(seed ^ sent_at, outcome class) into a SUM, so the digest is
  /// invariant to answer ordering, shard assignment, and delivery batching
  /// — it changes iff some query's outcome (or send time) changes. The
  /// batch-determinism ctest compares it across --batch-us settings, where
  /// the event-stream digest necessarily differs.
  std::uint64_t outcome_digest() const { return outcome_digest_; }
  /// Legit schedule entries this shard owns in its segment.
  std::size_t arrivals_scheduled() const { return legit_arrivals_; }
  /// Moves the load report out (the coordinator's merge, once the run is
  /// over).
  LoadReport take_report() { return std::move(report_); }
  /// Per-attack counters, in ShardedConfig::attacks order.
  const std::vector<AttackReport>& attack_reports() const {
    return attack_reports_;
  }
  /// Churn events this shard applied.
  std::uint64_t churn_applied() const { return churn_applied_; }
  /// Engine counters copied at each Segment::probes instant.
  const std::vector<EngineStats>& probes() const { return probes_; }
  /// Send-time series buckets (empty unless series_bucket is set).
  const std::vector<SeriesBucket>& series() const { return series_; }

 private:
  /// An in-flight query's slot in the id table.
  struct PendingQuery {
    SimTime sent_at = 0;
    /// The sequence number reserved for its timeout when it was sent; 0
    /// while the slot is free (a query's number follows the arrival block
    /// reserved at construction, so it is never 0).
    std::uint64_t timeout_seq = 0;

    bool live() const { return timeout_seq != 0; }
  };
  // A shard with arrivals holds 65536 of them: keep them small.
  static_assert(sizeof(PendingQuery) == 16, "PendingQuery must stay 16 B");
  /// One entry of the deadline FIFO: a sent query, in send order. It is
  /// dead once the slot `id` no longer holds `seq` (answered, or the id
  /// taken by a later query).
  struct Deadline {
    std::uint64_t seq : 48;
    std::uint64_t id : 16;
  };
  static_assert(sizeof(Deadline) == 8, "Deadline must stay 8 B");

  enum OutcomeClass : std::uint64_t {
    kOutcomeAnswered = 1,
    kOutcomeServfail = 2,
    kOutcomeTimeout = 3,
    kOutcomeShed = 4,
  };
  void book_outcome(SimTime sent_at, std::uint64_t outcome);
  /// Books a sent query's terminal outcome, and its series bucket when the
  /// series is on. `latency_ms` is read for kOutcomeAnswered only.
  void book_terminal(SimTime sent_at, std::uint64_t outcome,
                     double latency_ms);

  /// Adds the attack sockets, routes and anycast pool (attacks configured).
  void build_attack_world(std::vector<UpstreamConfig>& upstreams);
  /// Schedules the segment's churn events and stat probes.
  void schedule_segment_events(const Segment& segment);
  void apply_churn(const ChurnEvent& event);

  /// Queues the window's next entry under its reserved sequence number,
  /// recycling the runs walked to their end; queues nothing while the
  /// window is empty.
  void schedule_arrival();
  void on_arrival();
  void send_query(std::uint32_t client, std::uint32_t name_index);
  void send_attack(const Arrival& arrival);
  void on_response(util::Buffer payload);
  void on_attack_response(std::size_t attack, const util::Buffer& payload);
  /// Frees a terminal query's id slot.
  void finish(PendingQuery& pending);

  /// Appends a sent query to the deadline FIFO, arming the timer on it if
  /// the FIFO was empty.
  void push_deadline(std::uint64_t seq, std::uint16_t id);
  /// Drops the dead entries at the FIFO's head and arms the timer on the
  /// first live one, at its query's (deadline, reserved sequence number).
  void arm_deadline();
  /// The armed head timed out.
  void on_deadline();

  const ShardedConfig& config_;
  std::uint32_t index_;
  std::size_t legit_arrivals_ = 0;
  /// The arrival window: runs_[run_..] are the drawn runs not yet walked,
  /// one per chunk, and entry_ is the cursor's place in runs_[run_].
  std::vector<std::vector<Arrival>> runs_;
  std::size_t run_ = 0;
  std::size_t entry_ = 0;
  /// Walked runs, cleared by the next fill and written again.
  std::vector<std::vector<Arrival>> spare_runs_;
  /// Every entry stored before this time is in the window.
  SimTime horizon_ = 0;
  /// The last epoch deadline run: no event after it has been popped.
  SimTime ran_to_ = -1;
  /// Schedule entries passed to the simulator so far (entry k fires under
  /// arrival_seq_ + k).
  std::uint64_t next_arrival_ = 0;
  /// First of the shard's schedule.entries() sequence numbers, reserved at
  /// construction.
  std::uint64_t arrival_seq_ = 0;
  /// End of this segment's arrival window (the drain check).
  SimTime stop_ = 0;
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
  dns::MessageHead response_;  ///< scan scratch for answers
  std::uint16_t next_id_ = 1;
  /// In-flight queries indexed by transaction id (65536 slots).
  std::vector<PendingQuery> pending_;
  std::size_t in_flight_ = 0;
  /// The deadline FIFO: a ring over deadlines_ (its size a power of two)
  /// of fifo_size_ entries from fifo_head_. Every timeout has the same
  /// length, so send order is deadline order; while the FIFO is not empty
  /// its head is live and `deadline_timer_` is armed on it.
  std::vector<Deadline> deadlines_;
  std::size_t fifo_head_ = 0;
  std::size_t fifo_size_ = 0;
  sim::Timer deadline_timer_;
  std::uint64_t outcome_digest_ = 0;
  LoadReport report_;

  /// One socket per attack, so attack replies never touch the id table.
  std::vector<std::unique_ptr<net::UdpSocket>> attack_sockets_;
  std::vector<AttackReport> attack_reports_;
  std::uint64_t churn_applied_ = 0;
  std::vector<EngineStats> probes_;
  std::vector<SeriesBucket> series_;
};

}  // namespace doxlab::engine
