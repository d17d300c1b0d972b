// The packet fabric: hosts, packets, and the delay/jitter/loss model that
// connects them.
//
// `Network` is the only way packets move between hosts. Every send consults
// the latency model (geography-derived) or an explicit per-pair override
// (used by unit tests to pin RTTs), applies random loss, and schedules
// delivery on the simulator. Delivery dispatches to the destination host's
// per-protocol handler (UDP and TCP stacks register themselves).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/address.h"
#include "net/flat_index.h"
#include "net/geo.h"
#include "net/latency.h"
#include "net/link.h"
#include "sim/simulator.h"
#include "util/buffer.h"
#include "util/rng.h"
#include "util/types.h"

namespace doxlab::net {

class Network;

/// A packet in flight. `header_bytes` is the transport header including
/// options (8 for UDP, 20+options for TCP); `payload` is the transport
/// payload. IP payload size — the unit Table 1 of the paper reports — is
/// `header_bytes + payload.size()`.
struct Packet {
  Endpoint src;
  Endpoint dst;
  int protocol = kProtoUdp;
  std::size_t header_bytes = 8;
  /// Pooled slab moved (not copied) from the sender's encoder through
  /// delivery to the receive handler; copies share the slab by refcount.
  util::Buffer payload;
  /// Structured sidecar for protocols whose control metadata we do not
  /// serialize byte-exactly (TCP segment flags/seq live here).
  std::shared_ptr<const void> meta;

  std::size_t ip_payload_bytes() const {
    return header_bytes + payload.size();
  }
};

/// A burst of packets reaching one host in a single simulator event
/// (recvmmsg-style; see Network::set_batch_window). Handlers may move the
/// packets out but must leave the vector itself alive — the fabric recycles
/// its storage.
using PacketBatch = std::vector<Packet>;

/// A simulated machine: address, location, and protocol demultiplexers.
class Host {
 public:
  /// Gets the delivered packet in place, in the storage of the event that
  /// delivers it: a handler moves out only what it keeps (the payload
  /// slab), so no Packet moves after delivery fires.
  using PacketHandler = std::function<void(Packet&)>;
  using BatchHandler = std::function<void(PacketBatch&)>;

  const std::string& name() const { return name_; }
  IpAddress address() const { return address_; }
  const GeoPoint& location() const { return location_; }
  Continent continent() const { return continent_; }
  SimTime access_delay() const { return access_delay_; }

  /// Registers the handler for an IP protocol number (kProtoUdp/kProtoTcp).
  /// Replaces any previous handler.
  void set_protocol_handler(int protocol, PacketHandler handler);

  /// Registers a burst handler for a protocol: when the fabric runs in
  /// batch mode it hands a whole PacketBatch over in one call instead of
  /// one deliver() per packet. A protocol without a batch handler falls
  /// back to per-packet delivery (same packets, same order).
  void set_protocol_batch_handler(int protocol, BatchHandler handler);

  /// Marks the host unreachable; packets to it are dropped silently (used by
  /// the scanner simulation for dark address space and resolver outages).
  void set_up(bool up) { up_ = up; }
  bool up() const { return up_; }

  Network& network() const { return *network_; }

 private:
  friend class Network;
  Host(Network& network, std::string name, IpAddress address,
       GeoPoint location, Continent continent, SimTime access_delay)
      : network_(&network),
        name_(std::move(name)),
        address_(address),
        location_(location),
        continent_(continent),
        access_delay_(access_delay) {}

  /// One protocol's handlers; either may be empty.
  struct Handlers {
    int protocol = 0;
    PacketHandler packet;
    BatchHandler batch;
  };

  /// The row for `protocol`, or nullptr.
  Handlers* handlers_for(int protocol);
  /// The row for `protocol`, appended if missing.
  Handlers& handlers_row(int protocol);

  void deliver(Packet& packet);
  void deliver_batch(PacketBatch& batch);

  Network* network_;
  std::string name_;
  IpAddress address_;
  GeoPoint location_;
  Continent continent_;
  SimTime access_delay_;
  bool up_ = true;
  /// One row per registered protocol (UDP and TCP), scanned linearly.
  std::vector<Handlers> handlers_;
};

/// Aggregate traffic counters, exposed for tests and the scan module.
struct NetworkCounters {
  std::uint64_t packets_sent = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t packets_lost = 0;
  std::uint64_t packets_unroutable = 0;
  std::uint64_t ip_payload_bytes = 0;
  /// Packets that died on a link: full queue (tail drop) or the
  /// Gilbert-Elliott chain. Disjoint from `packets_lost` (the iid draw).
  std::uint64_t packets_link_dropped = 0;
};

/// The fabric. Owns all hosts.
class Network {
 public:
  Network(sim::Simulator& simulator, Rng rng, LatencyModel latency = {});

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Creates and registers a host. Throws std::invalid_argument on a
  /// duplicate address.
  Host& add_host(std::string name, IpAddress address, GeoPoint location,
                 Continent continent, SimTime access_delay = from_ms(1.0));

  /// Looks up a host; nullptr if the address is unassigned.
  Host* find_host(IpAddress address);
  const Host* find_host(IpAddress address) const;

  /// Routes a whole prefix to an existing host: any packet addressed into
  /// `network`/`prefix_len` that matches no exact host is delivered to the
  /// host at `via` (its UDP/TCP stacks then demultiplex by port). This is
  /// how one simulated machine fronts many client source addresses — the
  /// load generator's per-client subnets, and the victim of a spoofed-
  /// source attack receiving the backscatter. Longest prefix wins; the
  /// route target must already be a host.
  void add_prefix_route(IpAddress network, int prefix_len, IpAddress via);

  /// Exact host, or the longest-prefix route target; nullptr when neither
  /// matches.
  Host* route_host(IpAddress address);

  /// Sends a packet. Both ends are routed once, here, in either delivery
  /// mode: the packet goes to the host its destination routed to at send
  /// time, and only that host's liveness is checked when it arrives (a
  /// packet to a down host is dropped and counted unroutable).
  void send(Packet packet);

  /// Burst mode: 0 (the default) keeps classic one-event-per-packet
  /// delivery. When > 0, each UDP packet's delivery time is rounded UP to
  /// the next multiple of `window`, and every packet landing on the same
  /// (host, grid slot) is flushed as one PacketBatch in a single simulator
  /// event — the discrete-event analogue of recvmmsg with a small
  /// aggregation delay (adds < `window` of latency per packet). Per-query
  /// outcomes are unchanged; only event count/order (and thus the event
  /// stream digest) differ from per-packet mode. TCP segments always take
  /// the per-packet path: their stacks are ordering-sensitive state
  /// machines with no burst entry point.
  void set_batch_window(SimTime window) { batch_window_ = window; }
  SimTime batch_window() const { return batch_window_; }

  /// Pins the one-way delay for a host pair in both directions (tests).
  void set_path_override(IpAddress a, IpAddress b, SimTime one_way);

  /// Per-pair loss override in [0,1] (both directions).
  void set_loss_override(IpAddress a, IpAddress b, double loss);

  // --- link-level path modeling (see net/link.h) ---
  //
  // With no links configured, send() is bit-identical to the flat
  // delay+loss fabric: no extra RNG draws, no timing changes. Each link has
  // its own RNG stream (seeded from the link seed and its id), so binding a
  // link on one path never perturbs jitter/loss draws on another.

  /// Creates a link; returns its id. Links are never destroyed.
  int add_link(LinkConfig config);

  /// Routes all traffic from `src` to `dst` (one direction!) through the
  /// link. The addresses are resolved through the routing table at send
  /// time, so a prefix-fronted client aggregate shares its host's link.
  void bind_link(IpAddress src, IpAddress dst, int link_id);

  /// All traffic leaving / reaching `host` traverses the link — ONE shared
  /// queue, so flows from different peers compete for it (the
  /// shared-bottleneck fairness setup). Pair bindings compose with these:
  /// a packet traverses egress(src), then the pair link, then ingress(dst).
  void set_host_egress_link(IpAddress host, int link_id);
  void set_host_ingress_link(IpAddress host, int link_id);

  /// Every directed host pair (after routing; loopback excluded) lazily
  /// gets its own link instance built from `config` — the "all paths are
  /// LTE-like" adverse study switch. Per-pair instances keep queues and
  /// loss chains independent, seeded from (link seed, directed pair key).
  void set_default_link(LinkConfig config);

  const Link& link(int link_id) const { return *links_.at(link_id); }
  std::size_t link_count() const { return links_.size(); }
  const LinkStats& link_stats(int link_id) const {
    return links_.at(link_id)->stats();
  }
  /// Elementwise sum over all links (queue-pressure observability; the
  /// sharded engine folds this into its shard CSV).
  LinkStats link_totals() const;

  /// Network-wide random loss rate (default 0.2%).
  void set_loss_rate(double rate) { loss_rate_ = rate; }
  double loss_rate() const { return loss_rate_; }

  /// Observer invoked for every packet accepted into the fabric (before the
  /// loss draw). Used by tests and by the scanner's traffic accounting.
  using Tap = std::function<void(const Packet&)>;
  void set_tap(Tap tap) { tap_ = std::move(tap); }

  /// One-way delay the next packet between two hosts would experience,
  /// excluding jitter. Exposed so studies can reason about distances.
  SimTime base_one_way(const Host& a, const Host& b) const;

  sim::Simulator& simulator() { return simulator_; }
  Rng& rng() { return rng_; }
  const NetworkCounters& counters() const { return counters_; }
  const LatencyModel& latency_model() const { return latency_; }

 private:
  static std::uint64_t pair_key(IpAddress a, IpAddress b);

  /// What set_path_override and set_loss_override pinned for a host pair.
  struct PairOverride {
    std::optional<SimTime> one_way;
    std::optional<double> loss;
  };
  /// The pair's overrides, or null when it has none.
  const PairOverride* find_override(IpAddress a, IpAddress b) const;

  /// Non-loopback one-way delay, given the pair's overrides (or null).
  SimTime pair_one_way(const PairOverride* pair, const Host& a,
                       const Host& b) const;

  /// One pending batch slot: (routed host, delivery grid time).
  struct BatchKey {
    std::uint32_t via = 0;
    SimTime at = 0;
    bool operator==(const BatchKey&) const = default;
  };
  struct BatchKeyHash {
    std::size_t operator()(const BatchKey& k) const noexcept {
      std::uint64_t h = k.via * 0x9E3779B97F4A7C15ull;
      h ^= static_cast<std::uint64_t>(k.at) + 0x9E3779B97F4A7C15ull +
           (h << 6) + (h >> 2);
      return static_cast<std::size_t>(h);
    }
  };

  void stage_batch(Host& target, SimTime bucket, Packet packet);
  void flush_batch(Host& target, SimTime bucket);

  /// Directed (src, dst) key — unlike pair_key, order matters (each
  /// direction of a path has its own queue and loss chain).
  static std::uint64_t directed_key(IpAddress src, IpAddress dst) {
    return (std::uint64_t(src.value()) << 32) | dst.value();
  }

  /// Runs `packet`-sized bytes through every link bound on src->dst.
  /// Returns the summed extra delay, or nullopt when a link dropped it
  /// (counted). Called only when any link/default is configured.
  std::optional<SimTime> traverse_links(const Host& src, const Host& dst,
                                        std::size_t wire_bytes);

  sim::Simulator& simulator_;
  Rng rng_;
  LatencyModel latency_;
  double loss_rate_ = 0.002;
  struct PrefixRoute {
    std::uint32_t network = 0;
    std::uint32_t mask = 0;
    Host* via = nullptr;
  };

  /// Every host, in creation order; `host_index_` finds one by address.
  std::vector<std::unique_ptr<Host>> hosts_;
  FlatIndex<Host> host_index_;
  /// Sorted longest-prefix-first; scanned linearly (a handful of routes).
  std::vector<PrefixRoute> prefix_routes_;
  std::unordered_map<std::uint64_t, PairOverride> pair_overrides_;

  // Link layer. `links_` owns every Link; the maps bind them to directed
  // pairs and host aggregates. `default_link_` is the lazy per-pair
  // template; `pair_links_` caches both explicit bindings and lazily
  // created defaults, keyed by directed routed addresses.
  std::vector<std::unique_ptr<Link>> links_;
  std::unordered_map<std::uint64_t, int> pair_links_;
  std::unordered_map<IpAddress, int> egress_links_;
  std::unordered_map<IpAddress, int> ingress_links_;
  std::optional<LinkConfig> default_link_;
  bool any_links_ = false;
  Tap tap_;
  NetworkCounters counters_;
  SimTime batch_window_ = 0;
  /// In-flight batch slots; the first packet staged into a slot schedules
  /// its flush event. Drained vectors recycle through `batch_pool_` so a
  /// steady-state burst loop reuses the same storage.
  std::unordered_map<BatchKey, PacketBatch, BatchKeyHash> staged_;
  std::vector<PacketBatch> batch_pool_;
};

}  // namespace doxlab::net
