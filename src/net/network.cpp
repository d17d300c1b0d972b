#include "net/network.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/logging.h"

namespace doxlab::net {

namespace {
constexpr SimTime kLoopbackOneWay = 50;  // 50 us
}  // namespace

Host::Handlers* Host::handlers_for(int protocol) {
  for (Handlers& row : handlers_) {
    if (row.protocol == protocol) return &row;
  }
  return nullptr;
}

Host::Handlers& Host::handlers_row(int protocol) {
  if (Handlers* row = handlers_for(protocol)) return *row;
  Handlers& row = handlers_.emplace_back();
  row.protocol = protocol;
  return row;
}

void Host::set_protocol_handler(int protocol, PacketHandler handler) {
  handlers_row(protocol).packet = std::move(handler);
}

void Host::set_protocol_batch_handler(int protocol, BatchHandler handler) {
  handlers_row(protocol).batch = std::move(handler);
}

void Host::deliver(Packet& packet) {
  Handlers* row = handlers_for(packet.protocol);
  if (row == nullptr || !row->packet) {
    DOXLAB_DEBUG("host " << name_ << " has no handler for protocol "
                         << packet.protocol);
    return;
  }
  row->packet(packet);
}

void Host::deliver_batch(PacketBatch& batch) {
  // A staged slot holds one protocol (only UDP batches today), so the first
  // packet speaks for the burst.
  Handlers* row = handlers_for(batch.front().protocol);
  if (row != nullptr && row->batch) {
    row->batch(batch);
    return;
  }
  for (Packet& packet : batch) deliver(packet);
}

Network::Network(sim::Simulator& simulator, Rng rng, LatencyModel latency)
    : simulator_(simulator), rng_(std::move(rng)), latency_(latency) {}

Host& Network::add_host(std::string name, IpAddress address,
                        GeoPoint location, Continent continent,
                        SimTime access_delay) {
  if (find_host(address) != nullptr) {
    throw std::invalid_argument("duplicate host address " +
                                address.to_string());
  }
  Host& host = *hosts_.emplace_back(std::unique_ptr<Host>(new Host(
      *this, std::move(name), address, location, continent, access_delay)));
  host_index_.insert(address.value(), &host);
  return host;
}

Host* Network::find_host(IpAddress address) {
  return host_index_.find(address.value());
}

const Host* Network::find_host(IpAddress address) const {
  return host_index_.find(address.value());
}

void Network::add_prefix_route(IpAddress network, int prefix_len,
                               IpAddress via) {
  if (prefix_len < 0 || prefix_len > 32) {
    throw std::invalid_argument("prefix length out of range");
  }
  Host* target = find_host(via);
  if (target == nullptr) {
    throw std::invalid_argument("prefix route target is not a host: " +
                                via.to_string());
  }
  const std::uint32_t mask =
      prefix_len == 0 ? 0 : ~std::uint32_t{0} << (32 - prefix_len);
  prefix_routes_.push_back(PrefixRoute{network.value() & mask, mask, target});
  // Longest prefix first, so the linear scan returns the most specific.
  std::stable_sort(prefix_routes_.begin(), prefix_routes_.end(),
                   [](const PrefixRoute& a, const PrefixRoute& b) {
                     return a.mask > b.mask;
                   });
}

Host* Network::route_host(IpAddress address) {
  if (Host* exact = find_host(address)) return exact;
  for (const PrefixRoute& route : prefix_routes_) {
    if ((address.value() & route.mask) == route.network) return route.via;
  }
  return nullptr;
}

std::uint64_t Network::pair_key(IpAddress a, IpAddress b) {
  std::uint32_t lo = std::min(a.value(), b.value());
  std::uint32_t hi = std::max(a.value(), b.value());
  return (std::uint64_t(hi) << 32) | lo;
}

void Network::set_path_override(IpAddress a, IpAddress b, SimTime one_way) {
  pair_overrides_[pair_key(a, b)].one_way = one_way;
}

void Network::set_loss_override(IpAddress a, IpAddress b, double loss) {
  pair_overrides_[pair_key(a, b)].loss = loss;
}

const Network::PairOverride* Network::find_override(IpAddress a,
                                                    IpAddress b) const {
  auto it = pair_overrides_.find(pair_key(a, b));
  return it == pair_overrides_.end() ? nullptr : &it->second;
}

int Network::add_link(LinkConfig config) {
  const int id = static_cast<int>(links_.size());
  // Each link gets an independent deterministic stream: the fabric RNG is
  // never drawn for link decisions, so configuring links on one path leaves
  // every other path's jitter/loss sequence untouched.
  links_.push_back(std::make_unique<Link>(
      std::move(config),
      splitmix64(0x11A6'0DE1ull, static_cast<std::uint64_t>(id))));
  any_links_ = true;
  return id;
}

void Network::bind_link(IpAddress src, IpAddress dst, int link_id) {
  if (link_id < 0 || static_cast<std::size_t>(link_id) >= links_.size()) {
    throw std::invalid_argument("bind_link: unknown link id");
  }
  pair_links_[directed_key(src, dst)] = link_id;
}

void Network::set_host_egress_link(IpAddress host, int link_id) {
  if (link_id < 0 || static_cast<std::size_t>(link_id) >= links_.size()) {
    throw std::invalid_argument("set_host_egress_link: unknown link id");
  }
  egress_links_[host] = link_id;
}

void Network::set_host_ingress_link(IpAddress host, int link_id) {
  if (link_id < 0 || static_cast<std::size_t>(link_id) >= links_.size()) {
    throw std::invalid_argument("set_host_ingress_link: unknown link id");
  }
  ingress_links_[host] = link_id;
}

void Network::set_default_link(LinkConfig config) {
  default_link_ = std::move(config);
  any_links_ = true;
}

LinkStats Network::link_totals() const {
  LinkStats total;
  for (const auto& link : links_) {
    const LinkStats& s = link->stats();
    total.packets += s.packets;
    total.tail_drops += s.tail_drops;
    total.burst_losses += s.burst_losses;
    total.queued_bytes_max =
        std::max(total.queued_bytes_max, s.queued_bytes_max);
    total.busy_us += s.busy_us;
  }
  return total;
}

std::optional<SimTime> Network::traverse_links(const Host& src,
                                               const Host& dst,
                                               std::size_t wire_bytes) {
  // Path order: the sender's access link, then the (possibly defaulted)
  // path link, then the receiver's access link. Each stage may queue, drop,
  // or burst-lose the packet independently.
  int chain[3];
  int stages = 0;
  if (auto it = egress_links_.find(src.address()); it != egress_links_.end()) {
    chain[stages++] = it->second;
  }
  const std::uint64_t key = directed_key(src.address(), dst.address());
  auto pit = pair_links_.find(key);
  if (pit == pair_links_.end() && default_link_) {
    // Lazily materialize this directed pair's own instance of the default
    // link (independent queue + loss chain per direction).
    const int id = add_link(*default_link_);
    pit = pair_links_.emplace(key, id).first;
  }
  if (pit != pair_links_.end()) chain[stages++] = pit->second;
  if (auto it = ingress_links_.find(dst.address());
      it != ingress_links_.end()) {
    chain[stages++] = it->second;
  }

  SimTime extra = 0;
  for (int i = 0; i < stages; ++i) {
    auto hop = links_[static_cast<std::size_t>(chain[i])]->admit(
        wire_bytes, simulator_.now());
    if (!hop) {
      ++counters_.packets_link_dropped;
      return std::nullopt;
    }
    extra += *hop;
  }
  return extra;
}

SimTime Network::base_one_way(const Host& a, const Host& b) const {
  if (a.address() == b.address()) return kLoopbackOneWay;
  return pair_one_way(find_override(a.address(), b.address()), a, b);
}

SimTime Network::pair_one_way(const PairOverride* pair, const Host& a,
                              const Host& b) const {
  if (pair != nullptr && pair->one_way) return *pair->one_way;
  return latency_.base_one_way(a.location(), b.location(), a.access_delay(),
                               b.access_delay());
}

void Network::send(Packet packet) {
  ++counters_.packets_sent;
  counters_.ip_payload_bytes += packet.ip_payload_bytes();
  if (tap_) tap_(packet);

  // Spoofed/prefixed source addresses resolve through the routing table:
  // the latency model needs *some* host on each end, and a reply to a
  // routed address must reach the fronting machine.
  Host* src = route_host(packet.src.address);
  Host* dst = route_host(packet.dst.address);
  if (src == nullptr || dst == nullptr) {
    ++counters_.packets_unroutable;
    return;
  }

  // One lookup finds both the pair's loss and path overrides. Loopback —
  // same machine after routing, which covers a host fronting a whole client
  // prefix — needs neither.
  const bool loopback = src == dst;
  const PairOverride* pair =
      loopback ? nullptr
               : find_override(packet.src.address, packet.dst.address);

  double loss = loopback ? 0.0 : loss_rate_;
  if (pair != nullptr && pair->loss) loss = *pair->loss;
  if (rng_.chance(loss)) {
    ++counters_.packets_lost;
    return;
  }

  SimTime delay = loopback ? kLoopbackOneWay : pair_one_way(pair, *src, *dst);
  if (!loopback) delay += latency_.jitter(rng_);

  // Link models (finite-rate queues, burst loss, handover steps) sit after
  // the iid loss/jitter draws so that configs without links replay the
  // exact pre-link event stream. Loopback never crosses a link.
  if (any_links_ && !loopback) {
    auto extra = traverse_links(*src, *dst, packet.ip_payload_bytes());
    if (!extra) return;  // counted in traverse_links
    delay += *extra;
  }

  if (batch_window_ > 0 && packet.protocol == kProtoUdp) {
    // Round delivery UP to the aggregation grid; every packet landing on
    // this (host, slot) pair flushes as one PacketBatch event.
    const SimTime deliver_at = simulator_.now() + delay;
    const SimTime bucket =
        ((deliver_at + batch_window_ - 1) / batch_window_) * batch_window_;
    stage_batch(*dst, bucket, std::move(packet));
    return;
  }

  simulator_.schedule(delay, [this, dst, p = std::move(packet)]() mutable {
    if (!dst->up()) {
      ++counters_.packets_unroutable;
      return;
    }
    ++counters_.packets_delivered;
    dst->deliver(p);
  });
}

void Network::stage_batch(Host& target, SimTime bucket, Packet packet) {
  auto [it, inserted] =
      staged_.try_emplace(BatchKey{target.address().value(), bucket});
  if (inserted && !batch_pool_.empty()) {
    it->second = std::move(batch_pool_.back());
    batch_pool_.pop_back();
  }
  it->second.push_back(std::move(packet));
  if (inserted) {
    simulator_.at(bucket, [this, &target, bucket] {
      flush_batch(target, bucket);
    });
  }
}

void Network::flush_batch(Host& target, SimTime bucket) {
  auto it = staged_.find(BatchKey{target.address().value(), bucket});
  if (it == staged_.end()) return;
  PacketBatch batch = std::move(it->second);
  staged_.erase(it);
  if (!target.up()) {
    counters_.packets_unroutable += batch.size();
  } else {
    counters_.packets_delivered += batch.size();
    target.deliver_batch(batch);
  }
  batch.clear();
  batch_pool_.push_back(std::move(batch));
}

}  // namespace doxlab::net
