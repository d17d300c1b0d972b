#include "engine/shard.h"

#include <algorithm>
#include <bit>
#include <string>

#include "dns/message.h"
#include "util/rng.h"

namespace doxlab::engine {

namespace {

/// Seed-derivation lanes: each subsystem's stream is splitmix64(seed, lane)
/// so adding draws in one place never perturbs another. Lanes encode the
/// shard index but never the shard count — a shard's world is identical no
/// matter how many siblings it has.
constexpr std::uint64_t kNetworkLane = 0x5A000000ull;
constexpr std::uint64_t kResolverLane = 0x5B000000ull;

/// One slot per 16-bit transaction id; id 0 is never handed out.
constexpr std::size_t kIdSlots = std::size_t{1} << 16;

}  // namespace

net::IpAddress client_source(const ShardedConfig& config,
                             std::uint32_t index) {
  return net::IpAddress(
      config.client_base.value() +
      static_cast<std::uint32_t>(splitmix64(config.seed, index) %
                                 config.client_span));
}

std::uint32_t shard_of(const ShardedConfig& config, net::IpAddress source) {
  if (config.shards <= 1) return 0;
  return static_cast<std::uint32_t>(
      splitmix64(config.seed ^ 0xC11E47ull, source.value()) % config.shards);
}

std::vector<std::uint8_t> swarm_query_image(std::uint32_t name) {
  return dns::make_query(0,
                         dns::DnsName::parse("name" + std::to_string(name) +
                                             ".load.example"),
                         dns::RRType::kA)
      .encode();
}

util::Buffer swarm_query(std::span<const std::uint8_t> image,
                         std::uint16_t id) {
  util::Buffer query = util::Buffer::copy_of(image);
  query.data()[0] = static_cast<std::uint8_t>(id >> 8);
  query.data()[1] = static_cast<std::uint8_t>(id & 0xFF);
  return query;
}

EngineShard::EngineShard(const ShardedConfig& config, std::uint32_t index,
                         std::vector<Arrival> arrivals,
                         dns::SharedPacketCache* l2)
    : config_(config), index_(index), arrivals_(std::move(arrivals)) {
  network_ = std::make_unique<net::Network>(
      sim_, Rng(splitmix64(config.seed, kNetworkLane + index)));
  network_->set_loss_rate(0.0);
  network_->set_batch_window(config.batch_window);

  // The shard's host carries both the engine listener and the swarm socket
  // (mirroring run_scenario, where generator and engine share one host).
  host_ = &network_->add_host(
      "shard-" + std::to_string(index),
      net::IpAddress::from_octets(10, 1, 0,
                                  static_cast<std::uint8_t>(index + 1)),
      {50.11, 8.68}, net::Continent::kEurope);
  udp_ = std::make_unique<net::UdpStack>(*host_);
  tcp_ = std::make_unique<tcp::TcpStack>(*host_);
  if (config.bottleneck) {
    network_->set_host_ingress_link(host_->address(),
                                    network_->add_link(*config.bottleneck));
  }

  // Client sources live in their own prefix; answers to spoofed sources
  // must route back to this host's swarm socket. Cover the whole source
  // range [base, base + span - 1] with the narrowest containing prefix —
  // a hardcoded length would blackhole replies whenever client_span
  // outgrows it. Exact host addresses win over prefix routes in
  // Network::route_host, so a wide cover cannot hijack engine or upstream
  // traffic.
  const std::uint32_t base = config.client_base.value();
  const std::uint64_t last_wide =
      std::uint64_t{base} + std::max<std::uint32_t>(1, config.client_span) - 1;
  const auto last = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(last_wide, 0xFFFFFFFFull));
  network_->add_prefix_route(config.client_base,
                             32 - std::bit_width(base ^ last),
                             host_->address());

  std::vector<UpstreamConfig> upstreams;
  for (std::size_t i = 0; i < config.upstream_one_way.size(); ++i) {
    resolver::ResolverProfile profile;
    profile.name = "upstream-" + std::to_string(i);
    profile.address = net::IpAddress::from_octets(
        10, 9, 0, static_cast<std::uint8_t>(i + 1));
    profile.location = {48.86, 2.35};
    profile.secret = 0xE0 + i;
    profile.drop_probability = 0.0;
    resolvers_.push_back(std::make_unique<resolver::DoxResolver>(
        *network_, profile,
        Rng(splitmix64(config.seed, kResolverLane + (index << 8) + i))));
    network_->set_path_override(host_->address(), profile.address,
                                config.upstream_one_way[i]);

    UpstreamConfig upstream;
    upstream.name = profile.name;
    upstream.address = profile.address;
    upstream.protocols = config.protocols;
    upstreams.push_back(std::move(upstream));
  }

  dox::TransportDeps deps;
  deps.sim = &sim_;
  deps.udp = udp_.get();
  deps.tcp = tcp_.get();
  deps.tickets = &tickets_;
  deps.doq_cache = &doq_cache_;

  EngineConfig engine_config = config.engine;
  engine_config.l2 = l2;
  engine_config.shard_index = index;
  // Per-shard chain instances can't share limiter state. Address-keyed
  // (/32) budgets are already shard-local — the source hash sends one
  // address's traffic to one shard — and coarser budgets are sliced
  // exactly across shards (see policy::scale_rate_limits).
  engine_config.policy = policy::scale_rate_limits(
      std::move(engine_config.policy), config.shards, index);
  engine_ = std::make_unique<ForwarderEngine>(sim_, *udp_, deps,
                                              std::move(upstreams),
                                              engine_config);
  target_ = net::Endpoint{host_->address(), engine_config.listen_port};

  images_.resize(config.names);
  // Only a shard with arrivals sends queries and so receives answers; the
  // 2 MB id table would dominate the set-up of an empty one.
  if (!arrivals_.empty()) pending_.resize(kIdSlots);
  report_.latency_ms.reserve(arrivals_.size());

  swarm_ = udp_->bind_ephemeral();
  swarm_->on_datagram([this](const net::Endpoint&, util::Buffer payload) {
    on_response(std::move(payload));
  });
  // Batched mode: one event drains a whole burst of answers through the
  // same per-response logic (timer cancels amortize into one pass).
  swarm_->on_batch([this](std::span<net::Datagram> batch) {
    for (net::Datagram& datagram : batch) {
      on_response(std::move(datagram.payload));
    }
  });

  // The arrival cursor: the sequence numbers eager scheduling would have
  // used are reserved here, where the whole slice used to be queued, and
  // each arrival queues its successor under its own number.
  arrival_seq_ = sim_.reserve_sequence(arrivals_.size());
  schedule_arrival();
}

void EngineShard::run_until(SimTime deadline) { sim_.run_until(deadline); }

void EngineShard::schedule_arrival() {
  if (next_arrival_ == arrivals_.size()) return;
  sim_.at(arrivals_[next_arrival_].at, arrival_seq_ + next_arrival_,
          [this] { on_arrival(); });
}

void EngineShard::on_arrival() {
  const Arrival arrival = arrivals_[next_arrival_++];
  schedule_arrival();
  send_query(arrival.client, arrival.name);
}

void EngineShard::book_outcome(SimTime sent_at, std::uint64_t outcome) {
  // Commutative sum — see outcome_digest() for the invariance contract.
  outcome_digest_ +=
      splitmix64(config_.seed ^ static_cast<std::uint64_t>(sent_at), outcome);
}

void EngineShard::send_query(std::uint32_t client, std::uint32_t name_index) {
  // Transaction ids are a shard-global ring: with a 16-bit space and
  // short-lived queries, a still-pending id is skipped (deterministically)
  // rather than clobbered.
  std::uint16_t id = next_id_;
  while (pending_[id].live) {
    if (++id == 0) id = 1;
    if (id == next_id_) {
      // 65535 in flight: shed this arrival. Counted so the load report
      // reconciles — sent + shed == arrivals scheduled.
      ++report_.shed;
      book_outcome(sim_.now(), kOutcomeShed);
      return;
    }
  }
  next_id_ = static_cast<std::uint16_t>(id + 1);
  if (next_id_ == 0) next_id_ = 1;

  std::vector<std::uint8_t>& image = images_[name_index];
  if (image.empty()) image = swarm_query_image(name_index);

  PendingQuery& pending = pending_[id];
  pending.live = true;
  pending.sent_at = sim_.now();
  pending.timeout = sim_.schedule(config_.client_timeout, [this, id] {
    PendingQuery& expired = pending_[id];
    if (!expired.live) return;
    book_outcome(expired.sent_at, kOutcomeTimeout);
    finish(expired);
    ++report_.timeouts;
  });
  ++in_flight_;

  ++report_.sent;
  swarm_->send_to_from(target_, client_source(config_, client),
                       swarm_query(image, id));
}

void EngineShard::finish(PendingQuery& pending) {
  pending.live = false;
  --in_flight_;
}

void EngineShard::on_response(util::Buffer payload) {
  if (!dns::Message::decode_into(payload, response_) || !response_.qr) return;
  PendingQuery& pending = pending_[response_.id];
  if (!pending.live) return;  // late answer after timeout
  pending.timeout.cancel();
  if (response_.rcode == dns::RCode::kServFail) {
    ++report_.servfails;
    book_outcome(pending.sent_at, kOutcomeServfail);
  } else {
    ++report_.answered;
    report_.latency_ms.push_back(to_ms(sim_.now() - pending.sent_at));
    book_outcome(pending.sent_at, kOutcomeAnswered);
  }
  finish(pending);
}

}  // namespace doxlab::engine
