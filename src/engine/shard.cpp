#include "engine/shard.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <stdexcept>
#include <string>

#include "dns/message.h"
#include "engine/schedule.h"
#include "util/rng.h"

namespace doxlab::engine {

namespace {

/// Seed-derivation lanes: each subsystem's stream is splitmix64(seed, lane)
/// so adding draws in one place never perturbs another. Lanes encode the
/// shard index but never the shard count — a shard's world is identical no
/// matter how many siblings it has.
constexpr std::uint64_t kNetworkLane = 0x5A000000ull;
constexpr std::uint64_t kResolverLane = 0x5B000000ull;
/// An attack query's labels and id hash its schedule entry on this lane.
constexpr std::uint64_t kAttackQueryLane = 0xA7AC0000ull;

/// One slot per 16-bit transaction id; id 0 is never handed out.
constexpr std::size_t kIdSlots = std::size_t{1} << 16;

/// A Deadline holds 48 bits of sequence number.
constexpr std::uint64_t kDeadlineSeqLimit = std::uint64_t{1} << 48;

/// Fails the run loudly where the arrival cursor or the deadline FIFO would
/// otherwise fire an event out of place, which nothing else would notice.
void require(bool holds, const char* what) {
  if (!holds) throw std::logic_error(std::string("engine shard: ") + what);
}

/// Routes the narrowest prefix covering [base, base + count - 1] to `via`.
/// Exact host addresses win over prefix routes in Network::route_host, so
/// a wide cover cannot hijack engine or upstream traffic.
void route_range(net::Network& network, net::IpAddress base,
                 std::uint32_t count, net::IpAddress via) {
  const std::uint64_t last_wide =
      std::uint64_t{base.value()} + std::max<std::uint32_t>(1, count) - 1;
  const auto last = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(last_wide, 0xFFFFFFFFull));
  network.add_prefix_route(base, 32 - std::bit_width(base.value() ^ last),
                           via);
}

}  // namespace

std::string_view attack_kind_name(AttackKind kind) {
  switch (kind) {
    case AttackKind::kRandomSubdomain: return "random-subdomain";
    case AttackKind::kWaterTorture: return "water-torture";
    case AttackKind::kAmplification: return "amplification";
  }
  return "?";
}

std::string_view churn_action_name(ChurnAction action) {
  switch (action) {
    case ChurnAction::kOutage: return "outage";
    case ChurnAction::kRecover: return "recover";
    case ChurnAction::kWithdraw: return "withdraw";
    case ChurnAction::kAnnounce: return "announce";
  }
  return "?";
}

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

util::Buffer swarm_query(std::uint32_t name, std::uint16_t id) {
  // After the id: RD, one question, one additional (the OPT record).
  static constexpr std::uint8_t kFlagsAndCounts[] = {0x01, 0, 0, 1, 0, 0,
                                                     0,    0, 0, 1};
  // The rest of the question after the first label, then the OPT record:
  // root owner, type OPT, 1232-byte payload, TTL 0, and the 8-byte client
  // cookie as its one option (dns::make_query's defaults).
  static constexpr std::uint8_t kTail[] = {
      4, 'l', 'o', 'a', 'd', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0,
      0, 1, 0, 1,  // A, IN
      0, 0, 41, 0x04, 0xD0, 0, 0, 0, 0, 0, 12,
      0, dns::kEdnsCookieOption, 0, 8,
      0xde, 0xad, 0xbe, 0xef, 0x13, 0x37, 0x42, 0x77};
  // Composed on the stack, then copied into the pooled buffer whole:
  // "name" and up to 10 digits make the longest first label.
  std::uint8_t wire[12 + 1 + 14 + sizeof kTail];
  wire[0] = static_cast<std::uint8_t>(id >> 8);
  wire[1] = static_cast<std::uint8_t>(id);
  std::memcpy(wire + 2, kFlagsAndCounts, sizeof kFlagsAndCounts);
  char* label = reinterpret_cast<char*>(wire + 13);
  std::memcpy(label, "name", 4);
  char* end = std::to_chars(label + 4, label + 14, name).ptr;
  wire[12] = static_cast<std::uint8_t>(end - label);
  std::memcpy(end, kTail, sizeof kTail);
  const auto size = static_cast<std::size_t>(
      reinterpret_cast<std::uint8_t*>(end) + sizeof kTail - wire);
  return util::Buffer::copy_of({wire, size});
}

EngineShard::EngineShard(const ShardedConfig& config, std::uint32_t index,
                         const Schedule& schedule,
                         dns::SharedPacketCache* l2, const Segment& segment)
    : config_(config),
      index_(index),
      legit_arrivals_(schedule.legit(index)),
      horizon_(schedule.horizon()),
      stop_(segment.stop) {
  // A restarted world starts at the restart instant, so warm start and TTL
  // decay see the true clock; on an empty queue this only moves the clock.
  sim_.run_until(segment.start);
  network_ = std::make_unique<net::Network>(
      sim_, Rng(splitmix64(config.seed, kNetworkLane + index)));
  network_->set_loss_rate(0.0);
  network_->set_batch_window(config.batch_window);

  // The shard's host carries both the engine listener and the swarm socket.
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
  // must route back to this host's swarm socket.
  route_range(*network_, config.client_base, config.client_span,
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
  if (!config.attacks.empty()) build_attack_world(upstreams);

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

  // Only a shard with arrivals sends queries and so receives answers; the
  // 1 MB id table would dominate the set-up of an empty one.
  if (legit_arrivals_ > 0) pending_.resize(kIdSlots);
  report_.latency_ms.reserve(legit_arrivals_);

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
  for (std::size_t k = 0; k < config.attacks.size(); ++k) {
    attack_sockets_.push_back(udp_->bind_ephemeral());
    attack_sockets_.back()->on_datagram(
        [this, k](const net::Endpoint&, util::Buffer payload) {
          on_attack_response(k, payload);
        });
    attack_reports_.push_back(AttackReport{config.attacks[k].kind});
  }
  schedule_segment_events(segment);

  // The arrival cursor: the shard's whole block of sequence numbers is
  // reserved here, where eager scheduling would have queued every entry,
  // so entry k fires under the number the pinned streams were recorded
  // with, arrival_seq_ + k. The entries themselves come with the fills
  // (extend), and each arrival queues its successor.
  arrival_seq_ = sim_.reserve_sequence(schedule.entries(index));
}

void EngineShard::lend_runs(std::span<std::vector<Arrival>> runs) {
  for (std::vector<Arrival>& run : runs) {
    if (spare_runs_.empty()) continue;
    run = std::move(spare_runs_.back());
    spare_runs_.pop_back();
    run.clear();
  }
}

void EngineShard::extend(std::span<std::vector<Arrival>> runs,
                         SimTime horizon) {
  // The runs before the cursor's were recycled; only their shells remain.
  runs_.erase(runs_.begin(),
              runs_.begin() + static_cast<std::ptrdiff_t>(run_));
  run_ = 0;
  const bool waiting = runs_.empty();
  for (std::vector<Arrival>& run : runs) {
    require(run.empty() || run.front().at >= horizon_,
            "a fill would reorder the shard's entries");
    runs_.push_back(std::move(run));
  }
  horizon_ = horizon;
  report_.window_chunks_peak =
      std::max<std::uint64_t>(report_.window_chunks_peak, runs_.size());
  if (!waiting) return;
  schedule_arrival();
  // The queue orders by (time, sequence number): an entry after every
  // event popped so far fires exactly where eager scheduling put it.
  require(run_ == runs_.size() || runs_[run_][entry_].at > ran_to_,
          "an arrival was queued after the loop popped past it");
}

void EngineShard::build_attack_world(std::vector<UpstreamConfig>& upstreams) {
  for (const AttackConfig& attack : config_.attacks) {
    net::IpAddress via = host_->address();
    if (attack.kind == AttackKind::kAmplification) {
      // The victim: its prefix must route *somewhere* for the latency
      // model, and the engine's answers to the spoofed sources (the
      // backscatter) land here — never back at the bots.
      via = attack.source_base;
      if (network_->find_host(via) == nullptr) {
        network_->add_host("victim", via, {40.71, -74.01},
                           net::Continent::kNorthAmerica);
      }
    }
    route_range(*network_, attack.source_base, attack.source_count, via);
  }
  // The route rule of the abuse chain sends the legit zone to a dedicated
  // pool: upstream 0 again, with its own connections, at identical RTT.
  UpstreamConfig anycast = upstreams.front();
  anycast.name += "-anycast";
  anycast.pool = "anycast";
  upstreams.push_back(std::move(anycast));
}

void EngineShard::schedule_segment_events(const Segment& segment) {
  // A restart's first worlds apply the events before it; the last worlds
  // apply every later one, including events past the arrival window.
  const bool last = segment.stop >= config_.duration;
  for (const ChurnEvent& event : config_.churn) {
    if (event.at < segment.start || (!last && event.at >= segment.stop)) {
      continue;
    }
    sim_.at(event.at, [this, event] { apply_churn(event); });
  }
  probes_.resize(segment.probes.size());
  for (std::size_t i = 0; i < segment.probes.size(); ++i) {
    sim_.at(segment.probes[i], [this, i] { probes_[i] = engine_stats(); });
  }
}

void EngineShard::apply_churn(const ChurnEvent& event) {
  ++churn_applied_;
  switch (event.action) {
    case ChurnAction::kOutage:
      resolvers_[event.upstream]->host().set_up(false);
      break;
    case ChurnAction::kRecover:
      resolvers_[event.upstream]->host().set_up(true);
      break;
    case ChurnAction::kWithdraw:
      engine_->pool(0).set_enabled(event.upstream, false);
      break;
    case ChurnAction::kAnnounce:
      engine_->pool(0).set_enabled(event.upstream, true);
      break;
  }
}

void EngineShard::run_until(SimTime deadline) {
  // Past the horizon, an undrawn entry could be due before the deadline.
  require(deadline < horizon_, "an epoch ran past the last drawn entry");
  sim_.run_until(deadline);
  ran_to_ = deadline;
}

void EngineShard::schedule_arrival() {
  while (run_ < runs_.size() && entry_ == runs_[run_].size()) {
    spare_runs_.push_back(std::move(runs_[run_]));
    ++run_;
    entry_ = 0;
  }
  if (run_ == runs_.size()) return;  // the next fill queues it
  sim_.at(runs_[run_][entry_].at, arrival_seq_ + next_arrival_,
          [this] { on_arrival(); });
}

void EngineShard::on_arrival() {
  const Arrival arrival = runs_[run_][entry_++];
  ++next_arrival_;
  schedule_arrival();
  if (arrival.name & kAttackTag) {
    send_attack(arrival);
  } else {
    send_query(arrival.client, arrival.name);
  }
}

void EngineShard::book_outcome(SimTime sent_at, std::uint64_t outcome) {
  // Commutative sum — see outcome_digest() for the invariance contract.
  outcome_digest_ +=
      splitmix64(config_.seed ^ static_cast<std::uint64_t>(sent_at), outcome);
}

void EngineShard::book_terminal(SimTime sent_at, std::uint64_t outcome,
                                double latency_ms) {
  book_outcome(sent_at, outcome);
  if (config_.series_bucket <= 0) return;
  const auto index =
      static_cast<std::size_t>(sent_at / config_.series_bucket);
  while (series_.size() <= index) {
    series_.push_back(SeriesBucket{
        static_cast<SimTime>(series_.size()) * config_.series_bucket});
  }
  SeriesBucket& bucket = series_[index];
  switch (outcome) {
    case kOutcomeAnswered:
      ++bucket.answered;
      bucket.latency_ms.push_back(latency_ms);
      break;
    case kOutcomeServfail:
      ++bucket.servfails;
      break;
    default:
      ++bucket.timeouts;
      break;
  }
}

void EngineShard::send_query(std::uint32_t client, std::uint32_t name_index) {
  // Transaction ids are a shard-global ring: with a 16-bit space and
  // short-lived queries, a still-pending id is skipped (deterministically)
  // rather than clobbered.
  std::uint16_t id = next_id_;
  while (pending_[id].live()) {
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

  // The timeout's number is reserved at send, so at its instant it ties
  // with answers and other events by send order.
  const std::uint64_t seq = sim_.reserve_sequence(1);
  require(seq < kDeadlineSeqLimit, "sequence numbers overflow the FIFO");
  pending_[id] = PendingQuery{sim_.now(), seq};
  push_deadline(seq, id);
  ++in_flight_;

  ++report_.sent;
  swarm_->send_to_from(target_, client_source(config_, client),
                       swarm_query(name_index, id));
}

void EngineShard::push_deadline(std::uint64_t seq, std::uint16_t id) {
  if (fifo_size_ == deadlines_.size()) {
    // Full: unroll the ring into one twice the size.
    std::vector<Deadline> grown(std::max<std::size_t>(1024, 2 * fifo_size_));
    for (std::size_t i = 0; i < fifo_size_; ++i) {
      grown[i] = deadlines_[(fifo_head_ + i) & (deadlines_.size() - 1)];
    }
    deadlines_ = std::move(grown);
    fifo_head_ = 0;
  }
  deadlines_[(fifo_head_ + fifo_size_++) & (deadlines_.size() - 1)] =
      Deadline{seq, id};
  report_.deadline_fifo_peak =
      std::max<std::uint64_t>(report_.deadline_fifo_peak, fifo_size_);
  if (fifo_size_ == 1) arm_deadline();
}

void EngineShard::arm_deadline() {
  const std::size_t mask = deadlines_.size() - 1;
  while (fifo_size_ > 0) {
    const Deadline head = deadlines_[fifo_head_];
    const PendingQuery& pending = pending_[head.id];
    if (pending.timeout_seq == head.seq) {
      // Its deadline is at or after every event popped so far (the earlier
      // heads' deadlines came first), so it fires where its own timer would.
      deadline_timer_ = sim_.at(pending.sent_at + kClientTimeout, head.seq,
                                [this] { on_deadline(); });
      return;
    }
    fifo_head_ = (fifo_head_ + 1) & mask;
    --fifo_size_;
  }
}

void EngineShard::on_deadline() {
  PendingQuery& expired = pending_[deadlines_[fifo_head_].id];
  book_terminal(expired.sent_at, kOutcomeTimeout, 0.0);
  finish(expired);
  ++report_.timeouts;
  arm_deadline();
}

void EngineShard::send_attack(const Arrival& arrival) {
  const std::size_t k = arrival.name & ~kAttackTag;
  const AttackConfig& attack = config_.attacks[k];
  // Labels and id are a function of the entry, never of which shard sends
  // it, so the attack traffic is the same at every shard count.
  const std::uint64_t h = splitmix64(
      config_.seed ^ kAttackQueryLane ^ static_cast<std::uint64_t>(arrival.at),
      (std::uint64_t{arrival.name} << 32) | arrival.client);
  const std::string label = std::to_string(h & 0x3FFFFFFF);
  std::string qname;
  dns::RRType qtype = dns::RRType::kA;
  switch (attack.kind) {
    case AttackKind::kRandomSubdomain:
      qname = "r" + label + "." + attack.zone;
      break;
    case AttackKind::kWaterTorture:
      qname = "w" + label + ".z" + std::to_string((h >> 30) & 7) + "." +
              attack.zone;
      break;
    case AttackKind::kAmplification:
      // Small query, big TXT answer: the resolver sizes the payload from
      // the leading label.
      qname = "txt" + std::to_string(attack.amp_payload) + "." + attack.zone;
      qtype = dns::RRType::kTXT;
      break;
  }
  const auto id = static_cast<std::uint16_t>(1 + (h >> 33) % 0xFFFF);
  ++attack_reports_[k].sent;
  attack_sockets_[k]->send_to_from(
      target_, net::IpAddress(arrival.client),
      util::Buffer::copy_of(
          dns::make_query(id, dns::DnsName::parse(qname), qtype).encode()));
}

void EngineShard::finish(PendingQuery& pending) {
  pending.timeout_seq = 0;
  --in_flight_;
}

void EngineShard::on_response(util::Buffer payload) {
  if (!dns::scan_message(payload, response_) || !response_.qr()) return;
  PendingQuery& pending = pending_[response_.id];
  if (!pending.live()) return;  // late answer after timeout
  // Answering the armed head disarms its timer: a stale one must never
  // fire, since every executed event moves the stream digest.
  const bool head = deadlines_[fifo_head_].seq == pending.timeout_seq;
  if (head) deadline_timer_.cancel();
  if (response_.rcode() == dns::RCode::kServFail) {
    ++report_.servfails;
    book_terminal(pending.sent_at, kOutcomeServfail, 0.0);
  } else {
    ++report_.answered;
    const double latency = to_ms(sim_.now() - pending.sent_at);
    report_.latency_ms.push_back(latency);
    book_terminal(pending.sent_at, kOutcomeAnswered, latency);
  }
  finish(pending);
  if (head) arm_deadline();
}

void EngineShard::on_attack_response(std::size_t attack,
                                     const util::Buffer& payload) {
  if (!dns::scan_message(payload, response_) || !response_.qr()) return;
  AttackReport& report = attack_reports_[attack];
  if (response_.tc()) {
    ++report.truncated;
  } else if (response_.rcode() == dns::RCode::kRefused) {
    ++report.refused;
  } else {
    ++report.answered;
  }
}

}  // namespace doxlab::engine
