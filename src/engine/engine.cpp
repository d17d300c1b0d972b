#include "engine/engine.h"

#include <algorithm>
#include <iterator>

#include "util/logging.h"

namespace doxlab::engine {

ForwarderEngine::ForwarderEngine(sim::Simulator& sim,
                                 net::UdpStack& stub_udp,
                                 const dox::TransportDeps& upstream_deps,
                                 std::vector<UpstreamConfig> upstreams,
                                 EngineConfig config)
    : sim_(sim), config_(std::move(config)), l1_(config_.cache_capacity) {
  // Group upstreams into named pools, order of first appearance. With every
  // upstream in one pool (the default) this is exactly the pre-policy
  // engine: one pool walking all upstreams.
  std::vector<std::vector<UpstreamConfig>> groups;
  for (auto& upstream : upstreams) {
    const std::string& name =
        upstream.pool.empty() ? std::string("default") : upstream.pool;
    std::size_t index = pool_names_.size();
    for (std::size_t i = 0; i < pool_names_.size(); ++i) {
      if (pool_names_[i] == name) {
        index = i;
        break;
      }
    }
    if (index == pool_names_.size()) {
      pool_names_.push_back(name);
      groups.emplace_back();
    }
    groups[index].push_back(std::move(upstream));
  }
  if (groups.empty()) {
    // No upstreams at all: keep one empty default pool so resolves fail
    // with kNoRoute instead of indexing nothing.
    pool_names_.push_back("default");
    groups.emplace_back();
  }
  pools_.reserve(groups.size());
  for (auto& group : groups) {
    pools_.push_back(std::make_unique<UpstreamPool>(
        sim, upstream_deps, std::move(group), config_.pool));
  }

  // Compile the policy chain against the pool names; kRoutePool targets
  // resolve to indices here, so an unknown name fails construction.
  chain_ = policy::RuleChain(config_.policy, pool_names_);

  if (!config_.snapshot_dir.empty()) {
    dns::SnapshotConfig snap_config;
    snap_config.path = config_.snapshot_dir + "/shard-" +
                       std::to_string(config_.shard_index) + ".snap";
    snapshot_ = std::make_unique<dns::SnapshotTier>(std::move(snap_config));
    warm_start_from_snapshot();
  }
  listener_ = stub_udp.bind(config_.listen_port);
  listener_->on_datagram([this](const net::Endpoint& from,
                                util::Buffer payload) {
    on_stub_query(from, std::move(payload));
  });
  listener_->on_batch([this](std::span<net::Datagram> batch) {
    on_stub_batch(batch);
  });
}

std::vector<dns::ResourceRecord> ForwarderEngine::clamp_ttls(
    std::vector<dns::ResourceRecord> records) const {
  if (config_.max_ttl == 0) return records;
  for (auto& rr : records) rr.ttl = std::min(rr.ttl, config_.max_ttl);
  return records;
}

dns::Message& ForwarderEngine::stage_response(const dns::Question& question,
                                              dns::RCode rcode, bool tc) {
  dns::Message& response = scratch_response_;
  response.qr = true;
  response.tc = tc;
  response.ra = true;
  response.rcode = rcode;
  // Copy-assign into retained storage: after warm-up neither the question
  // slot nor the pooled encode buffer allocates.
  response.questions.resize(1);
  response.questions[0] = question;
  response.authorities.clear();
  response.additionals.clear();
  return response;
}

void ForwarderEngine::send_response(const Waiter& waiter,
                                    const dns::Question& question,
                                    dns::RCode rcode, bool tc) {
  dns::Message& response = stage_response(question, rcode, tc);
  response.id = waiter.stub_id;
  ship(waiter.from, response.encode_buffer());
}

void ForwarderEngine::ship(const net::Endpoint& to, util::Buffer wire) {
  if (batching_) {
    response_flush_.push_back(
        net::OutboundDatagram{to, net::IpAddress{}, std::move(wire)});
    return;
  }
  listener_->send_to(to, std::move(wire));
}

void ForwarderEngine::answer_image(const Waiter& waiter,
                                   const dns::ResponseImage& image,
                                   dns::RRClass qclass, dns::TtlRewrite ttl) {
  ship(waiter.from, image.answer(waiter.stub_id, qclass, ttl));
}

void ForwarderEngine::promote(const dns::DnsName& name, dns::RRType type,
                              const dns::ResponseImage& image, bool to_l2) {
  if (config_.cache_enabled) l1_.insert(name, type, image, sim_.now());
  if (to_l2 && config_.l2 != nullptr) {
    config_.l2->insert(config_.shard_index, name, type, image, sim_.now());
  }
}

void ForwarderEngine::answer_servfail(const Waiter& waiter,
                                      const dns::Question& question) {
  ++counters_.servfails_sent;
  scratch_response_.answers.clear();
  send_response(waiter, question, dns::RCode::kServFail);
}

void ForwarderEngine::answer_stale_with_refresh(
    const Waiter& waiter, const dns::Question& question,
    const dns::ResponseImage& image, std::uint32_t pool_index) {
  ++counters_.stale_hits;
  answer_image(waiter, image, question.klass,
               dns::TtlRewrite::stamp(kStaleTtl));
  // Exactly one background refresh per key: a refresh (or a coalesced
  // resolve) already in flight absorbs this hit, so a burst of stale-served
  // queries never turns into a resolve-per-query storm.
  const dns::RecordKeyView key_view{question.name, question.type};
  if (inflight_.find(key_view) == inflight_.end()) {
    ++counters_.stale_refreshes;
    auto [it, inserted] =
        inflight_.try_emplace(dns::RecordKey{question.name, question.type});
    start_resolve(it->first, question, pool_index);
  }
}

void ForwarderEngine::answer_tier_hit(const Waiter& waiter,
                                      const dns::Question& question,
                                      const dns::TierHit& hit,
                                      std::uint32_t pool_index, bool to_l2) {
  if (hit.stale) {
    // Stale bytes are never promoted — the single refresh this triggers
    // re-promotes the fresh answer into L1 (and the L2/snapshot) instead.
    answer_stale_with_refresh(waiter, question, *hit.image, pool_index);
    return;
  }
  // Promote up the hierarchy with TTLs decayed to the remaining lifetime
  // (keeping expiry honest), so this shard's next query for the key is an
  // L1 hit — and, for a snapshot hit, siblings skip their own disk lookup.
  const dns::ResponseImage promoted = hit.image->decayed(hit.age_s);
  promote(question.name, question.type, promoted, to_l2);
  answer_image(waiter, promoted, question.klass, dns::TtlRewrite::decay(0));
}

void ForwarderEngine::warm_start_from_snapshot() {
  // Replayed entries carry absolute stamps from the previous process; a
  // fresh subset of them is promoted so the first epoch after a restart
  // behaves like the steady state before it. TTLs are decayed to their
  // remaining lifetime, keeping every tier's expiry instant identical to
  // the original one.
  snapshot_->for_each([&](const dns::DnsName& name, dns::RRType type,
                          const dns::TierEntry& entry) {
    // Expired: lookup() may still serve it stale.
    const auto hit = dns::classify(entry, sim_.now(), /*max_stale=*/0);
    if (!hit) return;
    promote(name, type, entry.image.decayed(hit->age_s), /*to_l2=*/true);
    ++counters_.snapshot_warm_loaded;
  });
}

bool ForwarderEngine::apply_policy_verdict(const policy::Verdict& verdict,
                                           const Waiter& waiter,
                                           const dns::Question& question) {
  switch (verdict.action) {
    case policy::ActionKind::kAllow:
    case policy::ActionKind::kRoutePool:
      return false;
    case policy::ActionKind::kDrop:
      // Silent drop: no response at all. The client experiences a timeout,
      // so the taxonomy books it as a deliberate teardown (kCancelled).
      ++counters_.policy_dropped;
      counters_.policy_errors.record(util::ErrorClass::kCancelled);
      return true;
    case policy::ActionKind::kRefuse:
      ++counters_.policy_refused;
      counters_.policy_errors.record(util::ErrorClass::kRcode);
      scratch_response_.answers.clear();
      send_response(waiter, question, verdict.rcode);
      return true;
    case policy::ActionKind::kTruncate:
      // TC=1, empty answer: a real stub would retry over TCP — in this
      // testbed it is the "slow-path the abuser" action.
      ++counters_.policy_truncated;
      counters_.policy_errors.record(util::ErrorClass::kTruncated);
      scratch_response_.answers.clear();
      send_response(waiter, question, dns::RCode::kNoError, /*tc=*/true);
      return true;
  }
  return false;
}

void ForwarderEngine::on_stub_batch(std::span<net::Datagram> batch) {
  // Drain the whole burst in this one event, staging responses; a single
  // sendmmsg-style flush then pushes them into the fabric in order — the
  // same per-packet semantics as immediate sends, amortized.
  batching_ = true;
  for (net::Datagram& datagram : batch) {
    on_stub_query(datagram.from, std::move(datagram.payload));
  }
  batching_ = false;
  if (!response_flush_.empty()) listener_->send_batch(response_flush_);
}

void ForwarderEngine::on_stub_query(const net::Endpoint& from,
                                    util::Buffer payload) {
  // One validating pass into reusable scratch: the id, the flags and the
  // question are all a query needs, and the scan accepts exactly what a
  // full decode would, so the steady-state path allocates nothing.
  if (!dns::scan_message(payload, scratch_head_) || scratch_head_.qr() ||
      scratch_head_.qdcount == 0) {
    ++counters_.malformed;
    return;
  }
  const dns::Question& question = scratch_head_.question;
  const dns::RecordKeyView key_view{question.name, question.type};
  const Waiter waiter{from, scratch_head_.id};

  ++counters_.queries;

  // Policy runs BEFORE cache and coalescing: abusive traffic must not touch
  // (and thus never pollutes or probes) any downstream mechanism. An empty
  // chain evaluates to kAllow without a branch per rule.
  std::uint32_t pool_index = 0;
  if (!chain_.empty()) {
    const policy::Verdict verdict = chain_.evaluate(policy::QueryInfo{
        from.address, question.name, question.type, sim_.now()});
    if (apply_policy_verdict(verdict, waiter, question)) return;
    pool_index = verdict.pool;
    if (pool_index != 0) ++counters_.policy_routed;
  }

  const SimTime max_stale = config_.serve_stale ? kMaxStale : 0;
  if (config_.cache_enabled) {
    if (auto hit = l1_.lookup(question.name, question.type, sim_.now(),
                              max_stale)) {
      if (!hit->stale) {
        ++counters_.cache_hits;
        answer_image(waiter, *hit->image, question.klass,
                     dns::TtlRewrite::decay(hit->age_s));
        return;
      }
      // RFC 8767: answer stale immediately, refresh in the background.
      answer_stale_with_refresh(waiter, question, *hit->image, pool_index);
      return;
    }
  }

  // L1 had neither a fresh nor a stale entry: walk down the hierarchy —
  // shared L2, then the persistent snapshot — before paying (or joining)
  // an upstream resolve. The L2 serves stale only with l2_serve_stale.
  dns::TierHit hit;
  if (config_.l2 != nullptr) {
    ++counters_.l2_lookups;
    if (config_.l2->lookup(config_.shard_index, question.name, question.type,
                           sim_.now(), hit,
                           config_.l2_serve_stale ? max_stale : 0)) {
      ++counters_.l2_hits;
      answer_tier_hit(waiter, question, hit, pool_index, /*to_l2=*/false);
      return;
    }
  }
  if (snapshot_ != nullptr) {
    ++counters_.snapshot_lookups;
    if (snapshot_->lookup(question.name, question.type, sim_.now(), hit,
                          max_stale)) {
      ++counters_.snapshot_hits;
      answer_tier_hit(waiter, question, hit, pool_index, /*to_l2=*/true);
      return;
    }
  }

  if (config_.coalesce) {
    auto it = inflight_.find(key_view);
    if (it != inflight_.end()) {
      ++counters_.coalesced;
      it->second.waiters.push_back(waiter);
      return;
    }
  }
  ++counters_.misses;
  if (!config_.coalesce) {
    // Every query pays its own upstream resolve (the ablation baseline).
    ++counters_.upstream_resolves;
    pools_[pool_index]->resolve(
        question, [this, waiter, question](dox::QueryResult result) {
          deliver({waiter}, question, std::move(result));
        });
    return;
  }
  auto [it, inserted] =
      inflight_.try_emplace(dns::RecordKey{question.name, question.type});
  it->second.waiters.push_back(waiter);
  start_resolve(it->first, question, pool_index);
}

void ForwarderEngine::start_resolve(const dns::RecordKey& key,
                                    const dns::Question& question,
                                    std::uint32_t pool_index) {
  ++counters_.upstream_resolves;
  pools_[pool_index]->resolve(
      question, [this, key, question](dox::QueryResult result) {
        on_upstream_result(key, question, std::move(result));
      });
}

void ForwarderEngine::on_upstream_result(const dns::RecordKey& key,
                                         const dns::Question& question,
                                         dox::QueryResult result) {
  auto it = inflight_.find(key);
  std::vector<Waiter> waiters;
  if (it != inflight_.end()) {
    waiters = std::move(it->second.waiters);
    inflight_.erase(it);
  }
  deliver(std::move(waiters), question, std::move(result));
}

void ForwarderEngine::deliver(std::vector<Waiter> waiters,
                              const dns::Question& question,
                              dox::QueryResult result) {
  if (!result.ok()) {
    DOXLAB_DEBUG("engine upstream failure: " << result.error());
    // RFC 8767: a resolution failure is the canonical serve-stale trigger —
    // prefer stale data over SERVFAIL while it lasts.
    if (config_.cache_enabled && config_.serve_stale) {
      if (auto hit = l1_.lookup(question.name, question.type, sim_.now(),
                                kMaxStale);
          hit && hit->stale) {
        counters_.stale_hits += waiters.size();
        for (const Waiter& waiter : waiters) {
          answer_image(waiter, *hit->image, question.klass,
                       dns::TtlRewrite::stamp(kStaleTtl));
        }
        return;
      }
    }
    for (const Waiter& waiter : waiters) answer_servfail(waiter, question);
    return;
  }

  // One image per resolve: it fills every tier and answers every waiter.
  scratch_response_.answers = clamp_ttls(std::move(result.response.answers));
  const dns::ResponseImage image = dns::ResponseImage::of(
      stage_response(question, dns::RCode::kNoError));
  if (config_.cache_enabled) {
    l1_.insert(question.name, question.type, image, sim_.now());
  }
  if (config_.l2 != nullptr) {
    // Deferred insert: parks on this shard's lane; visible to every shard
    // after the next epoch-barrier sweep.
    config_.l2->insert(config_.shard_index, question.name, question.type,
                       image, sim_.now());
  }
  if (snapshot_ != nullptr) {
    // Persist with the absolute stamp: a restarted engine replays this and
    // serves the remaining lifetime, not a reset TTL.
    snapshot_->insert(question.name, question.type, image, sim_.now());
  }
  for (const Waiter& waiter : waiters) {
    answer_image(waiter, image, question.klass, dns::TtlRewrite::decay(0));
  }
}

EngineStats ForwarderEngine::stats() const {
  EngineStats s = counters_;
  const dns::TierStats l1 = l1_.tier_stats();
  s.l1_lookups = l1.lookups;
  s.l1_evictions = l1.evictions;
  s.l1_entries = l1.entries;
  s.l1_bytes = l1.bytes;
  if (snapshot_ != nullptr) {
    const dns::TierStats snap = snapshot_->tier_stats();
    s.snapshot_evictions = snap.evictions;
    s.snapshot_entries = snap.entries;
    s.snapshot_bytes = snap.bytes;
  }
  for (const auto& pool : pools_) {
    s.upstream_attempts += pool->attempts_issued();
    s.failovers += pool->failovers();
    s.upstream_errors.add(pool->error_counts());
    auto health = pool->health();
    s.upstreams.insert(s.upstreams.end(),
                       std::make_move_iterator(health.begin()),
                       std::make_move_iterator(health.end()));
  }
  s.policy_evaluations = chain_.evaluations();
  s.policy_rules = chain_.stats();
  return s;
}

void EngineStats::add(const EngineStats& other, stats::Across across) {
  stats::merge(*this, other, across);
  upstream_errors.add(other.upstream_errors);
  // A restart rebuilds the same pools: one row per upstream, whose events
  // add and whose health is the live world's. Sibling shards' rows append.
  const bool same_pools =
      across == stats::Across::kRestart &&
      std::equal(upstreams.begin(), upstreams.end(), other.upstreams.begin(),
                 other.upstreams.end(),
                 [](const UpstreamHealth& a, const UpstreamHealth& b) {
                   return a.name == b.name;
                 });
  if (same_pools) {
    for (std::size_t i = 0; i < upstreams.size(); ++i) {
      UpstreamHealth row = other.upstreams[i];
      row.attempts += upstreams[i].attempts;
      row.failures += upstreams[i].failures;
      upstreams[i] = std::move(row);
    }
  } else {
    upstreams.insert(upstreams.end(), other.upstreams.begin(),
                     other.upstreams.end());
  }
  policy_errors.add(other.policy_errors);
  bool aligned = policy_rules.size() == other.policy_rules.size();
  for (std::size_t i = 0; aligned && i < policy_rules.size(); ++i) {
    aligned = policy_rules[i].name == other.policy_rules[i].name &&
              policy_rules[i].matcher == other.policy_rules[i].matcher &&
              policy_rules[i].action == other.policy_rules[i].action;
  }
  if (aligned) {
    for (std::size_t i = 0; i < policy_rules.size(); ++i) {
      policy_rules[i].matches += other.policy_rules[i].matches;
    }
  } else {
    policy_rules.insert(policy_rules.end(), other.policy_rules.begin(),
                        other.policy_rules.end());
  }
}

}  // namespace doxlab::engine
