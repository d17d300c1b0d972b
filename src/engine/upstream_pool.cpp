#include "engine/upstream_pool.h"

#include <algorithm>

#include "util/logging.h"

namespace doxlab::engine {

/// One resolve() call in flight: the candidate plan, the attempts started
/// so far, and the single-shot delivery state.
struct UpstreamPool::Pending {
  dns::Question question;
  ResultHandler handler;
  std::vector<Candidate> candidates;
  std::size_t next = 0;  ///< next candidate to start
  int charged = 0;       ///< attempts counted against max_attempts
  bool done = false;
  util::Error last_error = util::Error::no_route("no upstream available");

  struct Attempt {
    std::size_t upstream = 0;
    bool settled = false;   ///< health outcome recorded
    bool advanced = false;  ///< next candidate already started
    sim::Timer timeout;
  };
  std::vector<Attempt> attempts;
};

UpstreamPool::UpstreamPool(sim::Simulator& sim,
                           const dox::TransportDeps& deps,
                           std::vector<UpstreamConfig> upstreams,
                           PoolConfig config)
    : sim_(sim), deps_(deps), config_(config) {
  upstreams_.reserve(upstreams.size());
  for (auto& upstream_config : upstreams) {
    Upstream upstream;
    upstream.config = std::move(upstream_config);
    upstream.transports.resize(upstream.config.protocols.size());
    upstreams_.push_back(std::move(upstream));
  }
}

bool UpstreamPool::available(const Upstream& upstream, SimTime now) const {
  return upstream.consecutive_failures < config_.unhealthy_after ||
         now >= upstream.quarantined_until;
}

std::vector<UpstreamPool::Candidate> UpstreamPool::plan(SimTime now) const {
  // Upstream order: available ones first in configuration order,
  // quarantined ones appended last so a fully-dead pool still retries
  // everything before giving up.
  std::vector<std::size_t> order(upstreams_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_partition(order.begin(), order.end(), [&](std::size_t i) {
    return available(upstreams_[i], now);
  });
  std::vector<Candidate> candidates;
  for (std::size_t upstream : order) {
    if (!upstreams_[upstream].admin_enabled) continue;
    const auto& chain = upstreams_[upstream].config.protocols;
    for (std::size_t protocol = 0; protocol < chain.size(); ++protocol) {
      candidates.push_back(Candidate{upstream, protocol});
    }
  }
  return candidates;
}

dox::DnsTransport& UpstreamPool::transport(std::size_t upstream,
                                           std::size_t protocol) {
  Upstream& up = upstreams_[upstream];
  auto& slot = up.transports[protocol];
  if (!slot) {
    const dox::DnsProtocol proto = up.config.protocols[protocol];
    dox::TransportOptions options = up.config.transport_options;
    options.resolver = net::Endpoint{up.config.address,
                                     dox::default_port(proto)};
    slot = dox::make_transport(proto, deps_, options);
  }
  return *slot;
}

void UpstreamPool::resolve(const dns::Question& question,
                           ResultHandler handler) {
  auto pending = std::make_shared<Pending>();
  pending->question = question;
  pending->handler = std::move(handler);
  pending->candidates = plan(sim_.now());
  start_attempt(pending);
}

void UpstreamPool::start_attempt(const std::shared_ptr<Pending>& pending) {
  if (pending->done) return;
  if (pending->next >= pending->candidates.size() ||
      pending->charged >= config_.max_attempts) {
    pending->done = true;
    ++exhausted_;
    for (auto& attempt : pending->attempts) attempt.timeout.cancel();
    dox::QueryResult failure;
    failure.outcome = util::Outcome::failure(pending->last_error);
    pending->handler(failure);
    return;
  }

  const Candidate candidate = pending->candidates[pending->next++];
  const int attempt = static_cast<int>(pending->attempts.size());
  Pending::Attempt new_attempt;
  new_attempt.upstream = candidate.upstream;
  pending->attempts.push_back(std::move(new_attempt));
  ++pending->charged;
  ++attempts_issued_;
  if (attempt > 0) ++failovers_;
  ++upstreams_[candidate.upstream].attempts;

  // Happy-Eyeballs stagger: if this attempt has not concluded within the
  // budget, the next candidate starts — but this one keeps racing and a
  // late success still wins delivery.
  pending->attempts[attempt].timeout = sim_.schedule(
      config_.attempt_timeout, [this, pending, attempt] {
        dox::QueryResult timeout;
        timeout.outcome = util::Outcome::failure(util::Error::timeout(
            std::string(util::kQueryDeadlineDetail)));
        finish_attempt(pending, attempt,
                       pending->attempts[attempt].upstream, timeout);
      });

  transport(candidate.upstream, candidate.protocol)
      .resolve(pending->question,
               [this, pending, attempt,
                upstream = candidate.upstream](dox::QueryResult result) {
                 finish_attempt(pending, attempt, upstream,
                                std::move(result));
               });
}

void UpstreamPool::finish_attempt(const std::shared_ptr<Pending>& pending,
                                  int attempt, std::size_t upstream_index,
                                  dox::QueryResult result) {
  Pending::Attempt& state = pending->attempts[attempt];
  // A well-formed REFUSED answer is not a transport failure: the upstream
  // is alive and answered promptly, it just declined the question. Walk to
  // the next candidate without recording a health failure and without
  // charging the attempt against max_attempts.
  const bool refused =
      result.ok() && result.response.rcode == dns::RCode::kRefused;
  // Health is recorded once per attempt — at the timeout or at the first
  // transport signal, whichever comes first.
  if (!state.settled) {
    state.settled = true;
    state.timeout.cancel();
    if (result.ok()) {
      record_success(upstreams_[upstream_index], result.total_time());
    } else {
      record_failure(upstreams_[upstream_index]);
    }
  }

  if (pending->done) return;
  if (result.ok() && !refused) {
    pending->done = true;
    for (auto& a : pending->attempts) a.timeout.cancel();
    pending->handler(std::move(result));
    return;
  }

  if (refused) {
    --pending->charged;  // declined, not failed: refund the attempt budget
    pending->last_error = util::Error::rcode_error(
        static_cast<std::uint8_t>(result.response.rcode),
        upstreams_[upstream_index].config.name + " answered REFUSED");
  } else {
    pending->last_error = result.error();
  }
  error_counts_.record(pending->last_error.cls);

  // Retry policy keys on the failure class: everything that can plausibly
  // be cured by another candidate (timeouts, resets, refused connections,
  // TLS/QUIC/protocol trouble, REFUSED answers) walks the chain; a
  // cancelled attempt means the resolve was torn down deliberately, so it
  // terminates without consuming the remaining candidates.
  if (pending->last_error.cls == util::ErrorClass::kCancelled) {
    pending->done = true;
    ++exhausted_;
    for (auto& a : pending->attempts) a.timeout.cancel();
    dox::QueryResult failure;
    failure.outcome = util::Outcome::failure(pending->last_error);
    pending->handler(failure);
    return;
  }
  if (!state.advanced) {
    state.advanced = true;
    start_attempt(pending);
  }
}

void UpstreamPool::record_success(Upstream& upstream, SimTime latency) {
  const double sample_ms = to_ms(latency);
  upstream.ewma_latency_ms =
      upstream.has_latency
          ? config_.ewma_alpha * sample_ms +
                (1.0 - config_.ewma_alpha) * upstream.ewma_latency_ms
          : sample_ms;
  upstream.has_latency = true;
  upstream.consecutive_failures = 0;
  upstream.quarantined_until = 0;
}

void UpstreamPool::record_failure(Upstream& upstream) {
  ++upstream.failures;
  ++upstream.consecutive_failures;
  if (upstream.consecutive_failures >= config_.unhealthy_after) {
    upstream.quarantined_until = sim_.now() + config_.quarantine;
    DOXLAB_DEBUG("pool: upstream " << upstream.config.name
                                   << " quarantined until "
                                   << upstream.quarantined_until);
  }
}

void UpstreamPool::set_enabled(std::size_t index, bool enabled) {
  if (index >= upstreams_.size()) return;
  Upstream& upstream = upstreams_[index];
  if (upstream.admin_enabled == enabled) return;
  upstream.admin_enabled = enabled;
  if (enabled) {
    // A re-announced catchment is a fresh path: stale failure counts from
    // before the withdrawal say nothing about it.
    upstream.consecutive_failures = 0;
    upstream.quarantined_until = 0;
  }
}

void UpstreamPool::reset_sessions() {
  for (auto& upstream : upstreams_) {
    for (auto& transport : upstream.transports) {
      if (transport) transport->reset_sessions();
    }
    upstream.consecutive_failures = 0;
    upstream.quarantined_until = 0;
  }
}

std::vector<UpstreamHealth> UpstreamPool::health() const {
  std::vector<UpstreamHealth> out;
  out.reserve(upstreams_.size());
  for (const auto& upstream : upstreams_) {
    UpstreamHealth h;
    h.name = upstream.config.name;
    h.ewma_latency_ms = upstream.ewma_latency_ms;
    h.consecutive_failures = upstream.consecutive_failures;
    h.attempts = upstream.attempts;
    h.failures = upstream.failures;
    h.healthy = upstream.consecutive_failures < config_.unhealthy_after;
    h.admin_enabled = upstream.admin_enabled;
    out.push_back(std::move(h));
  }
  return out;
}

}  // namespace doxlab::engine
