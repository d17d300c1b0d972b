// Upstream resolver pool: health tracking, retry-with-timeout, and
// cross-protocol fallback.
//
// One `UpstreamConfig` names a resolver reachable over an ordered list of
// DoX protocols — the fallback chain (e.g. DoQ -> DoT -> DoUDP). The pool
// keeps one lazily-created `dox::DnsTransport` per (upstream, protocol) so
// connections, tickets and tokens are reused across queries, exactly like a
// long-running forwarder process.
//
// resolve() walks candidates Happy-Eyeballs-style: each attempt gets
// `attempt_timeout` before the next (protocol, then next upstream) is
// started; the first success wins. Per-upstream health is an EWMA of resolve
// latency plus a consecutive-failure count; an upstream that fails
// `unhealthy_after` times in a row is quarantined and only re-probed after
// `quarantine` elapses, so steady-state traffic routes around a dead primary
// without paying the timeout on every query.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dox/transport.h"
#include "sim/simulator.h"

namespace doxlab::engine {

struct UpstreamConfig {
  std::string name;
  /// Named pool this upstream belongs to. The engine groups upstreams with
  /// the same pool name into one `UpstreamPool`; policy kRoutePool actions
  /// reference these names, compiled to pool indices. Everything in one
  /// pool (the default) behaves exactly like the pre-policy engine.
  std::string pool = "default";
  net::IpAddress address;
  /// Fallback chain, most preferred first. Ports are the protocol defaults.
  std::vector<dox::DnsProtocol> protocols = {dox::DnsProtocol::kDoQ,
                                             dox::DnsProtocol::kDoT,
                                             dox::DnsProtocol::kDoUdp};
  /// Options for every transport towards this upstream (resolver endpoint
  /// is filled in per protocol).
  dox::TransportOptions transport_options;
};

/// Health snapshot of one upstream (stats surface).
struct UpstreamHealth {
  std::string name;
  /// EWMA of successful resolve latency, in milliseconds (0 until the first
  /// success).
  double ewma_latency_ms = 0.0;
  int consecutive_failures = 0;
  std::uint64_t attempts = 0;
  std::uint64_t failures = 0;
  bool healthy = true;
  /// Administratively withdrawn (churn campaigns); candidate plans skip it.
  bool admin_enabled = true;
};

struct PoolConfig {
  /// Per-attempt budget before the next candidate is started.
  SimTime attempt_timeout = 2 * kSecond;
  /// Consecutive failures after which an upstream is quarantined.
  int unhealthy_after = 3;
  /// How long a quarantined upstream waits before a live query re-probes it.
  SimTime quarantine = 10 * kSecond;
  /// EWMA smoothing factor (weight of the newest latency sample).
  double ewma_alpha = 0.2;
  /// Give up after this many attempts across the whole pool.
  int max_attempts = 8;
};

class UpstreamPool {
 public:
  using ResultHandler = std::function<void(dox::QueryResult)>;

  UpstreamPool(sim::Simulator& sim, const dox::TransportDeps& deps,
               std::vector<UpstreamConfig> upstreams, PoolConfig config);

  UpstreamPool(const UpstreamPool&) = delete;
  UpstreamPool& operator=(const UpstreamPool&) = delete;

  /// Resolves `question` against the pool. The handler fires exactly once:
  /// with the first successful attempt, or with a failure once every
  /// candidate is exhausted.
  void resolve(const dns::Question& question, ResultHandler handler);

  /// Drops all upstream connections (keeps tickets/tokens) and resets
  /// quarantine state.
  void reset_sessions();

  /// Administratively withdraws (false) or re-announces (true) one upstream
  /// — the anycast-catchment analogue of a route flap. A withdrawn upstream
  /// never appears in a candidate plan, unlike a quarantined one which is
  /// still appended last as a re-probe target. Re-announcing clears health
  /// state so the first query after the flap is not biased by stale
  /// failures. Out-of-range indices are ignored.
  void set_enabled(std::size_t index, bool enabled);

  std::vector<UpstreamHealth> health() const;
  std::size_t size() const { return upstreams_.size(); }

  /// Total attempts issued towards upstreams (the coalescing ablation
  /// compares this against client queries).
  std::uint64_t attempts_issued() const { return attempts_issued_; }
  /// Attempts beyond the first for a query (fallback pressure).
  std::uint64_t failovers() const { return failovers_; }
  /// resolve() calls that exhausted every candidate.
  std::uint64_t exhausted() const { return exhausted_; }
  /// Per-ErrorClass tally of failed upstream attempts (REFUSED answers
  /// count under kRcode even though the transport reported success).
  const util::ErrorCounters& error_counts() const { return error_counts_; }

 private:
  struct Upstream {
    UpstreamConfig config;
    /// One transport per protocol in the chain, created on first use.
    std::vector<std::unique_ptr<dox::DnsTransport>> transports;
    double ewma_latency_ms = 0.0;
    bool has_latency = false;
    int consecutive_failures = 0;
    std::uint64_t attempts = 0;
    std::uint64_t failures = 0;
    SimTime quarantined_until = 0;
    bool admin_enabled = true;
  };

  /// A candidate attempt: upstream index + position in its protocol chain.
  struct Candidate {
    std::size_t upstream;
    std::size_t protocol;
  };

  struct Pending;

  bool available(const Upstream& upstream, SimTime now) const;
  std::vector<Candidate> plan(SimTime now) const;
  dox::DnsTransport& transport(std::size_t upstream, std::size_t protocol);
  void start_attempt(const std::shared_ptr<Pending>& pending);
  void finish_attempt(const std::shared_ptr<Pending>& pending, int attempt,
                      std::size_t upstream_index, dox::QueryResult result);
  void record_success(Upstream& upstream, SimTime latency);
  void record_failure(Upstream& upstream);

  sim::Simulator& sim_;
  dox::TransportDeps deps_;
  PoolConfig config_;
  std::vector<Upstream> upstreams_;
  std::uint64_t attempts_issued_ = 0;
  std::uint64_t failovers_ = 0;
  std::uint64_t exhausted_ = 0;
  util::ErrorCounters error_counts_;
};

}  // namespace doxlab::engine
