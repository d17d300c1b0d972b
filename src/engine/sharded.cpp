#include "engine/sharded.h"

#include <ctime>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <span>
#include <string>
#include <utility>

#include "engine/schedule.h"
#include "util/thread_pool.h"

namespace doxlab::engine {

namespace {

using Clock = std::chrono::steady_clock;

/// CPU time consumed by the CALLING thread, in milliseconds. Shard busy
/// time is charged in thread CPU time, not wall time: when the host has
/// fewer cores than shards the OS interleaves the workers, and a wall
/// clock would bill every shard for its neighbours' timeslices — thread
/// CPU time measures only the work this shard actually did, so the
/// critical-path metric is meaningful on any host.
double thread_cpu_ms() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
#else
  return std::chrono::duration<double, std::milli>(
             Clock::now().time_since_epoch())
      .count();
#endif
}

/// Width of the engine-stat windows compared around a restart.
constexpr SimTime kRestartWindow = kSecond;

bool finite_rate(double qps) { return std::isfinite(qps) && qps >= 0.0; }

/// Every config the runner cannot run is rejected here, naming the field,
/// before any schedule or world is built.
void validate(const ShardedConfig& config) {
  const auto reject = [](const std::string& what) {
    throw std::invalid_argument("invalid engine config: " + what);
  };
  if (config.shards == 0) reject("shards must be at least 1");
  if (config.clients == 0 || config.clients > (std::size_t{1} << 32)) {
    reject("clients must be in [1, 2^32]");  // Arrival::client is 32 bits
  }
  if (config.names == 0 || config.names >= kAttackTag) {
    reject("names must be in [1, 2^31)");
  }
  if (config.client_span == 0) reject("client_span must be at least 1");
  if (!finite_rate(config.qps)) reject("qps must be a finite rate >= 0");
  if (config.upstream_one_way.empty()) {
    reject("upstream_one_way must name at least one upstream");
  }
  for (std::size_t k = 0; k < config.attacks.size(); ++k) {
    const std::string field = "attacks[" + std::to_string(k) + "]";
    if (!finite_rate(config.attacks[k].qps)) {
      reject(field + ".qps must be a finite rate >= 0");
    }
    if (config.attacks[k].source_count == 0) {
      reject(field + ".source_count must be at least 1");
    }
  }
  for (std::size_t i = 0; i < config.churn.size(); ++i) {
    if (config.churn[i].upstream >= config.upstream_one_way.size()) {
      reject("churn[" + std::to_string(i) + "].upstream " +
             std::to_string(config.churn[i].upstream) +
             " is out of range (" +
             std::to_string(config.upstream_one_way.size()) +
             " upstreams)");
    }
  }
  if (config.restart_at < 0 ||
      (config.restart_at > 0 && config.restart_at >= config.duration)) {
    reject("restart_at must fall inside the arrival window");
  }
  if (config.series_bucket < 0) reject("series_bucket must be >= 0");
}

/// Tiles the wall clock with the run's phases: each lap charges the time
/// since the previous lap to one phase, so the phases sum to the wall.
class PhaseClock {
 public:
  explicit PhaseClock(ShardedResult& result) : result_(result) {}

  void lap(double ShardedResult::*phase) {
    const Clock::time_point now = Clock::now();
    result_.*phase += ms(now - last_);
    last_ = now;
  }
  /// Ends the wall at the last lap.
  void close() { result_.wall_ms = ms(last_ - start_); }

 private:
  static double ms(Clock::duration elapsed) {
    return std::chrono::duration<double, std::milli>(elapsed).count();
  }

  ShardedResult& result_;
  Clock::time_point start_ = Clock::now();
  Clock::time_point last_ = start_;
};

/// Counts `segment`'s arrivals, builds one set of shard worlds for it, runs
/// the epoch loop to the end of its settle window, drawing the arrivals
/// batch by batch ahead of the epochs, folds every shard into `result` (the
/// engine counters at `segment.probes[p]` into `*probe_out[p]`) and tears
/// the worlds down. Every phase runs on `pool` where it can, and each is
/// charged to `clock`.
void run_world(const ShardedConfig& config, const Segment& segment,
               const std::vector<EngineStats*>& probe_out,
               util::ThreadPool& pool, PhaseClock& clock,
               ShardedResult& result) {
  const std::uint32_t n = config.shards;
  Schedule schedule(config, segment.start, segment.stop, pool);
  result.total_arrivals += schedule.legit();
  clock.lap(&ShardedResult::schedule_ms);

  auto l2 = std::make_unique<dns::SharedPacketCache>(config.l2_capacity, n);
  dns::SharedPacketCache* l2_ptr =
      config.l2_capacity > 0 ? l2.get() : nullptr;
  if (config.engine.l2_serve_stale && config.engine.serve_stale) {
    // Stale serving needs expired entries to survive the barrier sweeps for
    // the whole stale window.
    l2->set_stale_retention(kMaxStale);
  }
  // Each world touches only its own state and the L2's per-shard insert
  // lane, so the shards build side by side.
  std::vector<std::unique_ptr<EngineShard>> shards(n);
  pool.parallel_for(n, [&](std::size_t i) {
    shards[i] = std::make_unique<EngineShard>(
        config, static_cast<std::uint32_t>(i), schedule, l2_ptr, segment);
  });
  clock.lap(&ShardedResult::build_ms);

  // One fill draws a chunk per pool thread: shard s's run of chunk j is
  // runs[s * batch + j], lent by the shard's window and handed back filled.
  std::vector<std::vector<Arrival>> runs;
  const auto fill = [&] {
    const std::size_t batch =
        std::min(pool.thread_count(), schedule.chunks_left());
    runs.resize(batch * n);
    const auto of = [&](std::uint32_t s) {
      return std::span(runs).subspan(s * batch, batch);
    };
    for (std::uint32_t s = 0; s < n; ++s) shards[s]->lend_runs(of(s));
    schedule.fill(pool, runs);
    for (std::uint32_t s = 0; s < n; ++s) {
      shards[s]->extend(of(s), schedule.horizon());
    }
  };

  std::vector<double> busy_ms(n, 0.0);
  std::vector<double> epoch_busy_ms(n, 0.0);

  // Arrival window plus settle slack: client timeout and a full pool
  // fallback walk for the stragglers.
  const SimTime end = segment.stop + kClientTimeout + 15 * kSecond;
  const SimTime epoch = std::max<SimTime>(1, config.epoch);
  SimTime deadline = segment.start;
  while (deadline < end) {
    // Epoch-barrier while the swarms are active; once every shard is past
    // the arrival window with no query in flight, the rest of the settle
    // window collapses into one final epoch (event streams are unchanged —
    // a shard executes its queue in the same order however it is sliced).
    bool all_drained = true;
    for (const auto& shard : shards) {
      if (!shard->drained()) {
        all_drained = false;
        break;
      }
    }
    deadline = all_drained ? end : std::min(end, deadline + epoch);
    // No shard may run an epoch past its last drawn entry.
    if (schedule.horizon() <= deadline) {
      clock.lap(&ShardedResult::epochs_ms);
      while (schedule.horizon() <= deadline) fill();
      clock.lap(&ShardedResult::schedule_ms);
    }
    // Parallel phase: every shard runs to the epoch boundary. Each worker
    // writes only its own busy slot — no sharing, no synchronization needed
    // beyond the pool's own completion barrier.
    pool.parallel_for(n, [&](std::size_t i) {
      const double start = thread_cpu_ms();
      shards[i]->run_until(deadline);
      epoch_busy_ms[i] = thread_cpu_ms() - start;
    });
    double slowest = 0.0;
    for (std::uint32_t i = 0; i < n; ++i) {
      busy_ms[i] += epoch_busy_ms[i];
      slowest = std::max(slowest, epoch_busy_ms[i]);
    }
    // Serial phase: merge the shards' deferred L2 inserts. All shard clocks
    // sit exactly at `deadline`, so that is the sweep's notion of now.
    const double sweep_start = thread_cpu_ms();
    if (l2_ptr != nullptr) l2_ptr->sweep(deadline);
    const double swept = thread_cpu_ms() - sweep_start;
    result.sweep_ms += swept;
    result.critical_path_ms += slowest + swept;
    ++result.epochs;
  }
  clock.lap(&ShardedResult::epochs_ms);

  // Each shard's outcome takes this world under the restart rule: the
  // first world's counters land on zeros, and a rebuilt world's events add
  // to them while its gauges replace the torn-down world's. Samples move.
  const bool first = segment.start == 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    EngineShard& shard = *shards[i];
    ShardOutcome& outcome = result.shards[i];
    outcome.arrivals += shard.arrivals_scheduled();
    outcome.events += shard.events_executed();
    outcome.outcome_digest += shard.outcome_digest();
    outcome.busy_ms += busy_ms[i];
    outcome.engine.add(shard.engine_stats(), stats::Across::kRestart);
    outcome.load.add(shard.take_report(), stats::Across::kRestart);
    outcome.stream_digest =
        first ? shard.stream_digest()
              : (outcome.stream_digest * 0x100000001B3ull) ^
                    shard.stream_digest();

    // Attack and series counters are all events, so one running total
    // over shards and worlds is exact.
    for (std::size_t k = 0; k < result.attacks.size(); ++k) {
      stats::merge(result.attacks[k], shard.attack_reports()[k],
                   stats::Across::kShards);
    }
    for (std::size_t p = 0; p < probe_out.size(); ++p) {
      probe_out[p]->add(shard.probes()[p], stats::Across::kShards);
    }
    const std::vector<SeriesBucket>& series = shard.series();
    if (result.series.size() < series.size()) {
      result.series.resize(series.size());
    }
    for (std::size_t b = 0; b < series.size(); ++b) {
      SeriesBucket& into = result.series[b];
      into.start = series[b].start;
      stats::merge(into, series[b], stats::Across::kShards);
      into.latency_ms.insert(into.latency_ms.end(),
                             series[b].latency_ms.begin(),
                             series[b].latency_ms.end());
    }
  }
  // Every shard applies every event; count each one once.
  result.events_executed += shards[0]->churn_applied();
  stats::merge(result.l2, l2->stats(), stats::Across::kRestart);
  clock.lap(&ShardedResult::merge_ms);

  pool.parallel_for(n, [&](std::size_t i) { shards[i].reset(); });
  l2.reset();
  clock.lap(&ShardedResult::teardown_ms);
}

}  // namespace

double ShardedResult::attack_shed_rate() const {
  std::uint64_t sent = 0, answered = 0;
  for (const AttackReport& a : attacks) {
    sent += a.sent;
    answered += a.answered;
  }
  return sent == 0 ? 0.0
                   : static_cast<double>(sent - answered) /
                         static_cast<double>(sent);
}

ShardedResult run_sharded(const ShardedConfig& config) {
  validate(config);
  const std::uint32_t n = config.shards;

  ShardedResult result;
  PhaseClock clock(result);
  result.shards.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) result.shards[i].index = i;
  for (const AttackConfig& attack : config.attacks) {
    result.attacks.push_back(AttackReport{attack.kind});
  }

  {
    // One pool serves the whole run, both worlds of a restart included.
    util::ThreadPool pool(config.threads);
    if (config.restart_at == 0) {
      run_world(config, Segment{0, config.duration, {}}, {}, pool, clock,
                result);
    } else {
      // The two-world restart: the first worlds take the arrivals before
      // `restart_at` and drain; the rebuilt ones take the rest.
      const SimTime restart = config.restart_at;
      const SimTime window = kRestartWindow;
      run_world(config,
                Segment{0, restart,
                        {std::max<SimTime>(0, restart - window), restart}},
                {&result.pre_window_start, &result.pre_restart}, pool, clock,
                result);
      run_world(config, Segment{restart, config.duration, {restart + window}},
                {&result.post_first_epoch}, pool, clock, result);
    }
  }
  clock.lap(&ShardedResult::teardown_ms);  // the pool's workers joined

  // The merged samples are the one copy: every shard's move over, freed
  // as they go, into room reserved up front (one shard's are taken whole).
  std::size_t samples = 0;
  for (const ShardOutcome& outcome : result.shards) {
    samples += outcome.load.latency_ms.size();
  }
  if (n > 1) result.load.latency_ms.reserve(samples);
  for (ShardOutcome& outcome : result.shards) {
    result.engine.add(outcome.engine, stats::Across::kShards);
    result.load.add(std::move(outcome.load), stats::Across::kShards);
    result.merged_digest =
        (result.merged_digest * 0x100000001B3ull) ^ outcome.stream_digest;
    result.outcome_digest += outcome.outcome_digest;
  }
  clock.lap(&ShardedResult::merge_ms);
  clock.close();
  return result;
}

std::vector<AttackConfig> abuse_attacks(double flood_qps, double torture_qps,
                                        double amp_qps, SimTime start) {
  AttackConfig flood;
  flood.kind = AttackKind::kRandomSubdomain;
  flood.qps = flood_qps;
  flood.start = start;
  flood.zone = "flood.example";
  flood.source_base = net::IpAddress::from_octets(198, 18, 0, 0);

  AttackConfig torture = flood;
  torture.kind = AttackKind::kWaterTorture;
  torture.qps = torture_qps;
  torture.zone = "torture.example";
  torture.source_base = net::IpAddress::from_octets(198, 18, 1, 0);

  AttackConfig amp = flood;
  amp.kind = AttackKind::kAmplification;
  amp.qps = amp_qps;
  amp.zone = "amp.example";
  amp.source_base = net::IpAddress::from_octets(203, 0, 113, 0);
  return {flood, torture, amp};
}

policy::ChainConfig abuse_chain(std::uint32_t rate_limit_qps) {
  policy::ChainConfig chain;
  {
    // Amplification defence: this testbed's clients never ask for TXT.
    policy::RuleConfig rule;
    rule.name = "refuse-txt";
    rule.matcher = policy::MatcherKind::kQType;
    rule.qtype = dns::RRType::kTXT;
    rule.action = policy::ActionKind::kRefuse;
    chain.rules.push_back(std::move(rule));
  }
  {
    // Volumetric backstop: per-/24 budget, silently drop the excess.
    policy::RuleConfig rule;
    rule.name = "qps-per-24";
    rule.matcher = policy::MatcherKind::kRateLimit;
    rule.rate_qps = rate_limit_qps;
    rule.subnet_prefix_len = 24;
    rule.action = policy::ActionKind::kDrop;
    chain.rules.push_back(std::move(rule));
  }
  {
    // What leaks under the rate limit still never resolves.
    policy::RuleConfig rule;
    rule.name = "refuse-flood-zone";
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"flood.example"};
    rule.action = policy::ActionKind::kRefuse;
    chain.rules.push_back(std::move(rule));
  }
  {
    policy::RuleConfig rule;
    rule.name = "drop-torture-zone";
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"torture.example"};
    rule.action = policy::ActionKind::kDrop;
    chain.rules.push_back(std::move(rule));
  }
  {
    // Legit zone to the dedicated pool (same resolver, own connections).
    policy::RuleConfig rule;
    rule.name = "route-load-anycast";
    rule.matcher = policy::MatcherKind::kQnameSuffix;
    rule.suffixes = {"load.example"};
    rule.action = policy::ActionKind::kRoutePool;
    rule.pool = "anycast";
    chain.rules.push_back(std::move(rule));
  }
  return chain;
}

}  // namespace doxlab::engine
