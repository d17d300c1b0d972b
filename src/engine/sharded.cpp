#include "engine/sharded.h"

#include <ctime>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>

#include "util/rng.h"
#include "util/thread_pool.h"

namespace doxlab::engine {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

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

/// Adds `from` onto `into`, latencies appended in order.
void merge_load(LoadReport& into, const LoadReport& from) {
  into.sent += from.sent;
  into.answered += from.answered;
  into.servfails += from.servfails;
  into.timeouts += from.timeouts;
  into.shed += from.shed;
  into.latency_ms.insert(into.latency_ms.end(), from.latency_ms.begin(),
                         from.latency_ms.end());
}

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

/// The global arrival schedule, generated in one pass so the offered load
/// is a function of the seed alone — never of the shard count that will
/// replay it. Legit arrivals come first from Rng(seed): a Poisson process,
/// a uniform client choice and a Zipf name draw; their count goes to
/// `legit`. Each attack then draws its Poisson arrivals and spoofed sources
/// on its own lane and is merged in by time (legit entries first on ties),
/// so silencing an attack leaves the legit entries exactly as they were.
std::vector<Arrival> generate_schedule(const ShardedConfig& config,
                                       std::uint64_t& legit) {
  Rng rng(config.seed);

  std::vector<double> name_cdf;
  name_cdf.reserve(config.names);
  double total = 0.0;
  for (std::size_t rank = 1; rank <= config.names; ++rank) {
    total += 1.0 / std::pow(static_cast<double>(rank), config.zipf_exponent);
    name_cdf.push_back(total);
  }

  std::vector<Arrival> schedule;
  schedule.reserve(static_cast<std::size_t>(
      config.qps * (static_cast<double>(config.duration) / kSecond) * 1.1));
  const double mean_gap_us =
      static_cast<double>(kSecond) / std::max(config.qps, 1e-9);
  SimTime at = 0;
  while (true) {
    at += std::max<SimTime>(
        1, static_cast<SimTime>(rng.exponential(mean_gap_us)));
    if (at >= config.duration) break;
    Arrival arrival;
    arrival.at = at;
    arrival.client = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(config.clients) - 1));
    const double u = rng.uniform_real(0.0, name_cdf.back());
    const auto it = std::upper_bound(name_cdf.begin(), name_cdf.end(), u);
    arrival.name = static_cast<std::uint32_t>(
        std::min<std::size_t>(it - name_cdf.begin(), config.names - 1));
    schedule.push_back(arrival);
  }
  legit = schedule.size();

  for (std::size_t k = 0; k < config.attacks.size(); ++k) {
    const AttackConfig& attack = config.attacks[k];
    if (attack.qps <= 0.0) continue;
    Rng lane(splitmix64(config.seed, (std::uint64_t{1} << 32) + k));
    const double gap_us = static_cast<double>(kSecond) / attack.qps;
    const std::size_t legit_end = schedule.size();
    SimTime attack_at = attack.start;
    while (true) {
      attack_at += std::max<SimTime>(
          1, static_cast<SimTime>(lane.exponential(gap_us)));
      if (attack_at >= config.duration) break;
      Arrival entry;
      entry.at = attack_at;
      entry.client = attack.source_base.value() +
                     static_cast<std::uint32_t>(lane.uniform_int(
                         0, static_cast<std::int64_t>(attack.source_count) -
                                1));
      entry.name = kAttackTag | static_cast<std::uint32_t>(k);
      schedule.push_back(entry);
    }
    std::inplace_merge(
        schedule.begin(),
        schedule.begin() + static_cast<std::ptrdiff_t>(legit_end),
        schedule.end(),
        [](const Arrival& a, const Arrival& b) { return a.at < b.at; });
  }
  return schedule;
}

/// The schedule split by owning shard, in schedule order. The global
/// schedule is freed once sliced; with one shard it becomes the only slice.
std::vector<std::vector<Arrival>> slice_schedule(const ShardedConfig& config,
                                                 std::uint32_t n,
                                                 std::uint64_t& legit) {
  std::vector<Arrival> schedule = generate_schedule(config, legit);
  std::vector<std::vector<Arrival>> slices(n);
  if (n == 1) {
    slices[0] = std::move(schedule);
    return slices;
  }
  for (auto& slice : slices) slice.reserve(schedule.size() / n + 16);
  for (const Arrival& arrival : schedule) {
    const net::IpAddress source = (arrival.name & kAttackTag)
                                      ? net::IpAddress(arrival.client)
                                      : client_source(config, arrival.client);
    slices[shard_of(config, source)].push_back(arrival);
  }
  return slices;
}

/// Builds one set of shard worlds for `segment`, runs the epoch loop to the
/// end of its settle window, and folds every shard into `result` (the
/// engine counters at `segment.probes[p]` into `*probe_out[p]`).
void run_world(const ShardedConfig& config, const Segment& segment,
               std::vector<std::vector<Arrival>> slices,
               const std::vector<EngineStats*>& probe_out,
               ShardedResult& result) {
  const auto n = static_cast<std::uint32_t>(slices.size());
  dns::SharedPacketCache l2(config.l2_capacity, n);
  dns::SharedPacketCache* l2_ptr = config.l2_capacity > 0 ? &l2 : nullptr;
  if (config.engine.l2_serve_stale && config.engine.serve_stale) {
    // Stale serving needs expired entries to survive the barrier sweeps for
    // the whole stale window.
    l2.set_stale_retention(config.engine.max_stale);
  }

  std::vector<std::unique_ptr<EngineShard>> shards;
  shards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    shards.push_back(std::make_unique<EngineShard>(
        config, i, std::move(slices[i]), l2_ptr, segment));
  }

  util::ThreadPool pool(config.threads);
  std::vector<double> busy_ms(n, 0.0);
  std::vector<double> epoch_busy_ms(n, 0.0);

  // Arrival window plus settle slack: client timeout and a full pool
  // fallback walk for the stragglers.
  const SimTime end = segment.stop + config.client_timeout + 15 * kSecond;
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

  // Each shard's report moves into its outcome on the first world; a
  // restart's rebuilt worlds add onto it.
  const bool first = segment.start == 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    EngineShard& shard = *shards[i];
    ShardOutcome& outcome = result.shards[i];
    outcome.arrivals += shard.arrivals_scheduled();
    outcome.events += shard.events_executed();
    outcome.outcome_digest += shard.outcome_digest();
    outcome.busy_ms += busy_ms[i];
    if (first) {
      outcome.engine = shard.engine_stats();
      outcome.load = shard.take_report();
      outcome.stream_digest = shard.stream_digest();
    } else {
      outcome.engine.add(shard.engine_stats());
      merge_load(outcome.load, shard.report());
      outcome.stream_digest = (outcome.stream_digest * 0x100000001B3ull) ^
                              shard.stream_digest();
    }

    for (std::size_t k = 0; k < result.attacks.size(); ++k) {
      const AttackReport& from = shard.attack_reports()[k];
      AttackReport& into = result.attacks[k];
      into.sent += from.sent;
      into.answered += from.answered;
      into.refused += from.refused;
      into.truncated += from.truncated;
    }
    for (std::size_t p = 0; p < probe_out.size(); ++p) {
      probe_out[p]->add(shard.probes()[p]);
    }
    const std::vector<SeriesBucket>& series = shard.series();
    if (result.series.size() < series.size()) {
      result.series.resize(series.size());
    }
    for (std::size_t b = 0; b < series.size(); ++b) {
      SeriesBucket& into = result.series[b];
      into.start = series[b].start;
      into.answered += series[b].answered;
      into.servfails += series[b].servfails;
      into.timeouts += series[b].timeouts;
      into.latency_ms.insert(into.latency_ms.end(),
                             series[b].latency_ms.begin(),
                             series[b].latency_ms.end());
    }
  }
  // Every shard applies every event; count each one once.
  result.events_executed += shards[0]->churn_applied();
  result.l2 = l2.stats();
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
  const auto wall_start = Clock::now();

  ShardedResult result;
  std::vector<std::vector<Arrival>> slices =
      slice_schedule(config, n, result.total_arrivals);

  result.shards.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) result.shards[i].index = i;
  for (const AttackConfig& attack : config.attacks) {
    result.attacks.push_back(AttackReport{attack.kind});
  }

  if (config.restart_at == 0) {
    run_world(config, Segment{0, config.duration, {}}, std::move(slices), {},
              result);
  } else {
    // The two-world restart: the first worlds take the arrivals before
    // `restart_at` and drain; the rebuilt ones take the rest.
    const SimTime restart = config.restart_at;
    std::vector<std::vector<Arrival>> later(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      auto cut = std::lower_bound(
          slices[i].begin(), slices[i].end(), restart,
          [](const Arrival& a, SimTime t) { return a.at < t; });
      later[i].assign(cut, slices[i].end());
      slices[i].erase(cut, slices[i].end());
    }
    const SimTime window = kRestartWindow;
    run_world(config,
              Segment{0, restart,
                      {std::max<SimTime>(0, restart - window), restart}},
              std::move(slices),
              {&result.pre_window_start, &result.pre_restart}, result);
    run_world(config, Segment{restart, config.duration, {restart + window}},
              std::move(later), {&result.post_first_epoch}, result);
  }

  // The merged samples are the one copy, reserved up front.
  std::size_t samples = 0;
  for (const ShardOutcome& outcome : result.shards) {
    samples += outcome.load.latency_ms.size();
  }
  result.load.latency_ms.reserve(samples);
  for (const ShardOutcome& outcome : result.shards) {
    result.engine.add(outcome.engine);
    merge_load(result.load, outcome.load);
    result.merged_digest =
        (result.merged_digest * 0x100000001B3ull) ^ outcome.stream_digest;
    result.outcome_digest += outcome.outcome_digest;
  }
  // The shared tier's occupancy is stamped once onto the merged stats (the
  // per-shard rows carry only each shard's own hit/lookup counters), so the
  // merge never multi-counts one table.
  result.engine.l2_evictions = result.l2.expired_evicted;
  result.engine.l2_entries = result.l2.size;
  result.engine.l2_bytes = result.l2.bytes;
  result.wall_ms = ms_since(wall_start);
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
