#include "engine/sharded.h"

#include <ctime>

#include <algorithm>
#include <chrono>
#include <cmath>

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

/// The global arrival schedule: the same Poisson process / uniform client
/// choice / Zipf name draw LoadGenerator performs, generated in one pass so
/// the offered load is a function of the seed alone — never of the shard
/// count that will replay it.
std::vector<Arrival> generate_schedule(const ShardedConfig& config) {
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
  return schedule;
}

/// The schedule split by owning shard, in schedule order. The global
/// schedule is freed once sliced; with one shard it becomes the only slice.
std::vector<std::vector<Arrival>> slice_schedule(const ShardedConfig& config,
                                                 std::uint32_t n) {
  std::vector<Arrival> schedule = generate_schedule(config);
  std::vector<std::vector<Arrival>> slices(n);
  if (n == 1) {
    slices[0] = std::move(schedule);
    return slices;
  }
  for (auto& slice : slices) slice.reserve(schedule.size() / n + 16);
  for (const Arrival& arrival : schedule) {
    slices[shard_of(config, client_source(config, arrival.client))]
        .push_back(arrival);
  }
  return slices;
}

}  // namespace

ShardedResult run_sharded(const ShardedConfig& config) {
  const std::uint32_t n = std::max<std::uint32_t>(1, config.shards);
  const auto wall_start = Clock::now();

  std::vector<std::vector<Arrival>> slices = slice_schedule(config, n);
  std::uint64_t total_arrivals = 0;
  for (const auto& slice : slices) total_arrivals += slice.size();

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
        config, i, std::move(slices[i]), l2_ptr));
  }

  ShardedResult result;
  util::ThreadPool pool(config.threads);
  std::vector<double> busy_ms(n, 0.0);
  std::vector<double> epoch_busy_ms(n, 0.0);

  // Arrival window plus the same settle slack run_scenario allows: client
  // timeout and a full pool fallback walk for the stragglers.
  const SimTime end =
      config.duration + config.client_timeout + 15 * kSecond;
  const SimTime epoch = std::max<SimTime>(1, config.epoch);
  SimTime deadline = 0;
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

  // Each shard's report moves into its outcome; the merged samples are the
  // one copy, reserved up front.
  std::size_t samples = 0;
  for (const auto& shard : shards) {
    samples += shard->report().latency_ms.size();
  }
  result.load.latency_ms.reserve(samples);
  result.shards.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    ShardOutcome outcome;
    outcome.index = i;
    outcome.engine = shards[i]->engine_stats();
    outcome.load = shards[i]->take_report();
    outcome.arrivals = shards[i]->arrivals_scheduled();
    outcome.events = shards[i]->events_executed();
    outcome.stream_digest = shards[i]->stream_digest();
    outcome.outcome_digest = shards[i]->outcome_digest();
    outcome.busy_ms = busy_ms[i];

    result.engine.add(outcome.engine);
    result.load.sent += outcome.load.sent;
    result.load.answered += outcome.load.answered;
    result.load.servfails += outcome.load.servfails;
    result.load.timeouts += outcome.load.timeouts;
    result.load.shed += outcome.load.shed;
    result.load.latency_ms.insert(result.load.latency_ms.end(),
                                  outcome.load.latency_ms.begin(),
                                  outcome.load.latency_ms.end());
    result.merged_digest =
        (result.merged_digest * 0x100000001B3ull) ^ outcome.stream_digest;
    result.outcome_digest += outcome.outcome_digest;
    result.shards.push_back(std::move(outcome));
  }
  result.l2 = l2.stats();
  // The shared tier's occupancy is stamped once onto the merged stats (the
  // per-shard rows carry only each shard's own hit/lookup counters), so the
  // merge never multi-counts one table.
  result.engine.l2_evictions = result.l2.expired_evicted;
  result.engine.l2_entries = result.l2.size;
  result.engine.l2_bytes = result.l2.bytes;
  result.total_arrivals = total_arrivals;
  result.wall_ms = ms_since(wall_start);
  return result;
}

}  // namespace doxlab::engine
