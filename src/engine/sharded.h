// The sharded engine coordinator: the one engine harness, one scenario
// spread across all cores.
//
// `run_sharded` draws ONE arrival schedule from the seed (a Poisson process
// of uniformly chosen clients asking Zipf-popular names, plus each
// configured attack mix on its own lane, merged by time — engine/schedule.h)
// straight into per-shard slices: every simulated client has a source
// address, and sources hash onto shards (splitmix64 — see engine/shard.h).
// One EngineShard world per shard takes its slice. The offered load is
// therefore *identical for every shard count*: changing --shards only
// repartitions the same arrivals.
//
// One util::ThreadPool serves the whole run: it draws the schedule's
// chunks, builds and tears down the worlds, and drives the epochs, which
// are barriered:
//
//   epoch k:  every shard runs its simulator to k * epoch   (parallel)
//   barrier:  SharedPacketCache::sweep merges the shards' deferred
//             L2 inserts and reaps expired entries            (serial)
//
// Between barriers the L2 table is read-only and lookups lock it *shared*
// (readers never exclude each other; only the barrier-time sweep locks
// exclusively), so the try-locks always succeed and every per-shard event
// stream is a pure
// function of (seed, shard index, epoch state) — bit-identical run to run
// regardless of how the OS schedules the worker threads. That is the
// determinism contract the engine_shards ctests pin via the simulator's
// event-stream digests.
//
// Churn events are scheduled on every shard's own simulator at their exact
// times, never rounded to epochs. A restart (`restart_at`) runs two sets of
// worlds, because engines cannot be torn down mid-simulation: the first
// takes the arrivals before the restart and drains, then every shard and
// the L2 are rebuilt with the clock at `restart_at` and take the rest.
//
// Scaling is reported two ways, because a CI container may have a single
// core: `wall_ms` is real elapsed time, while `critical_path_ms` charges
// each epoch its *slowest shard* plus the serial sweep — the wall time an
// N-core machine would see. bench/engine_scale gates on the critical-path
// metric so the near-linear-scaling check is hardware-independent. The
// wall is split into contiguous phases (schedule, build, epochs, teardown,
// merge) that sum to it.
#pragma once

#include <vector>

#include "engine/shard.h"

namespace doxlab::engine {

/// Per-shard outcome, merged over both worlds of a restart run (events
/// summed, gauges from the world alive at the end). Everything
/// except `busy_ms` is deterministic for a fixed (seed, shard count) —
/// busy_ms is measured CPU time and is kept out of the pinned CSV columns.
struct ShardOutcome {
  std::uint32_t index = 0;
  EngineStats engine;
  LoadReport load;
  std::uint64_t arrivals = 0;      ///< legit schedule entries assigned here
  std::uint64_t events = 0;        ///< simulator events executed
  std::uint64_t stream_digest = 0; ///< sim event-stream fingerprint
  /// Commutative per-query outcome fingerprint (see
  /// EngineShard::outcome_digest): batching-invariant where the event
  /// stream digest is not.
  std::uint64_t outcome_digest = 0;
  double busy_ms = 0.0;            ///< cpu time across all epochs
};

struct ShardedResult {
  std::vector<ShardOutcome> shards;
  /// Per-shard EngineStats merged via EngineStats::add, in shard order.
  EngineStats engine;
  /// Per-shard load reports summed; latencies concatenated in shard order.
  LoadReport load;
  /// The shared L2's counters: events summed over both worlds of a
  /// restart, size and bytes from the world alive at the end.
  dns::SharedPacketCache::Stats l2;
  std::uint64_t epochs = 0;
  /// Legit schedule entries (attack entries are counted in `attacks`).
  std::uint64_t total_arrivals = 0;
  /// Per-shard digests folded in shard order (FNV-style) — the one number
  /// the determinism test compares across runs.
  std::uint64_t merged_digest = 0;
  /// Per-shard outcome digests SUMMED (commutative), so the merged value is
  /// invariant to shard count and batching — the batch-determinism test's
  /// cross-setting comparator.
  std::uint64_t outcome_digest = 0;
  double wall_ms = 0.0;           ///< real elapsed time (this machine)
  double critical_path_ms = 0.0;  ///< sum over epochs of slowest shard
  double sweep_ms = 0.0;          ///< serial L2 sweep time (inside critical)
  /// The wall's phases, summed over both worlds of a restart. They tile
  /// the wall, so they sum to `wall_ms`; barrier idle is `epochs_ms` minus
  /// `critical_path_ms`.
  double schedule_ms = 0.0;  ///< pool start, arrival draws and slicing
  double build_ms = 0.0;     ///< L2 and shard worlds built
  double epochs_ms = 0.0;    ///< the epoch loop, sweeps included
  double teardown_ms = 0.0;  ///< worlds, L2 and pool torn down
  double merge_ms = 0.0;     ///< shard outcomes folded into this result

  /// Per-attack counters summed over shards, in ShardedConfig::attacks
  /// order.
  std::vector<AttackReport> attacks;
  /// Churn events applied, each counted once (not once per shard).
  std::uint64_t events_executed = 0;
  /// Send-time series, merged in shard order (series_bucket > 0 only).
  /// Empty buckets inside the horizon appear explicitly.
  std::vector<SeriesBucket> series;
  /// Restart runs: engine counters merged across shards one second before
  /// `restart_at` and at it (first worlds), and one second after it
  /// (rebuilt worlds, whose counters start from zero, so that snapshot IS
  /// the first post-restart window).
  EngineStats pre_window_start;
  EngineStats pre_restart;
  EngineStats post_first_epoch;

  /// Queries the engines processed per critical-path second — the
  /// hardware-independent scaling metric bench/engine_scale gates on.
  double effective_qps() const {
    return critical_path_ms <= 0.0
               ? 0.0
               : static_cast<double>(engine.queries) /
                     (critical_path_ms / 1000.0);
  }
  double wall_qps() const {
    return wall_ms <= 0.0 ? 0.0
                          : static_cast<double>(engine.queries) /
                                (wall_ms / 1000.0);
  }
  /// Fraction of attack queries shed (refused/dropped/truncated). Sent
  /// minus answered covers silent drops AND spoofed-source backscatter
  /// that never returns to the bots.
  double attack_shed_rate() const;
};

/// Checks the config, builds the schedule and the shard worlds, runs the
/// epoch loop to completion (duration + client timeout + settle slack), and
/// returns the merged result. Throws std::invalid_argument naming the
/// offending field when the config cannot run.
ShardedResult run_sharded(const ShardedConfig& config);

/// The abuse-scenario family's attack mixes from `start` to the end of the
/// arrival window: a random-subdomain flood (flood.example) and water
/// torture (torture.example) from bot subnets in 198.18.0.0/16, and a
/// spoofed-source TXT amplification run whose sources sit in the victim
/// prefix 203.0.113.0/24.
std::vector<AttackConfig> abuse_attacks(double flood_qps, double torture_qps,
                                        double amp_qps, SimTime start);

/// The canonical abuse chain, ordered the way an operator would stack it:
/// refuse TXT, per-/24 rate-limit drop, refuse flood.example, drop
/// torture.example, route load.example to the "anycast" pool.
policy::ChainConfig abuse_chain(std::uint32_t rate_limit_qps);

}  // namespace doxlab::engine
