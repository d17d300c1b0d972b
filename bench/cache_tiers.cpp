// Tiered-cache hierarchy bench (src/dns/cache_tier.h + snapshot_tier.h):
// gates the two properties the persistent snapshot tier was built for.
//
//   1. Warm restart. A sharded run restarts the forwarder mid-run twice
//      — once with the snapshot tier on (every rebuilt shard replays its
//      shard-<i>.snap into its L1) and once fully cold — and compares the
//      first post-restart epoch's cache hit rate against the steady-state
//      window just before the restart. The gate is the PR's acceptance
//      criterion: warm-start first-epoch hit rate within 10% of the
//      pre-restart steady state, and strictly better than cold start (which
//      must also pay at least 2x the upstream resolves).
//
//   2. Snapshot I/O. Direct append-log write and replay throughput over a
//      synthetic RRset population, with loose floors so a pathological
//      regression (per-record fsync, quadratic replay) fails loudly while
//      slow CI containers pass.
//
// Writes BENCH_cache_tiers.json with --json. Usage:
//   cache_tiers [--seed=N] [--json] [--smoke]
// --smoke runs a reduced workload; the gates apply in both modes.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_util.h"
#include "dns/snapshot_tier.h"
#include "engine/sharded.h"
#include "stats/stats.h"

namespace {

using namespace doxlab;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Answered-from-any-tier count: the numerator of the hit rate.
std::uint64_t tier_hits(const engine::EngineStats& stats) {
  return stats.cache_hits + stats.stale_hits + stats.l2_hits +
         stats.snapshot_hits;
}

struct Window {
  double hit_rate = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t resolves = 0;
};

Window window_between(const engine::EngineStats& from,
                      const engine::EngineStats& to) {
  Window w;
  w.queries = to.queries - from.queries;
  w.resolves = to.upstream_resolves - from.upstream_resolves;
  if (w.queries > 0) {
    w.hit_rate = static_cast<double>(tier_hits(to) - tier_hits(from)) /
                 static_cast<double>(w.queries);
  }
  return w;
}

struct RestartOutcome {
  Window steady;       ///< the second before the restart
  Window first_epoch;  ///< the second after the restart
  std::uint64_t warm_loaded = 0;
};

/// One restart run: no churn events, just the mid-run restart, so the only
/// variable between the warm and cold runs is the snapshot tier.
RestartOutcome run_restart(std::uint64_t seed, bool smoke,
                           const std::string& snapshot_dir) {
  engine::ShardedConfig config;
  config.seed = seed;
  config.clients = smoke ? 150 : 300;
  config.qps = smoke ? 400 : 1000;
  config.duration = (smoke ? 10 : 16) * kSecond;
  config.names = smoke ? 200 : 400;
  config.restart_at = (smoke ? 6 : 10) * kSecond;
  // No TTL clamp: the testbed resolvers answer with 300 s TTLs, so nothing
  // expires inside the run and the restart is the only source of misses.
  config.engine.max_ttl = 0;
  config.engine.snapshot_dir = snapshot_dir;

  const engine::ShardedResult result = engine::run_sharded(config);
  RestartOutcome outcome;
  outcome.steady =
      window_between(result.pre_window_start, result.pre_restart);
  outcome.first_epoch =
      window_between(engine::EngineStats{}, result.post_first_epoch);
  outcome.warm_loaded = result.engine.snapshot_warm_loaded;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag_set(argc, argv, "--smoke");
  const bool json = bench::flag_set(argc, argv, "--json");
  const std::uint64_t seed = static_cast<std::uint64_t>(
      bench::flag_int(argc, argv, "--seed", 42));
  bench::JsonReporter reporter;
  int failures = 0;

  const std::filesystem::path scratch =
      std::filesystem::temp_directory_path() /
      ("doxlab_cache_tiers_" + std::to_string(seed));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  bench::banner("warm vs cold restart (engine run with mid-run forwarder "
                "restart)");
  const RestartOutcome warm =
      run_restart(seed, smoke, (scratch / "warm").string());
  const RestartOutcome cold = run_restart(seed, smoke, "");
  std::printf("  steady-state hit rate   %.4f (%llu queries)\n",
              warm.steady.hit_rate,
              static_cast<unsigned long long>(warm.steady.queries));
  std::printf("  warm first epoch        %.4f hit rate, %llu resolves, "
              "%llu warm-loaded\n",
              warm.first_epoch.hit_rate,
              static_cast<unsigned long long>(warm.first_epoch.resolves),
              static_cast<unsigned long long>(warm.warm_loaded));
  std::printf("  cold first epoch        %.4f hit rate, %llu resolves\n",
              cold.first_epoch.hit_rate,
              static_cast<unsigned long long>(cold.first_epoch.resolves));
  reporter.metric("warm_restart", "steady_hit_rate", warm.steady.hit_rate);
  reporter.metric("warm_restart", "warm_first_epoch_hit_rate",
                  warm.first_epoch.hit_rate);
  reporter.metric("warm_restart", "cold_first_epoch_hit_rate",
                  cold.first_epoch.hit_rate);
  reporter.metric("warm_restart", "warm_loaded",
                  static_cast<double>(warm.warm_loaded));
  reporter.metric("warm_restart", "warm_first_epoch_resolves",
                  static_cast<double>(warm.first_epoch.resolves));
  reporter.metric("warm_restart", "cold_first_epoch_resolves",
                  static_cast<double>(cold.first_epoch.resolves));

  if (warm.steady.queries == 0 || warm.first_epoch.queries == 0) {
    std::printf("  FAIL: empty measurement window\n");
    ++failures;
  }
  if (warm.first_epoch.hit_rate < 0.9 * warm.steady.hit_rate) {
    std::printf("  FAIL: warm first-epoch hit rate %.4f below 90%% of "
                "steady state %.4f\n",
                warm.first_epoch.hit_rate, warm.steady.hit_rate);
    ++failures;
  }
  if (warm.first_epoch.hit_rate <= cold.first_epoch.hit_rate) {
    std::printf("  FAIL: warm start (%.4f) not better than cold start "
                "(%.4f)\n",
                warm.first_epoch.hit_rate, cold.first_epoch.hit_rate);
    ++failures;
  }
  if (warm.first_epoch.resolves * 2 > cold.first_epoch.resolves) {
    std::printf("  FAIL: warm start resolves %llu not at most half of "
                "cold's %llu\n",
                static_cast<unsigned long long>(warm.first_epoch.resolves),
                static_cast<unsigned long long>(cold.first_epoch.resolves));
    ++failures;
  }
  if (warm.warm_loaded == 0) {
    std::printf("  FAIL: warm run loaded nothing from the snapshot\n");
    ++failures;
  }

  bench::banner("snapshot append-log write / replay throughput");
  const int records = smoke ? 4000 : 20000;
  const std::filesystem::path io_path = scratch / "io.snap";
  {
    dns::SnapshotConfig snap;
    snap.path = io_path.string();
    dns::SnapshotTier tier(snap);
    std::vector<dns::ResourceRecord> rrset(1);
    const auto start = Clock::now();
    for (int i = 0; i < records; ++i) {
      const dns::DnsName name = dns::DnsName::parse(
          "name" + std::to_string(i) + ".bench.example");
      rrset[0].name = name;
      rrset[0].type = dns::RRType::kA;
      rrset[0].ttl = 300;
      rrset[0].rdata = {10, 0,
                        static_cast<std::uint8_t>(i >> 8),
                        static_cast<std::uint8_t>(i)};
      tier.insert(name, dns::RRType::kA,
                  dns::ResponseImage::answer_to(
                      dns::Question{name, dns::RRType::kA, dns::RRClass::kIN},
                      rrset),
                  kSecond);
    }
    tier.flush();
    const double write_s = seconds_since(start);
    const double write_per_s = static_cast<double>(records) / write_s;
    std::printf("  write   %d records in %.3f s  (%.0f records/s, "
                "%llu log bytes)\n",
                records, write_s, write_per_s,
                static_cast<unsigned long long>(tier.log_bytes()));
    reporter.metric("snapshot_io", "write_records_per_s", write_per_s);
    reporter.metric("snapshot_io", "log_bytes",
                    static_cast<double>(tier.log_bytes()));
    if (write_per_s < 1000.0) {
      std::printf("  FAIL: write throughput %.0f records/s below 1000\n",
                  write_per_s);
      ++failures;
    }
  }
  {
    dns::SnapshotConfig snap;
    snap.path = io_path.string();
    const auto start = Clock::now();
    dns::SnapshotTier tier(snap);
    const double replay_s = seconds_since(start);
    const double replay_per_s =
        replay_s > 0.0 ? static_cast<double>(tier.size()) / replay_s : 0.0;
    std::printf("  replay  %zu records in %.3f s  (%.0f records/s)\n",
                tier.size(), replay_s, replay_per_s);
    reporter.metric("snapshot_io", "replay_records_per_s", replay_per_s);
    reporter.metric("snapshot_io", "replay_entries",
                    static_cast<double>(tier.size()));
    if (tier.size() != static_cast<std::size_t>(records)) {
      std::printf("  FAIL: replay recovered %zu of %d records\n",
                  tier.size(), records);
      ++failures;
    }
    if (replay_per_s < 10000.0) {
      std::printf("  FAIL: replay throughput %.0f records/s below 10000\n",
                  replay_per_s);
      ++failures;
    }
  }

  std::filesystem::remove_all(scratch);

  if (json) {
    const char* path = "BENCH_cache_tiers.json";
    if (reporter.write_file(path)) {
      std::printf("\nbaseline -> %s\n", path);
    } else {
      std::printf("\nFAIL: could not write %s\n", path);
      ++failures;
    }
  }
  std::printf("\ncache_tiers: %s\n", failures == 0 ? "PASS" : "FAIL");
  return failures == 0 ? 0 : 1;
}
