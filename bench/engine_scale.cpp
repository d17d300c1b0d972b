// Scaling bench for the sharded forwarder engine (src/engine/sharded.h):
// one scenario, the same offered load, partitioned across N = 1/2/4/8
// shard worlds.
//
// Reports, per shard count:
//   * critical-path qps — queries processed divided by the sum over epochs
//     of the slowest shard's busy time plus the serial L2 sweep. This is
//     the wall time an N-core machine would see, measured exactly even on
//     a single-core CI container (each shard's epoch slice is timed
//     individually), so the scaling claim is hardware-independent.
//   * wall qps on this host, for reference, and the wall's phases
//     (schedule, build, epochs, barrier idle, teardown, merge).
//   * speedup vs N=1 on the critical-path metric.
//   * peak RSS: each row runs in a forked child, so the high-water is the
//     row's own.
// and proves three invariants:
//   * the offered load is identical for every N (same arrivals, same
//     queries processed — resharding only repartitions the schedule);
//   * per-shard event streams are bit-identical across repeated runs
//     (merged simulator digests equal);
//   * the cached L1 fast path still performs zero heap allocations per
//     query with the shared L2 attached.
//
// A second sweep re-runs the scenario at delivery-batch windows of
// 0/50/200 us and pins the answered totals and
// summed per-query outcome digests across windows: batching may reshape the
// event schedule but must not change any query's outcome.
//
// Writes BENCH_engine_scale.json with --json. Usage:
//   engine_scale [--seed=N] [--clients=N] [--qps=N] [--seconds=N]
//                [--json] [--smoke]
// --smoke runs a reduced workload and exits non-zero if the 4-shard
// within-run speedup (serialized shard work / critical path — both sides
// measured in the same run, so host frequency drift cancels) falls below
// 3.0x, the load varies across N, reruns diverge, the cached path
// allocates, one hot run_sharded call allocates more than 0.1 times per
// arrival, or the peak RSS of a hot call grows by more than 0.6 MB per
// simulated second of arrivals (the CI gates). It also prints, ungated,
// the heap allocations per L1 miss over one call shaped like doxbench's
// engine-miss-n1.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <vector>

#include "alloc_count.h"
#include "bench_util.h"
#include "dox/transport.h"
#include "engine/sharded.h"
#include "net/network.h"
#include "resolver/resolver.h"
#include "stats/stats.h"
#include "tcp/tcp.h"

namespace {

using namespace doxlab;

/// Steady-state heap allocations per cached query through a ForwarderEngine
/// with the shared L2 attached — the sharded configuration must not cost
/// the L1 fast path its zero-allocation property (the L2 is only probed on
/// L1 misses). Mirrors micro_components' byte-path probe.
double measure_cached_allocs_with_l2(int queries) {
  sim::Simulator sim;
  net::Network network(sim, Rng(33));
  net::Host& host = network.add_host(
      "client", net::IpAddress::from_octets(10, 1, 0, 1), {50.11, 8.68},
      net::Continent::kEurope);
  net::UdpStack udp(host);
  tcp::TcpStack tcp(host);
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;
  network.set_loss_rate(0.0);

  resolver::ResolverProfile profile;
  profile.name = "upstream";
  profile.address = net::IpAddress::from_octets(10, 2, 0, 1);
  profile.location = {48.86, 2.35};
  profile.secret = 0xAA;
  profile.drop_probability = 0.0;
  resolver::DoxResolver upstream(network, profile, Rng(1));
  network.set_path_override(host.address(), profile.address, from_ms(10));

  dox::TransportDeps deps;
  deps.sim = &sim;
  deps.udp = &udp;
  deps.tcp = &tcp;
  deps.tickets = &tickets;
  deps.doq_cache = &doq_cache;
  engine::UpstreamConfig upstream_config;
  upstream_config.name = profile.name;
  upstream_config.address = profile.address;
  upstream_config.protocols = {dox::DnsProtocol::kDoUdp};

  dns::SharedPacketCache l2(1024, 1);
  engine::EngineConfig config;
  config.l2 = &l2;
  config.shard_index = 0;
  engine::ForwarderEngine engine(sim, udp, deps, {upstream_config}, config);

  auto socket = udp.bind_ephemeral();
  std::uint64_t answered = 0;
  socket->on_datagram(
      [&](const net::Endpoint&, util::Buffer) { ++answered; });
  const dns::Message query = dns::make_query(
      0x77, dns::DnsName::parse("cached.example.com"), dns::RRType::kA);
  const util::Buffer query_wire = query.encode_buffer();
  const net::Endpoint engine_ep{host.address(), 53};

  for (int i = 0; i < 1024; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + (i == 0 ? kSecond : kMillisecond));
  }

  const std::uint64_t before = answered;
  const std::uint64_t allocs0 = bench::heap_allocations();
  for (int i = 0; i < queries; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + kMillisecond);
  }
  const std::uint64_t allocs = bench::heap_allocations() - allocs0;
  if (answered - before != static_cast<std::uint64_t>(queries)) {
    std::fprintf(stderr, "l2 cached probe: %llu/%d queries answered\n",
                 static_cast<unsigned long long>(answered - before),
                 queries);
    return -1.0;
  }
  return static_cast<double>(allocs) / queries;
}

/// Heap allocations per arrival over one whole hot run_sharded call —
/// schedule, shard build, epochs and merge — at one shard on one thread,
/// with the default TTLs so ~98% of queries hit the L1. The swarm client,
/// arrival feed and cached engine path allocate nothing per query in steady
/// state; what remains is a fixed ~70k for the world build and the 200
/// upstream resolves (DoQ handshakes included), hence a 1.5M-arrival call.
/// The code before the arrival cursor allocated ~14 times per arrival.
double measure_call_allocs_per_arrival(const engine::ShardedConfig& base) {
  engine::ShardedConfig config = base;
  config.shards = 1;
  config.threads = 1;
  config.qps = 50000;
  config.duration = 30 * kSecond;
  config.engine = engine::EngineConfig{};
  const std::uint64_t allocs0 = bench::heap_allocations();
  const auto result = engine::run_sharded(config);
  const std::uint64_t allocs = bench::heap_allocations() - allocs0;
  if (result.total_arrivals == 0) return -1.0;
  return static_cast<double>(allocs) /
         static_cast<double>(result.total_arrivals);
}

/// Heap allocations over one whole run_sharded call shaped like doxbench's
/// engine-miss-n1: one shard on one thread, 5k qps for 3 s over 100k Zipf
/// names into the default 4096-entry L1, so about 40% of the arrivals
/// miss, insert into a full L1 and resolve upstream. The count covers the
/// whole call, world build included, and repeats run to run within a few
/// allocations.
struct MissAllocs {
  std::uint64_t allocs = 0;
  std::uint64_t misses = 0;
  std::uint64_t arrivals = 0;
  double per_miss() const {
    return misses == 0 ? -1.0 : static_cast<double>(allocs) / misses;
  }
  double per_arrival() const {
    return arrivals == 0 ? -1.0 : static_cast<double>(allocs) / arrivals;
  }
};

MissAllocs measure_miss_call_allocs(std::uint64_t seed) {
  engine::ShardedConfig config;
  config.seed = seed;
  config.shards = 1;
  config.threads = 1;
  config.clients = 1'000'000;
  config.qps = 5000;
  config.duration = 3 * kSecond;
  config.names = 100'000;
  const std::uint64_t allocs0 = bench::heap_allocations();
  const auto result = engine::run_sharded(config);
  MissAllocs m;
  m.allocs = bench::heap_allocations() - allocs0;
  m.misses = result.engine.misses;
  m.arrivals = result.total_arrivals;
  return m;
}

/// This process's peak resident set so far, in MB.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Runs `work` in a forked child and returns its result, so that the
/// child's peak RSS, read inside `work`, covers that work and nothing the
/// bench ran before. The bench holds no threads between calls, so the
/// child starts with one. Exits the bench if the child fails.
template <typename Work>
auto in_child(Work work) -> decltype(work()) {
  using Result = decltype(work());
  static_assert(std::is_trivially_copyable_v<Result>);
  int fds[2];
  if (pipe(fds) != 0) {
    std::perror("pipe");
    std::exit(1);
  }
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) {
    std::perror("fork");
    std::exit(1);
  }
  if (pid == 0) {
    close(fds[0]);
    const Result result = work();
    const bool sent =
        write(fds[1], &result, sizeof result) ==
        static_cast<ssize_t>(sizeof result);
    std::fflush(stdout);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  Result result{};
  const ssize_t got = read(fds[0], &result, sizeof result);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (got != static_cast<ssize_t>(sizeof result) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    std::fprintf(stderr, "FAIL: a forked measurement did not finish\n");
    std::exit(1);
  }
  return result;
}

/// Peak RSS of a short and then a long hot call at one shard, 50k qps and
/// default TTLs, in one process: what memory grows by per simulated second
/// of arrivals once the world is built. One thread (the caller, no pool
/// workers) keeps both calls' allocations in the same allocator arena, so
/// what one call leaves cached there is not counted as growth.
struct RssGrowth {
  double short_mb = 0.0;
  double long_mb = 0.0;
  static constexpr int kShortSeconds = 3;
  static constexpr int kLongSeconds = 10;
  double per_second() const {
    return (long_mb - short_mb) / (kLongSeconds - kShortSeconds);
  }
};

RssGrowth measure_rss_growth(std::uint64_t seed) {
  return in_child([seed] {
    engine::ShardedConfig config;
    config.seed = seed;
    config.shards = 1;
    config.threads = 1;
    config.clients = 1'000'000;
    config.qps = 50000;
    config.names = 200;
    RssGrowth growth;
    config.duration = RssGrowth::kShortSeconds * kSecond;
    engine::run_sharded(config);
    growth.short_mb = peak_rss_mb();
    config.duration = RssGrowth::kLongSeconds * kSecond;
    engine::run_sharded(config);
    growth.long_mb = peak_rss_mb();
    return growth;
  });
}

struct ScaleRow {
  std::uint32_t shards = 0;
  double effective_qps = 0.0;
  double wall_qps = 0.0;
  double critical_path_ms = 0.0;
  double busy_sum_ms = 0.0;
  double sweep_ms = 0.0;
  /// The wall and its phases (ShardedResult: they sum to the wall).
  double wall_ms = 0.0;
  double schedule_ms = 0.0;
  double build_ms = 0.0;
  double epochs_ms = 0.0;
  double teardown_ms = 0.0;
  double merge_ms = 0.0;
  std::uint64_t queries = 0;
  std::uint64_t answered = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t l1_hits = 0;
  std::uint64_t lock_misses = 0;
  std::uint64_t digest = 0;
  std::uint64_t outcome_digest = 0;
  double p99_ms = 0.0;
  double peak_rss_mb = 0.0;  ///< the row's process, all its reps
  bool deterministic = true;  ///< every rep matched the first

  /// Within-run speedup: how much shorter the critical path is than
  /// serializing the same run's shard work. Numerator and denominator come
  /// from the same process instant, so CPU frequency drift and cache state
  /// cancel — this is the ratio the CI gate checks, because cross-run qps
  /// comparisons wobble on a shared single-core container.
  double vs_serial() const {
    return critical_path_ms <= 0.0 ? 0.0 : busy_sum_ms / critical_path_ms;
  }
};

ScaleRow run_once(const engine::ShardedConfig& config) {
  const auto result = engine::run_sharded(config);
  ScaleRow row;
  row.shards = config.shards;
  row.effective_qps = result.effective_qps();
  row.wall_qps = result.wall_qps();
  row.critical_path_ms = result.critical_path_ms;
  row.sweep_ms = result.sweep_ms;
  row.wall_ms = result.wall_ms;
  row.schedule_ms = result.schedule_ms;
  row.build_ms = result.build_ms;
  row.epochs_ms = result.epochs_ms;
  row.teardown_ms = result.teardown_ms;
  row.merge_ms = result.merge_ms;
  row.queries = result.engine.queries;
  row.answered = result.load.answered;
  row.l2_hits = result.engine.l2_hits;
  row.l1_hits = result.engine.cache_hits;
  row.lock_misses = result.l2.lock_misses;
  row.digest = result.merged_digest;
  row.outcome_digest = result.outcome_digest;
  row.p99_ms = result.load.latency_summary().p99;
  for (const auto& shard : result.shards) row.busy_sum_ms += shard.busy_ms;
  row.busy_sum_ms += result.sweep_ms;  // serial work serializes either way
  return row;
}

/// Best-of-N to shed scheduler and frequency noise (same idiom as
/// micro_components): the simulated results are bit-identical across reps —
/// which doubles as the run-to-run determinism check — so only the timing
/// differs, and the fastest rep is the least-perturbed measurement. The
/// reps run in one forked child, whose peak RSS the row records.
ScaleRow run_best(const engine::ShardedConfig& config, int reps) {
  return in_child([&config, reps] {
    ScaleRow best = run_once(config);
    for (int rep = 1; rep < reps; ++rep) {
      const ScaleRow row = run_once(config);
      if (row.digest != best.digest || row.queries != best.queries ||
          row.l2_hits != best.l2_hits) {
        best.deterministic = false;
      }
      if (row.critical_path_ms < best.critical_path_ms) {
        const bool deterministic = best.deterministic;
        best = row;
        best.deterministic = deterministic;
      }
    }
    best.peak_rss_mb = peak_rss_mb();
    return best;
  });
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag_set(argc, argv, "--smoke");
  const bool json = bench::flag_set(argc, argv, "--json");

  engine::ShardedConfig base;
  base.seed =
      static_cast<std::uint64_t>(bench::flag_int(argc, argv, "--seed", 42));
  base.clients = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "--clients", smoke ? 100000 : 1000000));
  base.qps = bench::flag_int(argc, argv, "--qps", 20000);
  base.duration =
      bench::flag_int(argc, argv, "--seconds", smoke ? 3 : 10) * kSecond;
  base.names = 200;
  base.engine.max_ttl = 1;  // keep refresh traffic flowing past warmup

  bench::banner("Engine scale — one scenario across N shard worlds");
  std::printf("%zu clients, %.0f qps offered for %llu s (seed %llu)\n",
              base.clients, base.qps,
              static_cast<unsigned long long>(base.duration / kSecond),
              static_cast<unsigned long long>(base.seed));

  // First, while the bench holds nothing else: memory against run length.
  const RssGrowth growth = measure_rss_growth(base.seed);

  const std::vector<std::uint32_t> counts = {1, 2, 4, 8};
  const int reps = 3;
  bool deterministic = true;
  std::vector<ScaleRow> rows;
  for (std::uint32_t n : counts) {
    engine::ShardedConfig config = base;
    config.shards = n;
    rows.push_back(run_best(config, reps));
    deterministic = deterministic && rows.back().deterministic;
  }

  std::printf("\n%7s %14s %12s %10s %9s %10s %8s %10s %8s\n", "shards",
              "critical qps", "wall qps", "vs serial", "vs N=1", "l2 hits",
              "p99 ms", "lock-miss", "rss MB");
  for (const ScaleRow& row : rows) {
    std::printf("%7u %14.0f %12.0f %9.2fx %8.2fx %10llu %8.2f %10llu %8.1f\n",
                row.shards, row.effective_qps, row.wall_qps, row.vs_serial(),
                row.effective_qps / rows.front().effective_qps,
                static_cast<unsigned long long>(row.l2_hits), row.p99_ms,
                static_cast<unsigned long long>(row.lock_misses),
                row.peak_rss_mb);
  }

  std::printf("\n%7s %9s %9s %9s %9s %9s %9s %9s\n", "shards", "wall ms",
              "schedule", "build", "epochs", "barrier", "teardown",
              "merge");
  for (const ScaleRow& row : rows) {
    std::printf("%7u %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f\n",
                row.shards, row.wall_ms, row.schedule_ms, row.build_ms,
                row.epochs_ms, row.epochs_ms - row.critical_path_ms,
                row.teardown_ms, row.merge_ms);
  }

  // Batch-window sweep: the same scenario across delivery-batching
  // windows. Batching only reshapes the event schedule —
  // it must not change any individual query's outcome — so for every shard
  // count the answered total and the commutative per-query outcome digest
  // are pinned across windows.
  const std::vector<std::uint32_t> batch_counts =
      smoke ? std::vector<std::uint32_t>{1, 4}
            : std::vector<std::uint32_t>{1, 2, 4, 8};
  const std::vector<std::uint64_t> windows =
      smoke ? std::vector<std::uint64_t>{0, 200}
            : std::vector<std::uint64_t>{0, 50, 200};
  struct BatchRow {
    std::uint32_t shards = 0;
    std::uint64_t window_us = 0;
    ScaleRow row;
  };
  std::vector<BatchRow> batch_rows;
  for (std::uint32_t n : batch_counts) {
    for (std::uint64_t w : windows) {
      engine::ShardedConfig config = base;
      config.shards = n;
      config.batch_window = static_cast<SimTime>(w) * kMicrosecond;
      batch_rows.push_back({n, w, run_once(config)});
    }
  }

  std::printf("\nbatch sweep:\n");
  std::printf("%7s %9s %14s %12s %10s %10s  %s\n", "shards", "batch us",
              "critical qps", "wall qps", "L1 hits", "answered",
              "outcome digest");
  for (const BatchRow& b : batch_rows) {
    std::printf("%7u %9llu %14.0f %12.0f %10llu %10llu  %016llx\n", b.shards,
                static_cast<unsigned long long>(b.window_us),
                b.row.effective_qps, b.row.wall_qps,
                static_cast<unsigned long long>(b.row.l1_hits),
                static_cast<unsigned long long>(b.row.answered),
                static_cast<unsigned long long>(b.row.outcome_digest));
  }

  const double allocs = measure_cached_allocs_with_l2(smoke ? 1000 : 4000);
  std::printf("\ncached-query heap allocations with L2 attached: %.4f\n",
              allocs);
  const double call_allocs = measure_call_allocs_per_arrival(base);
  std::printf("heap allocations per arrival, one hot run_sharded call: "
              "%.4f\n",
              call_allocs);
  const MissAllocs miss = measure_miss_call_allocs(base.seed);
  std::printf("heap allocations per miss, one engine-miss-n1-shaped call: "
              "%.1f (%llu allocations / %llu misses; %.1f per arrival)\n",
              miss.per_miss(), static_cast<unsigned long long>(miss.allocs),
              static_cast<unsigned long long>(miss.misses),
              miss.per_arrival());
  std::printf("peak RSS of a hot one-shard call: %.1f MB after %d s of "
              "arrivals, %.1f MB after %d s: %.3f MB per simulated second\n",
              growth.short_mb, RssGrowth::kShortSeconds, growth.long_mb,
              RssGrowth::kLongSeconds, growth.per_second());

  bool ok = true;
  bool batch_invariant = true;
  for (std::size_t i = 0; i < batch_rows.size(); ++i) {
    const BatchRow& b = batch_rows[i];
    const BatchRow& zero = batch_rows[i - i % windows.size()];
    if (b.row.answered != zero.row.answered ||
        b.row.outcome_digest != zero.row.outcome_digest) {
      std::fprintf(stderr,
                   "FAIL: batching changed outcomes at %u shards "
                   "(window %llu us: %llu answered digest %016llx vs "
                   "%llu answered digest %016llx)\n",
                   b.shards, static_cast<unsigned long long>(b.window_us),
                   static_cast<unsigned long long>(b.row.answered),
                   static_cast<unsigned long long>(b.row.outcome_digest),
                   static_cast<unsigned long long>(zero.row.answered),
                   static_cast<unsigned long long>(zero.row.outcome_digest));
      batch_invariant = false;
      ok = false;
    }
  }
  for (const ScaleRow& row : rows) {
    if (row.queries != rows.front().queries ||
        row.answered != rows.front().answered) {
      std::fprintf(stderr,
                   "FAIL: load varies with shard count (%u shards: %llu "
                   "queries vs %llu)\n",
                   row.shards,
                   static_cast<unsigned long long>(row.queries),
                   static_cast<unsigned long long>(rows.front().queries));
      ok = false;
    }
  }
  const ScaleRow& four = rows[2];
  if (!deterministic) {
    std::fprintf(stderr, "FAIL: reruns diverged (digest/query mismatch "
                         "across repetitions)\n");
    ok = false;
  }
  if (four.vs_serial() < 3.0) {
    std::fprintf(stderr, "FAIL: 4-shard speedup %.2fx < 3.0x\n",
                 four.vs_serial());
    ok = false;
  }
  if (allocs < 0.0 || allocs > 0.01) {
    std::fprintf(stderr, "FAIL: cached query allocates with L2 (%.4f/op)\n",
                 allocs);
    ok = false;
  }
  if (call_allocs < 0.0 || call_allocs > 0.1) {
    std::fprintf(stderr,
                 "FAIL: a hot run_sharded call allocates %.4f times per "
                 "arrival (gate 0.1)\n",
                 call_allocs);
    ok = false;
  }
  // 8 bytes per answered query (the latency samples) is 0.4 MB/s at 50k
  // qps; everything else must be bounded by the window, not the run.
  if (growth.per_second() > 0.6) {
    std::fprintf(stderr,
                 "FAIL: peak RSS grows %.3f MB per simulated second of "
                 "arrivals (gate 0.6)\n",
                 growth.per_second());
    ok = false;
  }

  if (json) {
    bench::JsonReporter reporter;
    for (const ScaleRow& row : rows) {
      const std::string bench = "shards_" + std::to_string(row.shards);
      reporter.metric(bench, "critical_path_qps", row.effective_qps);
      reporter.metric(bench, "wall_qps", row.wall_qps);
      reporter.metric(bench, "speedup_vs_1",
                      row.effective_qps / rows.front().effective_qps);
      reporter.metric(bench, "speedup_vs_serial", row.vs_serial());
      reporter.metric(bench, "critical_path_ms", row.critical_path_ms);
      reporter.metric(bench, "shard_busy_sum_ms", row.busy_sum_ms);
      reporter.metric(bench, "sweep_ms", row.sweep_ms);
      reporter.metric(bench, "wall_ms", row.wall_ms);
      reporter.metric(bench, "schedule_ms", row.schedule_ms);
      reporter.metric(bench, "build_ms", row.build_ms);
      reporter.metric(bench, "epochs_ms", row.epochs_ms);
      reporter.metric(bench, "teardown_ms", row.teardown_ms);
      reporter.metric(bench, "merge_ms", row.merge_ms);
      reporter.metric(bench, "queries", static_cast<double>(row.queries));
      reporter.metric(bench, "l2_hits", static_cast<double>(row.l2_hits));
      reporter.metric(bench, "l2_lock_misses",
                      static_cast<double>(row.lock_misses));
      reporter.metric(bench, "p99_ms", row.p99_ms);
      reporter.metric(bench, "peak_rss_mb", row.peak_rss_mb);
    }
    for (const BatchRow& b : batch_rows) {
      const std::string bench = "batch_N" + std::to_string(b.shards) + "_w" +
                                std::to_string(b.window_us);
      reporter.metric(bench, "critical_path_qps", b.row.effective_qps);
      reporter.metric(bench, "wall_qps", b.row.wall_qps);
      reporter.metric(bench, "answered", static_cast<double>(b.row.answered));
      reporter.metric(bench, "l1_hits", static_cast<double>(b.row.l1_hits));
      reporter.metric(bench, "p99_ms", b.row.p99_ms);
    }
    reporter.metric("invariants", "cached_allocs_with_l2", allocs);
    reporter.metric("invariants", "call_allocs_per_arrival", call_allocs);
    reporter.metric("rss_growth", "short_call_peak_rss_mb", growth.short_mb);
    reporter.metric("rss_growth", "long_call_peak_rss_mb", growth.long_mb);
    reporter.metric("rss_growth", "mb_per_sim_second", growth.per_second());
    reporter.metric("miss_call", "allocs", static_cast<double>(miss.allocs));
    reporter.metric("miss_call", "misses", static_cast<double>(miss.misses));
    reporter.metric("miss_call", "allocs_per_miss", miss.per_miss());
    reporter.metric("miss_call", "allocs_per_arrival", miss.per_arrival());
    reporter.metric("invariants", "rerun_digest_match",
                    deterministic ? 1.0 : 0.0);
    reporter.metric("invariants", "batch_outcome_match",
                    batch_invariant ? 1.0 : 0.0);
    const char* path = "BENCH_engine_scale.json";
    if (reporter.write_file(path)) {
      std::printf("\nbaseline -> %s\n", path);
    } else {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
  }

  std::printf("\nengine scale: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
