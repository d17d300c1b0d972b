// Load bench for the forwarder engine (src/engine): sustained qps and
// client-visible latency percentiles under thousands of simulated stub
// clients, with ablations of the engine's three load-bearing mechanisms:
//   1. Query coalescing — identical concurrent misses share one upstream
//      resolve; off, every miss goes upstream on its own.
//   2. RFC 8767 serve-stale — expired entries answer immediately with a
//      clamped TTL while a background refresh runs; off, every expiry is a
//      client-visible cold miss.
//   3. Upstream failover — the primary resolver dies mid-run; health
//      tracking + the DoQ -> DoT -> DoUDP fallback chain keep answering
//      without client-visible SERVFAILs.
//
// Deterministic from --seed. Usage:
//   engine_load [--clients=N] [--qps=N] [--seconds=N] [--seed=N] [--full]
#include <cstdio>

#include "bench_util.h"
#include "engine/sharded.h"
#include "stats/stats.h"

using namespace doxlab;
using namespace doxlab::engine;

namespace {

void print_run(const char* label, const ShardedConfig& config,
               const ShardedResult& result) {
  const auto& e = result.engine;
  const auto& l = result.load;
  const auto summary = l.latency_summary();
  std::printf("%-24s %7.0f qps  p50 %6.2f  p95 %6.2f  p99 %7.2f ms\n",
              label,
              static_cast<double>(e.queries) /
                  (static_cast<double>(config.duration) / kSecond),
              summary.median, summary.p95, summary.p99);
  std::printf(
      "    sent %llu  answered %llu  servfail %llu  timeout %llu | "
      "hit %llu  stale %llu  miss %llu  coalesced %llu (%.0f%%)\n",
      static_cast<unsigned long long>(l.sent),
      static_cast<unsigned long long>(l.answered),
      static_cast<unsigned long long>(l.servfails),
      static_cast<unsigned long long>(l.timeouts),
      static_cast<unsigned long long>(e.cache_hits),
      static_cast<unsigned long long>(e.stale_hits),
      static_cast<unsigned long long>(e.misses),
      static_cast<unsigned long long>(e.coalesced),
      100.0 * e.coalesce_rate());
  std::printf(
      "    upstream: resolves %llu  attempts %llu  failovers %llu  "
      "refreshes %llu  evictions %llu\n",
      static_cast<unsigned long long>(e.upstream_resolves),
      static_cast<unsigned long long>(e.upstream_attempts),
      static_cast<unsigned long long>(e.failovers),
      static_cast<unsigned long long>(e.stale_refreshes),
      static_cast<unsigned long long>(e.cache_evictions));
}

}  // namespace

int main(int argc, char** argv) {
  const bool full = bench::flag_set(argc, argv, "--full");
  ShardedConfig base;
  base.seed =
      static_cast<std::uint64_t>(bench::flag_int(argc, argv, "--seed", 42));
  base.clients = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "--clients", full ? 4000 : 1200));
  base.qps = bench::flag_int(argc, argv, "--qps", full ? 4000 : 2000);
  base.duration =
      bench::flag_int(argc, argv, "--seconds", full ? 40 : 25) * kSecond;
  // Keep one-time cold-miss traffic (one resolve per name, plus the
  // queries that coalesce onto those first-contact windows) below 1% of
  // total queries, so the p99 bucket reflects steady-state behaviour.
  base.names = full ? 400 : 100;
  // Short TTLs force refresh/expiry traffic — without them the Zipf head
  // would be a one-time warmup and every mechanism under test would idle.
  base.engine.max_ttl = 1;

  // ---------------------------------------------------------------- 1.
  bench::banner("Engine load 1 — query coalescing (upstream traffic)");
  {
    ShardedConfig off = base;
    off.engine.serve_stale = false;  // isolate coalescing from serve-stale
    off.engine.coalesce = false;
    ShardedConfig on = off;
    on.engine.coalesce = true;
    auto result_off = run_sharded(off);
    auto result_on = run_sharded(on);
    print_run("coalescing off", off, result_off);
    print_run("coalescing on", on, result_on);
    const double saved =
        result_off.engine.upstream_resolves == 0
            ? 0.0
            : 100.0 *
                  (1.0 - static_cast<double>(
                             result_on.engine.upstream_resolves) /
                             static_cast<double>(
                                 result_off.engine.upstream_resolves));
    std::printf(
        "coalescing cut upstream resolves %llu -> %llu (-%.0f%%) across "
        "%zu clients\n",
        static_cast<unsigned long long>(result_off.engine.upstream_resolves),
        static_cast<unsigned long long>(result_on.engine.upstream_resolves),
        saved, base.clients);
  }

  // ---------------------------------------------------------------- 2.
  bench::banner("Engine load 2 — RFC 8767 serve-stale (tail latency)");
  {
    ShardedConfig off = base;
    off.engine.serve_stale = false;
    ShardedConfig on = base;
    on.engine.serve_stale = true;
    auto result_off = run_sharded(off);
    auto result_on = run_sharded(on);
    print_run("serve-stale off", off, result_off);
    print_run("serve-stale on", on, result_on);
    std::printf(
        "serve-stale p99: %.2f ms -> %.2f ms (expired hot names answer "
        "from cache while refreshing)\n",
        result_off.load.latency_summary().p99,
        result_on.load.latency_summary().p99);
  }

  // ---------------------------------------------------------------- 3.
  bench::banner("Engine load 3 — primary upstream dies mid-run (failover)");
  {
    ShardedConfig kill = base;
    kill.churn.push_back({kill.duration / 2, 0, ChurnAction::kOutage});
    auto result = run_sharded(kill);
    print_run("primary killed", kill, result);
    for (const auto& upstream : result.engine.upstreams) {
      std::printf(
          "    %-12s ewma %7.2f ms  attempts %6llu  failures %5llu  %s\n",
          upstream.name.c_str(), upstream.ewma_latency_ms,
          static_cast<unsigned long long>(upstream.attempts),
          static_cast<unsigned long long>(upstream.failures),
          upstream.healthy ? "healthy" : "quarantined");
    }
    std::printf(
        "client-visible SERVFAILs: %llu (health tracking walks the "
        "DoQ->DoT->DoUDP chain to the surviving upstreams)\n",
        static_cast<unsigned long long>(result.load.servfails));
  }
  return 0;
}
