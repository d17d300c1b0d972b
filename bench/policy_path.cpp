// Policy-pipeline bench (src/policy): the two numbers the subsystem is
// built around.
//
//   1. Rule evaluation cost — the compiled abuse chain evaluated on a legit
//      cached-path query: ns/op and heap allocations/op (must be zero; the
//      chain reads only borrowed views, so the cached fast path stays
//      allocation-free end to end).
//   2. Attack shed — the full abuse scenario (random-subdomain flood, water
//      torture, spoofed-source TXT amplification) against the same run with
//      the attacks silenced: attack queries shed at the chain while the
//      legitimate p99 stays flat.
//
// Writes BENCH_policy.json with --json. Deterministic from --seed.
// Usage:
//   policy_path [--seed=N] [--clients=N] [--qps=N] [--seconds=N]
//               [--json] [--smoke]
// --smoke runs a reduced scenario and exits non-zero if evaluation
// allocates, shed falls below 95%, or the under-attack legit p99 drifts
// more than 10% from the no-attack baseline (the CI gate).
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "bench_util.h"
#include "engine/sharded.h"
#include "policy/policy.h"
#include "stats/stats.h"

// Program-wide allocation counter, the same convention as
// micro_components: evaluation claims zero per query, so count every
// operator new and prove it.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace doxlab;

struct EvalNumbers {
  double legit_ns = 0.0;
  double attack_ns = 0.0;
  double allocs_per_op = 0.0;
};

/// Times chain evaluation on the legit fast path (walks every rule, ends
/// at the route rule) and on an attack query (sheds at the suffix rule),
/// counting heap allocations across the whole measured region.
EvalNumbers measure_eval(int iters) {
  // The abuse chain the scenario installs, compiled standalone against the
  // pool layout the engine builds.
  const std::vector<std::string> pools = {"default", "anycast"};
  policy::RuleChain chain(engine::abuse_chain(100), pools);
  const dns::DnsName legit = dns::DnsName::parse("name42.load.example");
  const dns::DnsName attack = dns::DnsName::parse("r1337.flood.example");
  const net::IpAddress client = net::IpAddress::from_octets(10, 50, 3, 7);

  EvalNumbers out;
  SimTime now = 0;
  std::uint64_t sink = 0;
  const std::uint64_t allocs_before = g_heap_allocs.load();
  auto started = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    // Advance the clock past the per-/24 budget so the legit query keeps
    // falling through the rate limiter, like real under-budget traffic.
    now += from_ms(10);
    const auto verdict = chain.evaluate(
        policy::QueryInfo{client, legit, dns::RRType::kA, now});
    sink += static_cast<std::uint64_t>(verdict.action);
  }
  out.legit_ns = std::chrono::duration<double, std::nano>(
                     std::chrono::steady_clock::now() - started)
                     .count() /
                 iters;
  started = std::chrono::steady_clock::now();
  for (int i = 0; i < iters; ++i) {
    now += from_ms(10);
    const auto verdict = chain.evaluate(
        policy::QueryInfo{client, attack, dns::RRType::kA, now});
    sink += static_cast<std::uint64_t>(verdict.action);
  }
  out.attack_ns = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - started)
                      .count() /
                  iters;
  out.allocs_per_op = static_cast<double>(g_heap_allocs.load() -
                                          allocs_before) /
                      (2.0 * iters);
  if (sink == 0xDEAD) std::printf("unreachable %llu\n",
                                  static_cast<unsigned long long>(sink));
  return out;
}

void print_run(const char* label, const engine::ShardedConfig& config,
               const engine::ShardedResult& result) {
  const auto summary = result.load.latency_summary();
  std::printf("%-22s %7.0f qps  p50 %6.2f  p95 %6.2f  p99 %7.2f ms  "
              "answered %llu  timeout %llu\n",
              label,
              static_cast<double>(result.engine.queries) /
                  (static_cast<double>(config.duration) / kSecond),
              summary.median, summary.p95, summary.p99,
              static_cast<unsigned long long>(result.load.answered),
              static_cast<unsigned long long>(result.load.timeouts));
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag_set(argc, argv, "--smoke");
  const bool json = bench::flag_set(argc, argv, "--json");

  engine::ShardedConfig attack;
  attack.seed =
      static_cast<std::uint64_t>(bench::flag_int(argc, argv, "--seed", 42));
  attack.clients = static_cast<std::size_t>(
      bench::flag_int(argc, argv, "--clients", smoke ? 300 : 1000));
  attack.qps = bench::flag_int(argc, argv, "--qps", smoke ? 600 : 2000);
  attack.duration =
      bench::flag_int(argc, argv, "--seconds", smoke ? 6 : 20) * kSecond;
  attack.names = 100;
  attack.engine.max_ttl = 1;  // keep refresh traffic flowing past warmup
  attack.attacks = smoke ? engine::abuse_attacks(900, 450, 300, 2 * kSecond)
                         : engine::abuse_attacks(3000, 1500, 1000,
                                                 2 * kSecond);
  attack.engine.policy = engine::abuse_chain(100);

  // The baseline is the same scenario with the attacks silenced: same
  // policy chain, same per-client addressing, same anycast pool — the only
  // variable is the abuse traffic.
  engine::ShardedConfig baseline = attack;
  for (engine::AttackConfig& mix : baseline.attacks) mix.qps = 0.0;

  bench::banner("Policy path 1 — compiled chain evaluation (hot path)");
  const EvalNumbers eval = measure_eval(smoke ? 200000 : 1000000);
  std::printf("legit query   %7.1f ns/op (full chain walk to the route "
              "rule)\n",
              eval.legit_ns);
  std::printf("attack query  %7.1f ns/op (sheds at the flood suffix "
              "rule)\n",
              eval.attack_ns);
  std::printf("allocations   %7.2f per evaluation\n", eval.allocs_per_op);

  bench::banner("Policy path 2 — attack shed vs legit tail latency");
  const auto result_base = engine::run_sharded(baseline);
  const auto result_attack = engine::run_sharded(attack);
  print_run("no attack", baseline, result_base);
  print_run("under attack", attack, result_attack);
  std::uint64_t attack_sent = 0;
  for (const auto& a : result_attack.attacks) attack_sent += a.sent;
  const double shed = result_attack.attack_shed_rate();
  const double p99_base = result_base.load.latency_summary().p99;
  const double p99_attack = result_attack.load.latency_summary().p99;
  const double p99_ratio = p99_base > 0 ? p99_attack / p99_base : 0.0;
  std::printf("attack queries %llu, shed %.1f%% at the chain "
              "(refused/dropped before cache or upstream)\n",
              static_cast<unsigned long long>(attack_sent), 100.0 * shed);
  std::printf("legit p99 %.2f ms -> %.2f ms under attack (%+.1f%%)\n",
              p99_base, p99_attack, 100.0 * (p99_ratio - 1.0));
  for (const auto& rule : result_attack.engine.policy_rules) {
    std::printf("    %-18s %-13s %-10s %8llu hits\n", rule.name.c_str(),
                std::string(policy::matcher_kind_name(rule.matcher)).c_str(),
                std::string(policy::action_kind_name(rule.action)).c_str(),
                static_cast<unsigned long long>(rule.matches));
  }

  if (json) {
    bench::JsonReporter reporter;
    reporter.metric("chain_eval", "legit_ns_per_op", eval.legit_ns);
    reporter.metric("chain_eval", "attack_ns_per_op", eval.attack_ns);
    reporter.metric("chain_eval", "allocs_per_op", eval.allocs_per_op);
    reporter.metric("attack_shed", "attack_sent",
                    static_cast<double>(attack_sent));
    reporter.metric("attack_shed", "shed_rate", shed);
    reporter.metric("attack_shed", "legit_p99_ms_baseline", p99_base);
    reporter.metric("attack_shed", "legit_p99_ms_under_attack", p99_attack);
    reporter.metric("attack_shed", "legit_p99_ratio", p99_ratio);
    reporter.metric("attack_shed", "legit_answered",
                    static_cast<double>(result_attack.load.answered));
    reporter.metric("attack_shed", "legit_timeouts",
                    static_cast<double>(result_attack.load.timeouts));
    const char* path = "BENCH_policy.json";
    if (reporter.write_file(path)) {
      std::printf("\nbaseline -> %s\n", path);
    } else {
      std::fprintf(stderr, "failed to write %s\n", path);
      return 1;
    }
  }

  // CI gate: the three claims the subsystem makes.
  bool ok = true;
  if (eval.allocs_per_op > 0.0) {
    std::fprintf(stderr, "FAIL: chain evaluation allocated (%.2f/op)\n",
                 eval.allocs_per_op);
    ok = false;
  }
  if (shed < 0.95) {
    std::fprintf(stderr, "FAIL: attack shed %.1f%% < 95%%\n", 100.0 * shed);
    ok = false;
  }
  if (p99_ratio > 1.10) {
    std::fprintf(stderr,
                 "FAIL: legit p99 ratio %.3f > 1.10 under attack\n",
                 p99_ratio);
    ok = false;
  }
  std::printf("\npolicy path: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
