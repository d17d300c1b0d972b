#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <string>

#include "doxbench.h"
#include "runner/campaign.h"
#include "web/page.h"

namespace doxbench {

using namespace doxlab;

namespace {

// Why these four (README.md has the long form): the two hot workloads share
// every arrival, so their difference is the sharded coordinator; the miss
// workload pushes a third of its queries through the upstream transports;
// the web study has no engine code at all and is the control for engine
// changes. Each call takes about a second on a 4-core host, so one run
// measures several calls and reports their median.
const std::vector<Workload> kWorkloads = {
    {.name = "engine-hot-n1", .family = Family::kEngine, .shards = 1,
     .qps = 50'000, .sim_seconds = 10, .names = 200},
    {.name = "engine-hot-n4", .family = Family::kEngine, .shards = 4,
     .qps = 50'000, .sim_seconds = 10, .names = 200},
    {.name = "engine-miss-n1", .family = Family::kEngine, .shards = 1,
     .qps = 5'000, .sim_seconds = 3, .names = 100'000},
    {.name = "paper-web", .family = Family::kWeb, .resolvers = 24,
     .loads = 4},
};

/// The paper's vantage points, one per continent.
constexpr std::uint64_t kVantagePoints = 6;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double process_cpu_s() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

std::uint64_t fold(std::uint64_t digest, std::uint64_t value) {
  return splitmix64(digest, value);
}

std::uint64_t hash_string(std::string_view text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const char c : text) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001B3ull;
  }
  return h;
}

void run_engine(const Workload& w, std::uint64_t seed, bool zero_work,
                int threads, RunResult& out) {
  engine::ShardedConfig config;
  config.seed = seed;
  config.shards = w.shards;
  config.threads = threads;
  config.clients = 1'000'000;
  config.qps = w.qps;
  config.duration =
      zero_work ? 0 : static_cast<SimTime>(w.sim_seconds * kSecond);
  config.names = w.names;

  const double cpu0 = process_cpu_s();
  const auto start = std::chrono::steady_clock::now();
  out.sharded = engine::run_sharded(config);
  out.wall_s = seconds_since(start);
  out.cpu_s = process_cpu_s() - cpu0;

  const engine::ShardedResult& r = out.sharded;
  const engine::LoadReport& load = r.load;
  out.attempted = r.total_arrivals;
  out.failed = load.servfails + load.timeouts + load.shed;
  out.latency_ms = load.latency_ms;
  out.digest = r.merged_digest;
  out.outcome_digest = r.outcome_digest;

  // The arrival ledger: every arrival is sent or shed, every sent query
  // ends exactly once, and the engines saw exactly the queries sent.
  auto check = [&out](bool ok, const std::string& what) {
    if (!ok) out.violations.push_back(what);
  };
  std::uint64_t scheduled = 0;
  for (const engine::ShardOutcome& shard : r.shards) {
    scheduled += shard.arrivals;
  }
  check(scheduled == r.total_arrivals,
        "shard arrivals " + std::to_string(scheduled) + " != schedule " +
            std::to_string(r.total_arrivals));
  check(r.total_arrivals == load.sent + load.shed,
        "arrivals " + std::to_string(r.total_arrivals) + " != sent " +
            std::to_string(load.sent) + " + shed " +
            std::to_string(load.shed));
  check(load.complete(),
        "sent " + std::to_string(load.sent) + " != answered + servfail + " +
            "timeout " +
            std::to_string(load.answered + load.servfails + load.timeouts));
  check(r.engine.queries == load.sent,
        "engine.queries " + std::to_string(r.engine.queries) + " != sent " +
            std::to_string(load.sent));
  check(load.latency_ms.size() == load.answered,
        "latency samples " + std::to_string(load.latency_ms.size()) +
            " != answered " + std::to_string(load.answered));
  if (zero_work) check(r.total_arrivals == 0, "zero-work run had arrivals");
}

void run_web(const Workload& w, std::uint64_t seed, bool zero_work,
             int threads, RunResult& out) {
  runner::CampaignConfig campaign;
  campaign.seed = seed;
  campaign.jobs = threads;
  campaign.population.verified_only = true;
  campaign.population.verified_dox = w.resolvers;

  // `doxperf campaign --web`: all five protocols, the ten pages, buggy
  // dnsproxy DoT reuse and 0-RTT attempts.
  measure::WebStudyConfig study;
  study.max_resolvers = w.resolvers;
  study.loads_per_combo = zero_work ? 0 : w.loads;
  study.repetitions = 1;
  study.dot_buggy_reuse = true;
  study.attempt_0rtt = true;

  const double cpu0 = process_cpu_s();
  const auto start = std::chrono::steady_clock::now();
  out.records = runner::run_web_campaign(campaign, study);
  out.wall_s = seconds_since(start);
  out.cpu_s = process_cpu_s() - cpu0;

  std::uint64_t digest = 0;
  for (const measure::WebRecord& record : out.records) {
    if (record.success) {
      out.latency_ms.push_back(to_ms(record.plt));
    } else {
      ++out.failed;
    }
    digest = fold(digest, static_cast<std::uint64_t>(record.vp));
    digest = fold(digest, static_cast<std::uint64_t>(record.resolver));
    digest = fold(digest, static_cast<std::uint64_t>(record.protocol));
    digest = fold(digest, hash_string(record.page));
    digest = fold(digest, static_cast<std::uint64_t>(record.rep));
    digest = fold(digest, static_cast<std::uint64_t>(record.load));
    digest = fold(digest, record.success ? 1 : 0);
    digest = fold(digest, static_cast<std::uint64_t>(record.fcp));
    digest = fold(digest, static_cast<std::uint64_t>(record.plt));
    digest = fold(digest, static_cast<std::uint64_t>(record.dns_queries));
    digest =
        fold(digest, static_cast<std::uint64_t>(record.dns_retransmissions));
  }
  out.attempted = out.records.size();
  out.digest = digest;
  out.outcome_digest = digest;

  const std::uint64_t expected =
      kVantagePoints * static_cast<std::uint64_t>(w.resolvers) *
      study.protocols.size() * web::tranco_top10().size() *
      static_cast<std::uint64_t>(study.loads_per_combo);
  if (out.records.size() != expected) {
    out.violations.push_back("records " + std::to_string(out.records.size()) +
                             " != expected " + std::to_string(expected));
  }
}

}  // namespace

const std::vector<Workload>& workloads() { return kWorkloads; }

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

Workload smoke_size(const Workload& workload) {
  Workload w = workload;
  w.sim_seconds = w.sim_seconds / 10;
  w.resolvers = std::min(w.resolvers, 4);
  w.loads = std::min(w.loads, 1);
  return w;
}

int worker_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  int cpus = 1;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    cpus = std::max(1, CPU_COUNT(&set));
  }
  return std::min(4, cpus);
}

int default_threads(const Workload& workload) {
  if (workload.family == Family::kEngine && workload.shards == 1) return 1;
  return worker_threads();
}

RunResult run_workload(const Workload& workload, std::uint64_t seed,
                       bool zero_work, int threads) {
  RunResult out;
  if (workload.family == Family::kEngine) {
    run_engine(workload, seed, zero_work, threads, out);
  } else {
    run_web(workload, seed, zero_work, threads, out);
  }
  return out;
}

}  // namespace doxbench
