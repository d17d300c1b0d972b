// doxperf — a dnsperf-style command-line front end for the doxlab testbed.
//
// Runs the paper's measurement methodology (cache warming, session
// resumption, token reuse) over a synthetic resolver population and prints
// the single-query and/or web-performance reports. Everything is
// deterministic for a given --seed.
//
// Examples:
//   doxperf                                  # single-query study, defaults
//   doxperf --protocols=doq,doh --reps=4
//   doxperf --web --resolvers=24             # web study (FCP/PLT CDFs)
//   doxperf --no-resumption --protocols=doq  # preliminary-work behaviour
//   doxperf --0rtt --pad --csv=out.csv
//   doxperf engine --clients=2000 --qps=3000  # forwarder-engine load run
//   doxperf campaign --jobs=8 --reps=4        # parallel measurement sweep
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "engine/sharded.h"
#include "measure/csv.h"
#include "measure/report.h"
#include "measure/single_query.h"
#include "measure/web_study.h"
#include "net/geo.h"
#include "runner/campaign.h"
#include "stats/stats.h"
#include "util/strings.h"

using namespace doxlab;
using namespace doxlab::measure;

namespace {

const char* kUsage = R"(doxperf — DNS-over-X measurement testbed CLI

  --protocols=LIST   comma list of doudp,dotcp,dot,doh,doq,doh3 (default:
                     the paper's five)
  --resolvers=N      verified resolvers in the population (default 48)
  --reps=N           repetitions per combination (default 1)
  --qname=NAME       query name (default google.com)
  --seed=N           study seed (default 42)
  --web              run the web study (FCP/PLT) instead of single queries
  --pages=LIST       web: comma list of page names (default: all ten)
  --loads=N          web: measured loads per combination (default 4)
  --no-resumption    disable TLS session resumption (preliminary-work mode)
  --no-token         do not present QUIC address-validation tokens
  --0rtt             resolvers accept TLS/QUIC 0-RTT (future-work mode)
  --doh3             resolvers additionally serve DNS over HTTP/3
  --pad              RFC 8467 padding on encrypted transports
  --fix-dot          use the fixed dnsproxy DoT connection reuse (web)
  --csv=FILE         write raw records as CSV
  --failure-csv=FILE write the per-protocol x error-class failure report
  --help             this text

campaign subcommand — the same studies sharded over a thread pool
(doxperf campaign ...). Output is bit-identical for any --jobs value:
  --jobs=N           worker threads (default 1; 0 = all hardware threads)
  plus the study flags above (--web, --protocols, --resolvers, --reps, ...)

engine subcommand — the forwarder-engine load run (doxperf engine ...): one
scenario partitioned across N shard worlds driven by the thread pool,
clients source-hashed onto shards, per-shard L1 caches over one shared L2
packet cache:
  --shards=N         shard count (default 1)
  --clients=N        simulated stub clients (default 1000000)
  --qps=N            aggregate Poisson query rate (default 20000)
  --seconds=N        arrival window length (default 10)
  --names=N          distinct query names, Zipf-popular (default 200)
  --seed=N           scenario seed (default 42)
  --threads=N        pool worker threads (default 0 = hardware threads)
  --epoch-ms=N       epoch barrier interval for L2 sweeps (default 100)
  --l2-capacity=N    shared packet-cache entries, 0 disables (default 65536)
  --batch-us=N       coalesce UDP datagrams per host within an N-us window
                     into one batch event, 0 = per-datagram (default 0)
  --wire-cache=N     raw-wire packet-cache entries fronting the L1, 0
                     disables (default 0)
  --bottleneck-mbps=N     finite-rate ingress link on each shard host, 0
                     disables (default 0)
  --bottleneck-queue-kb=N tail-drop queue depth for that link (default 64)
  --no-coalesce      resolve each concurrent identical query upstream
  --no-stale         disable RFC 8767 serve-stale
  --kill-primary     take the primary upstream down at half the run
  --snapshot-dir=DIR persistent snapshot tier: replay DIR/shard-N.snap into
                     the caches at startup (warm start) and append every
                     successful resolve (default: disabled)
  --l2-stale         serve RFC 8767 stale answers straight from the shared
                     L2 (one background refresh per stale hit)
  --restart-at=N     restart the forwarder at second N (0 = never); with
                     --snapshot-dir every shard warm-starts from disk
  --bucket-ms=N      send-time series bucket width, 0 = none (default 0)
  --shard-csv=FILE   per-shard stats rows (deterministic columns only)
  --churn-csv=FILE   write the send-time series as CSV

adverse subcommand — the adverse-path study (doxperf adverse ...): the
single-query sweep repeated per link profile (baseline / burstloss /
bufferbloat / handover / lte) with real congestion control (TCP NewReno,
QUIC RFC 9002) on every transport. Bit-identical for any --jobs value:
  --jobs=N           worker threads (default 1; 0 = all hardware threads)
  --resolvers=N      verified resolvers (default 12)
  --reps=N           repetitions per combination (default 3)
  --profiles=LIST    comma list of the profiles above (default: all five)
  --csv=FILE         raw per-record rows with a profile column
  --smoke            tiny deterministic run (CI)

abuse subcommand — engine load plus attack mixes shed by the policy chain
(doxperf abuse ...): every engine flag above (defaults 1000 clients, 2000
qps, 10 s), and
  --flood-qps=N      random-subdomain flood rate (default 3000)
  --torture-qps=N    water-torture rate (default 1500)
  --amp-qps=N        spoofed-source TXT amplification rate (default 1000)
  --rate-limit=N     per-/24 client-subnet budget, qps (default 100)
  --policy-csv=FILE  write the per-rule hit-counter report
  --smoke            small deterministic run (sanitizer CI)

churn subcommand — resolver-churn availability campaign (doxperf churn
...): scripted upstream outages/recoveries and anycast-style route flaps
under live load, with the answerable rate and tail latency bucketed into a
time series through every transition. Every engine flag above (defaults
500 clients, 1000 qps, 60 s, --bucket-ms=1000), and
  --smoke            tiny deterministic run (CI)
The transition schedule: primary outage at 20% of the horizon, recovery at
50%, secondary withdraw at 60%, re-announce at 80%.
)";

/// The value of `--name=VALUE`, or null when the flag is absent.
const char* find_flag(int argc, char** argv, const char* name) {
  const std::size_t length = std::strlen(name);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], name, length) == 0 && argv[i][length] == '=') {
      return argv[i] + length + 1;
    }
  }
  return nullptr;
}

std::string flag_value(int argc, char** argv, const char* name,
                       const char* fallback) {
  const char* value = find_flag(argc, argv, name);
  return value != nullptr ? value : fallback;
}

bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

std::vector<dox::DnsProtocol> parse_protocols(const std::string& list) {
  std::vector<dox::DnsProtocol> out;
  for (const std::string& raw : split(list, ',')) {
    const std::string name = to_lower(raw);
    if (name == "doudp" || name == "udp") {
      out.push_back(dox::DnsProtocol::kDoUdp);
    } else if (name == "dotcp" || name == "tcp") {
      out.push_back(dox::DnsProtocol::kDoTcp);
    } else if (name == "dot") {
      out.push_back(dox::DnsProtocol::kDoT);
    } else if (name == "doh") {
      out.push_back(dox::DnsProtocol::kDoH);
    } else if (name == "doq") {
      out.push_back(dox::DnsProtocol::kDoQ);
    } else if (name == "doh3") {
      out.push_back(dox::DnsProtocol::kDoH3);
    } else if (!name.empty()) {
      std::fprintf(stderr, "unknown protocol: %s\n", name.c_str());
      std::exit(2);
    }
  }
  return out;
}

/// A numeric flag: the whole value must parse as a T in range, or the run
/// stops with exit status 2 (main reports the exception).
template <typename T>
T flag_num(int argc, char** argv, const char* name, T fallback) {
  const char* value = find_flag(argc, argv, name);
  if (value == nullptr) return fallback;
  const char* end = value + std::strlen(value);
  T out{};
  const auto [ptr, ec] = std::from_chars(value, end, out);
  if (ec != std::errc() || ptr != end) {
    throw std::invalid_argument(std::string(name) + "=" + value +
                                " is not an integer in range");
  }
  return out;
}

int flag_int(int argc, char** argv, const char* name, int fallback) {
  return flag_num<int>(argc, argv, name, fallback);
}

/// Per-shard stats rows. Only simulation-derived (deterministic) columns —
/// no wall-clock timing — so two runs with the same seed and shard count
/// produce bit-identical files (the engine_shards_determinism ctest).
std::string shard_csv(const engine::ShardedResult& result) {
  std::string out =
      "shard,arrivals,sent,answered,servfails,timeouts,shed,queries,"
      "cache_hits,stale_hits,misses,coalesced,wire_hits,wire_lookups,"
      "l2_hits,l2_lookups,upstream_resolves,link_packets,link_drops,"
      "link_queue_peak,l1_lookups,l1_evictions,l1_entries,l1_bytes,"
      "wire_evictions,wire_entries,wire_bytes,snapshot_hits,"
      "snapshot_lookups,snapshot_entries,snapshot_bytes,events,digest,"
      "outcomes\n";
  char line[1024];
  for (const auto& shard : result.shards) {
    std::snprintf(
        line, sizeof(line),
        "%u,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,%llu,"
        "%llu,%llu,%llu,%llu,%llu,%llu,%016llx,%016llx\n",
        shard.index, static_cast<unsigned long long>(shard.arrivals),
        static_cast<unsigned long long>(shard.load.sent),
        static_cast<unsigned long long>(shard.load.answered),
        static_cast<unsigned long long>(shard.load.servfails),
        static_cast<unsigned long long>(shard.load.timeouts),
        static_cast<unsigned long long>(shard.load.shed),
        static_cast<unsigned long long>(shard.engine.queries),
        static_cast<unsigned long long>(shard.engine.cache_hits),
        static_cast<unsigned long long>(shard.engine.stale_hits),
        static_cast<unsigned long long>(shard.engine.misses),
        static_cast<unsigned long long>(shard.engine.coalesced),
        static_cast<unsigned long long>(shard.engine.wire_hits),
        static_cast<unsigned long long>(shard.engine.wire_lookups),
        static_cast<unsigned long long>(shard.engine.l2_hits),
        static_cast<unsigned long long>(shard.engine.l2_lookups),
        static_cast<unsigned long long>(shard.engine.upstream_resolves),
        static_cast<unsigned long long>(shard.engine.link_packets),
        static_cast<unsigned long long>(shard.engine.link_drops),
        static_cast<unsigned long long>(shard.engine.link_queue_peak),
        static_cast<unsigned long long>(shard.engine.l1_lookups),
        static_cast<unsigned long long>(shard.engine.l1_evictions),
        static_cast<unsigned long long>(shard.engine.l1_entries),
        static_cast<unsigned long long>(shard.engine.l1_bytes),
        static_cast<unsigned long long>(shard.engine.wire_evictions),
        static_cast<unsigned long long>(shard.engine.wire_entries),
        static_cast<unsigned long long>(shard.engine.wire_bytes),
        static_cast<unsigned long long>(shard.engine.snapshot_hits),
        static_cast<unsigned long long>(shard.engine.snapshot_lookups),
        static_cast<unsigned long long>(shard.engine.snapshot_entries),
        static_cast<unsigned long long>(shard.engine.snapshot_bytes),
        static_cast<unsigned long long>(shard.events),
        static_cast<unsigned long long>(shard.stream_digest),
        static_cast<unsigned long long>(shard.outcome_digest));
    out += line;
  }
  std::snprintf(line, sizeof(line),
                "merged,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,,%016llx,%016llx\n",
                static_cast<unsigned long long>(result.merged_digest),
                static_cast<unsigned long long>(result.outcome_digest));
  out += line;
  return out;
}

/// The send-time series as CSV:
/// `bucket_s,sent,answered,servfails,timeouts,answer_rate,p50_ms,p99_ms`.
std::string series_csv(const std::vector<engine::SeriesBucket>& series) {
  std::string csv =
      "bucket_s,sent,answered,servfails,timeouts,answer_rate,p50_ms,"
      "p99_ms\n";
  char line[160];
  for (const engine::SeriesBucket& bucket : series) {
    const stats::Summary latency = stats::Summary::of(bucket.latency_ms);
    std::snprintf(line, sizeof(line),
                  "%.3f,%llu,%llu,%llu,%llu,%.6f,%.3f,%.3f\n",
                  static_cast<double>(bucket.start) / kSecond,
                  static_cast<unsigned long long>(bucket.sent()),
                  static_cast<unsigned long long>(bucket.answered),
                  static_cast<unsigned long long>(bucket.servfails),
                  static_cast<unsigned long long>(bucket.timeouts),
                  bucket.answer_rate(), latency.median, latency.p99);
    csv += line;
  }
  return csv;
}

/// The run `doxperf engine`, `abuse` or `churn` asks for: one flag parser.
/// The subcommands differ only in their defaults, abuse's attack mixes and
/// policy chain, and churn's transition schedule.
engine::ShardedConfig engine_config(int argc, char** argv,
                                    const std::string& mode) {
  const bool abuse = mode == "abuse";
  const bool churn = mode == "churn";
  const bool smoke = flag_set(argc, argv, "--smoke");
  std::size_t clients = 1'000'000;
  int qps = 20000;
  int seconds = 10;
  if (abuse) {
    clients = smoke ? 200 : 1000;
    qps = smoke ? 500 : 2000;
    seconds = smoke ? 5 : 10;
  } else if (churn) {
    clients = smoke ? 100 : 500;
    qps = smoke ? 300 : 1000;
    seconds = smoke ? 8 : 60;
  }

  engine::ShardedConfig config;
  config.shards = flag_num<std::uint32_t>(argc, argv, "--shards", 1);
  config.seed = flag_num<std::uint64_t>(argc, argv, "--seed", 42);
  config.clients = flag_num<std::size_t>(argc, argv, "--clients", clients);
  config.qps = flag_int(argc, argv, "--qps", qps);
  config.duration = flag_int(argc, argv, "--seconds", seconds) * kSecond;
  config.names = flag_num<std::size_t>(argc, argv, "--names", 200);
  config.threads = flag_int(argc, argv, "--threads", 0);
  config.epoch = flag_int(argc, argv, "--epoch-ms", 100) * kMillisecond;
  config.l2_capacity =
      flag_num<std::size_t>(argc, argv, "--l2-capacity", 1 << 16);
  config.batch_window =
      flag_int(argc, argv, "--batch-us", 0) * kMicrosecond;
  config.engine.coalesce = !flag_set(argc, argv, "--no-coalesce");
  config.engine.serve_stale = !flag_set(argc, argv, "--no-stale");
  config.engine.wire_cache_capacity =
      flag_num<std::size_t>(argc, argv, "--wire-cache", 0);
  config.engine.snapshot_dir = flag_value(argc, argv, "--snapshot-dir", "");
  config.engine.l2_serve_stale = flag_set(argc, argv, "--l2-stale");
  // Short TTLs keep refresh traffic flowing past the initial warmup, so an
  // outage shows as latency/timeouts instead of vanishing into the cache.
  config.engine.max_ttl = 1;
  const int bottleneck_mbps = flag_int(argc, argv, "--bottleneck-mbps", 0);
  if (bottleneck_mbps > 0) {
    net::LinkConfig link;
    link.rate_bps = static_cast<double>(bottleneck_mbps) * 1e6;
    link.queue_bytes = flag_num<std::size_t>(argc, argv,
                                             "--bottleneck-queue-kb", 64) *
                       1024;
    config.bottleneck = link;
  }
  config.restart_at = flag_int(argc, argv, "--restart-at", 0) * kSecond;
  config.series_bucket =
      flag_int(argc, argv, "--bucket-ms", churn ? 1000 : 0) * kMillisecond;
  if (flag_set(argc, argv, "--kill-primary")) {
    config.churn.push_back(
        {config.duration / 2, 0, engine::ChurnAction::kOutage});
  }
  if (abuse) {
    config.attacks = engine::abuse_attacks(
        flag_int(argc, argv, "--flood-qps", smoke ? 800 : 3000),
        flag_int(argc, argv, "--torture-qps", smoke ? 400 : 1500),
        flag_int(argc, argv, "--amp-qps", smoke ? 300 : 1000),
        (smoke ? 1 : 2) * kSecond);
    config.engine.policy = engine::abuse_chain(
        flag_num<std::uint32_t>(argc, argv, "--rate-limit", 100));
  }
  if (churn) {
    // The default transition schedule, scaled to the horizon: the primary
    // dies and recovers (timeout-discovered), the second upstream is
    // withdrawn and re-announced (plan-level, no timeout paid).
    const SimTime horizon = config.duration;
    config.churn.push_back({horizon / 5, 0, engine::ChurnAction::kOutage});
    config.churn.push_back({horizon / 2, 0, engine::ChurnAction::kRecover});
    config.churn.push_back(
        {horizon * 3 / 5, 1, engine::ChurnAction::kWithdraw});
    config.churn.push_back(
        {horizon * 4 / 5, 1, engine::ChurnAction::kAnnounce});
  }
  return config;
}

/// The one engine report: every run's engine and client lines, plus the
/// attack and series sections when the run has them.
void print_engine_report(const char* title,
                         const engine::ShardedConfig& config,
                         const engine::ShardedResult& result) {
  const auto& e = result.engine;
  const auto latency = result.load.latency_summary();
  std::printf("%s: %u shards, %zu clients, %zu names, %.0f qps offered for "
              "%llu s (seed %llu)\n",
              title, config.shards, config.clients, config.names, config.qps,
              static_cast<unsigned long long>(config.duration / kSecond),
              static_cast<unsigned long long>(config.seed));
  std::printf("  epoch %llu ms, %llu epochs, L2 capacity %zu, coalescing "
              "%s, serve-stale %s, batch window %llu us, wire cache %zu\n",
              static_cast<unsigned long long>(config.epoch / kMillisecond),
              static_cast<unsigned long long>(result.epochs),
              config.l2_capacity, config.engine.coalesce ? "on" : "off",
              config.engine.serve_stale ? "on" : "off",
              static_cast<unsigned long long>(config.batch_window),
              config.engine.wire_cache_capacity);
  for (const auto& event : config.churn) {
    std::printf("  t=%5.1fs upstream-%zu %s\n",
                static_cast<double>(event.at) / kSecond, event.upstream,
                std::string(engine::churn_action_name(event.action)).c_str());
  }
  if (config.restart_at > 0) {
    std::printf("  t=%5.1fs forwarder restart (%s; warm-loaded %llu)\n",
                static_cast<double>(config.restart_at) / kSecond,
                config.engine.snapshot_dir.empty() ? "cold"
                                                   : "snapshot warm start",
                static_cast<unsigned long long>(e.snapshot_warm_loaded));
  }

  std::uint64_t events = 0;
  for (const auto& shard : result.shards) events += shard.events;
  std::printf("\nthroughput     %9.0f qps critical-path (%.0f qps wall on "
              "this host)\n",
              result.effective_qps(), result.wall_qps());
  std::printf("sustained      %9.0f qps over the arrival window\n",
              config.duration <= 0
                  ? 0.0
                  : static_cast<double>(e.queries) /
                        (static_cast<double>(config.duration) / kSecond));
  std::printf("timing         wall %.1f ms  critical path %.1f ms  sweeps "
              "%.2f ms\n",
              result.wall_ms, result.critical_path_ms, result.sweep_ms);
  std::printf("queries        %llu processed, %llu arrivals, %llu sim "
              "events\n",
              static_cast<unsigned long long>(e.queries),
              static_cast<unsigned long long>(result.total_arrivals),
              static_cast<unsigned long long>(events));
  std::printf("latency        p50 %.2f  p95 %.2f  p99 %.2f  max %.2f ms\n",
              latency.median, latency.p95, latency.p99, latency.max);
  std::printf("client side    answered %llu  servfail %llu  timeout %llu  "
              "shed %llu\n",
              static_cast<unsigned long long>(result.load.answered),
              static_cast<unsigned long long>(result.load.servfails),
              static_cast<unsigned long long>(result.load.timeouts),
              static_cast<unsigned long long>(result.load.shed));
  std::printf("L1 cache       hit %llu  stale %llu  miss %llu  evictions "
              "%llu\n",
              static_cast<unsigned long long>(e.cache_hits),
              static_cast<unsigned long long>(e.stale_hits),
              static_cast<unsigned long long>(e.misses),
              static_cast<unsigned long long>(e.cache_evictions));
  std::printf("wire cache     hit %llu / %llu lookups\n",
              static_cast<unsigned long long>(e.wire_hits),
              static_cast<unsigned long long>(e.wire_lookups));
  std::printf("L2 cache       hit %llu / %llu lookups  deferred %llu  "
              "applied %llu  lock-miss %llu  size %zu\n",
              static_cast<unsigned long long>(result.l2.hits),
              static_cast<unsigned long long>(result.l2.hits +
                                              result.l2.misses),
              static_cast<unsigned long long>(result.l2.deferred_inserts),
              static_cast<unsigned long long>(result.l2.applied_inserts),
              static_cast<unsigned long long>(result.l2.lock_misses),
              result.l2.size);
  if (!config.engine.snapshot_dir.empty()) {
    std::printf("snapshot tier  hit %llu / %llu lookups  warm-loaded %llu  "
                "entries %llu (%llu bytes)\n",
                static_cast<unsigned long long>(e.snapshot_hits),
                static_cast<unsigned long long>(e.snapshot_lookups),
                static_cast<unsigned long long>(e.snapshot_warm_loaded),
                static_cast<unsigned long long>(e.snapshot_entries),
                static_cast<unsigned long long>(e.snapshot_bytes));
  }
  std::printf("coalescing     joined %llu in-flight resolves (%.0f%% of "
              "misses)\n",
              static_cast<unsigned long long>(e.coalesced),
              100.0 * e.coalesce_rate());
  std::printf("upstream       resolves %llu  attempts %llu  failovers %llu"
              "  stale refreshes %llu  servfails %llu\n",
              static_cast<unsigned long long>(e.upstream_resolves),
              static_cast<unsigned long long>(e.upstream_attempts),
              static_cast<unsigned long long>(e.failovers),
              static_cast<unsigned long long>(e.stale_refreshes),
              static_cast<unsigned long long>(e.servfails_sent));
  for (const auto& shard : result.shards) {
    for (const auto& upstream : shard.engine.upstreams) {
      const std::string label =
          result.shards.size() > 1
              ? "s" + std::to_string(shard.index) + "/" + upstream.name
              : upstream.name;
      std::printf("  %-20s ewma %7.2f ms  attempts %6llu  failures %5llu"
                  "  %s\n",
                  label.c_str(), upstream.ewma_latency_ms,
                  static_cast<unsigned long long>(upstream.attempts),
                  static_cast<unsigned long long>(upstream.failures),
                  upstream.healthy ? "healthy" : "quarantined");
    }
  }
  std::printf("failure classes");
  for (util::ErrorClass cls : util::kAllErrorClasses) {
    if (cls == util::ErrorClass::kNone) continue;
    std::printf("  %s %llu", std::string(util::error_class_name(cls)).c_str(),
                static_cast<unsigned long long>(
                    e.upstream_errors.count(cls)));
  }
  std::printf("\n");
  std::printf("per shard      arrivals [");
  for (const auto& shard : result.shards) {
    std::printf("%s%llu", shard.index == 0 ? "" : " ",
                static_cast<unsigned long long>(shard.arrivals));
  }
  std::printf("]  digest %016llx\n",
              static_cast<unsigned long long>(result.merged_digest));
  std::printf("               busy ms [");
  for (const auto& shard : result.shards) {
    std::printf("%s%.1f", shard.index == 0 ? "" : " ", shard.busy_ms);
  }
  std::printf("]\n");

  if (!config.attacks.empty()) {
    std::printf("\n");
    for (const auto& attack : result.attacks) {
      std::printf("  %-17s sent %7llu  answered %6llu  refused %6llu  "
                  "truncated %6llu\n",
                  std::string(engine::attack_kind_name(attack.kind)).c_str(),
                  static_cast<unsigned long long>(attack.sent),
                  static_cast<unsigned long long>(attack.answered),
                  static_cast<unsigned long long>(attack.refused),
                  static_cast<unsigned long long>(attack.truncated));
    }
    std::printf("policy         evaluated %llu  dropped %llu  refused %llu  "
                "truncated %llu  routed %llu\n",
                static_cast<unsigned long long>(e.policy_evaluations),
                static_cast<unsigned long long>(e.policy_dropped),
                static_cast<unsigned long long>(e.policy_refused),
                static_cast<unsigned long long>(e.policy_truncated),
                static_cast<unsigned long long>(e.policy_routed));
    for (const auto& rule : e.policy_rules) {
      std::printf("  %-18s %-13s %-10s %8llu hits\n", rule.name.c_str(),
                  std::string(policy::matcher_kind_name(rule.matcher)).c_str(),
                  std::string(policy::action_kind_name(rule.action)).c_str(),
                  static_cast<unsigned long long>(rule.matches));
    }
    std::printf("attack shed    %.1f%%\n", 100.0 * result.attack_shed_rate());
  }

  if (!result.series.empty()) {
    std::printf("\n%8s %8s %8s %9s %9s %12s %9s %9s\n", "bucket_s", "sent",
                "answered", "servfails", "timeouts", "answer_rate", "p50_ms",
                "p99_ms");
    for (const auto& bucket : result.series) {
      const stats::Summary bucket_latency =
          stats::Summary::of(bucket.latency_ms);
      std::printf("%8.1f %8llu %8llu %9llu %9llu %12.4f %9.2f %9.2f\n",
                  static_cast<double>(bucket.start) / kSecond,
                  static_cast<unsigned long long>(bucket.sent()),
                  static_cast<unsigned long long>(bucket.answered),
                  static_cast<unsigned long long>(bucket.servfails),
                  static_cast<unsigned long long>(bucket.timeouts),
                  bucket.answer_rate(), bucket_latency.median,
                  bucket_latency.p99);
    }
  }
}

/// `doxperf engine`, `abuse` and `churn`: one parser, one run_sharded call
/// and one report.
int run_engine(int argc, char** argv, const std::string& mode) {
  const engine::ShardedConfig config = engine_config(argc, argv, mode);
  const auto result = engine::run_sharded(config);
  print_engine_report(mode == "abuse"   ? "abuse scenario"
                      : mode == "churn" ? "churn campaign"
                                        : "forwarder engine",
                      config, result);

  const std::string shard_path = flag_value(argc, argv, "--shard-csv", "");
  if (!shard_path.empty()) {
    write_file(shard_path, shard_csv(result));
    std::printf("shard report -> %s\n", shard_path.c_str());
  }
  const std::string policy_path = flag_value(argc, argv, "--policy-csv", "");
  if (!policy_path.empty()) {
    write_file(policy_path, policy::policy_csv(result.engine.policy_rules));
    std::printf("policy report -> %s\n", policy_path.c_str());
  }
  const std::string series_path = flag_value(argc, argv, "--churn-csv", "");
  if (!series_path.empty()) {
    write_file(series_path, series_csv(result.series));
    std::printf("churn series -> %s\n", series_path.c_str());
  }
  return 0;
}

/// One adverse-path link profile: a name plus the access-link shape every
/// vantage point gets (nullopt = the pinned geo-latency baseline).
struct AdverseProfile {
  const char* name;
  std::optional<net::LinkConfig> link;
};

/// The profile family for `doxperf adverse` — LTE-flavoured impairments
/// from the web-performance literature the paper draws on.
std::vector<AdverseProfile> adverse_profiles() {
  std::vector<AdverseProfile> out;
  out.push_back({"baseline", std::nullopt});

  // Gilbert-Elliott burst loss alone: ~7% stationary loss in ~4-packet
  // bursts, the regime where one lost TCP segment stalls the whole stream
  // but QUIC only delays the affected one.
  net::LinkConfig burst;
  burst.burst_loss = net::GilbertElliott{};
  out.push_back({"burstloss", burst});

  // Bufferbloat: a 10 Mbit/s bottleneck with a deep FIFO — no loss, but
  // queueing delay inflates every RTT once the link saturates.
  net::LinkConfig bloat;
  bloat.rate_bps = 10e6;
  bloat.queue_bytes = 256 * 1024;
  out.push_back({"bufferbloat", bloat});

  // Handover: scripted RTT steps, +80 ms one-way between t=1s and t=3s
  // (a radio handover mid-measurement).
  net::LinkConfig handover;
  handover.delay_steps = {{0, 0}, {1 * kSecond, from_ms(80)},
                          {3 * kSecond, 0}};
  out.push_back({"handover", handover});

  // LTE composite: constrained rate, moderate queue, burst loss and one
  // handover step together.
  net::LinkConfig lte;
  lte.rate_bps = 8e6;
  lte.queue_bytes = 96 * 1024;
  lte.burst_loss = net::GilbertElliott{};
  lte.delay_steps = {{0, 0}, {2 * kSecond, from_ms(60)}, {4 * kSecond, 0}};
  out.push_back({"lte", lte});
  return out;
}

/// `doxperf adverse` — the single-query sweep per link profile, with real
/// congestion control on every transport. Runs on the campaign runner, so
/// output is a pure function of the seed (never of --jobs).
int run_adverse(int argc, char** argv) {
  const bool smoke = flag_set(argc, argv, "--smoke");
  runner::CampaignConfig campaign;
  campaign.seed = flag_num<std::uint64_t>(argc, argv, "--seed", 42);
  campaign.jobs = flag_int(argc, argv, "--jobs", 1);
  campaign.population.verified_only = true;
  campaign.population.verified_dox =
      flag_int(argc, argv, "--resolvers", smoke ? 4 : 12);

  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  const std::string protocol_list = flag_value(argc, argv, "--protocols", "");
  if (!protocol_list.empty()) protocols = parse_protocols(protocol_list);

  SingleQueryConfig sq;
  sq.protocols = protocols;
  sq.qname = flag_value(argc, argv, "--qname", "google.com");
  sq.repetitions = flag_int(argc, argv, "--reps", smoke ? 1 : 3);
  sq.tcp_congestion = cc::CcAlgorithm::kNewReno;
  sq.quic_enable_cc = true;

  std::vector<AdverseProfile> profiles = adverse_profiles();
  const std::string profile_list = flag_value(argc, argv, "--profiles", "");
  if (!profile_list.empty()) {
    std::vector<AdverseProfile> chosen;
    for (const std::string& raw : split(profile_list, ',')) {
      const std::string name = to_lower(raw);
      bool found = false;
      for (const AdverseProfile& p : profiles) {
        if (name == p.name) {
          chosen.push_back(p);
          found = true;
        }
      }
      if (!found) {
        std::fprintf(stderr, "unknown profile: %s\n", name.c_str());
        return 2;
      }
    }
    profiles = std::move(chosen);
  }

  std::string csv = "profile,protocol,vp,resolver,rep,success,"
                    "handshake_ms,resolve_ms,total_ms\n";
  std::printf("adverse-path study: %d resolvers, %d reps, seed %llu "
              "(TCP NewReno, QUIC RFC 9002 CC)\n\n",
              campaign.population.verified_dox, sq.repetitions,
              static_cast<unsigned long long>(campaign.seed));
  std::printf("%-12s %-6s %6s %6s %9s %9s %9s\n", "profile", "proto", "n",
              "fail%", "p50 ms", "p95 ms", "hs p50");
  for (const AdverseProfile& profile : profiles) {
    campaign.access_link = profile.link;
    const auto records = runner::run_single_query_campaign(campaign, sq);
    for (dox::DnsProtocol protocol : protocols) {
      std::vector<double> resolve_ms;
      std::vector<double> handshake_ms;
      std::size_t n = 0;
      std::size_t failures = 0;
      for (const auto& record : records) {
        if (record.protocol != protocol) continue;
        ++n;
        if (!record.success) {
          ++failures;
          continue;
        }
        resolve_ms.push_back(to_ms(record.resolve_time));
        handshake_ms.push_back(to_ms(record.handshake_time));
      }
      const auto p50 = stats::percentile(resolve_ms, 50.0);
      const auto p95 = stats::percentile(resolve_ms, 95.0);
      const auto hs50 = stats::percentile(handshake_ms, 50.0);
      std::printf("%-12s %-6s %6zu %6.1f %9.2f %9.2f %9.2f\n", profile.name,
                  std::string(dox::protocol_name(protocol)).c_str(), n,
                  n ? 100.0 * static_cast<double>(failures) /
                          static_cast<double>(n)
                    : 0.0,
                  p50.value_or(0.0), p95.value_or(0.0), hs50.value_or(0.0));
    }
    for (const auto& record : records) {
      char line[256];
      std::snprintf(line, sizeof(line), "%s,%s,%d,%d,%d,%d,%.3f,%.3f,%.3f\n",
                    profile.name,
                    std::string(dox::protocol_name(record.protocol)).c_str(),
                    record.vp, record.resolver, record.rep,
                    record.success ? 1 : 0, to_ms(record.handshake_time),
                    to_ms(record.resolve_time), to_ms(record.total_time));
      csv += line;
    }
    std::printf("\n");
  }
  const std::string csv_path = flag_value(argc, argv, "--csv", "");
  if (!csv_path.empty()) {
    write_file(csv_path, csv);
    std::printf("raw records -> %s\n", csv_path.c_str());
  }
  return 0;
}

/// `doxperf campaign` — the measurement studies sharded across a
/// work-stealing pool; reports the same tables plus wall-clock timing.
int run_campaign(int argc, char** argv) {
  runner::CampaignConfig campaign;
  campaign.seed = flag_num<std::uint64_t>(argc, argv, "--seed", 42);
  campaign.jobs = flag_int(argc, argv, "--jobs", 1);
  campaign.population.verified_only = true;
  campaign.population.verified_dox = flag_int(argc, argv, "--resolvers", 48);
  if (flag_set(argc, argv, "--0rtt")) {
    campaign.population.force_supports_0rtt = true;
  }
  if (flag_set(argc, argv, "--doh3")) {
    campaign.population.force_supports_doh3 = true;
  }

  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  const std::string protocol_list = flag_value(argc, argv, "--protocols", "");
  if (!protocol_list.empty()) protocols = parse_protocols(protocol_list);

  std::vector<std::string> vp_names;
  for (const net::City& city : net::vantage_point_cities()) {
    vp_names.push_back(city.name);
  }
  const std::string csv_path = flag_value(argc, argv, "--csv", "");
  const auto started = std::chrono::steady_clock::now();
  const auto wall_seconds = [&started] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         started)
        .count();
  };

  if (flag_set(argc, argv, "--web")) {
    WebStudyConfig web;
    web.protocols = protocols;
    web.max_resolvers = std::min<int>(
        campaign.population.verified_dox,
        flag_int(argc, argv, "--resolvers", 48));
    web.loads_per_combo = flag_int(argc, argv, "--loads", 4);
    web.repetitions = flag_int(argc, argv, "--reps", 1);
    web.dot_buggy_reuse = !flag_set(argc, argv, "--fix-dot");
    web.attempt_0rtt = true;
    const std::string pages = flag_value(argc, argv, "--pages", "");
    if (!pages.empty()) web.pages = split(pages, ',');

    auto records = runner::run_web_campaign(campaign, web);
    std::printf("%s", render_fig3(fig3_relative(records)).c_str());
    std::printf("%s",
                render_fig4(fig4_cells(records, vp_names), vp_names).c_str());
    std::printf("campaign: %zu records in %.2f s (--jobs %d)\n",
                records.size(), wall_seconds(), campaign.jobs);
    if (!csv_path.empty()) {
      write_file(csv_path, web_csv(records));
      std::printf("raw records -> %s\n", csv_path.c_str());
    }
    return 0;
  }

  SingleQueryConfig sq;
  sq.protocols = protocols;
  sq.qname = flag_value(argc, argv, "--qname", "google.com");
  sq.repetitions = flag_int(argc, argv, "--reps", 1);
  sq.use_session_resumption = !flag_set(argc, argv, "--no-resumption");
  sq.use_address_token = !flag_set(argc, argv, "--no-token");
  sq.pad_encrypted = flag_set(argc, argv, "--pad");

  auto records = runner::run_single_query_campaign(campaign, sq);
  std::printf("%s\n", render_table1(table1_sizes(records), nullptr).c_str());
  std::printf("%s",
              render_fig2(fig2_handshake_resolve(records, vp_names)).c_str());
  std::printf("%s", render_mix(protocol_mix(records)).c_str());
  std::printf("campaign: %zu records in %.2f s (--jobs %d)\n",
              records.size(), wall_seconds(), campaign.jobs);
  if (!csv_path.empty()) {
    write_file(csv_path, single_query_csv(records));
    std::printf("raw records -> %s\n", csv_path.c_str());
  }
  const std::string failure_csv =
      flag_value(argc, argv, "--failure-csv", "");
  if (!failure_csv.empty()) {
    write_file(failure_csv, failure_rate_csv(records));
    std::printf("failure report -> %s\n", failure_csv.c_str());
  }
  return 0;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  if (flag_set(argc, argv, "--help") || flag_set(argc, argv, "-h")) {
    std::fputs(kUsage, stdout);
    return 0;
  }
  try {
    const std::string mode = argc > 1 ? argv[1] : "";
    if (mode == "engine" || mode == "abuse" || mode == "churn") {
      return run_engine(argc, argv, mode);
    }
    if (argc > 1 && std::strcmp(argv[1], "campaign") == 0) {
      return run_campaign(argc, argv);
    }
    if (argc > 1 && std::strcmp(argv[1], "adverse") == 0) {
      return run_adverse(argc, argv);
    }
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "doxperf: %s\n", e.what());
    return 2;
  }
}

int run(int argc, char** argv) {

  TestbedConfig config;
  config.seed = flag_num<std::uint64_t>(argc, argv, "--seed", 42);
  config.population.verified_only = true;
  config.population.verified_dox = flag_int(argc, argv, "--resolvers", 48);
  if (flag_set(argc, argv, "--0rtt")) {
    config.population.force_supports_0rtt = true;
  }
  if (flag_set(argc, argv, "--doh3")) {
    config.population.force_supports_doh3 = true;
  }

  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  const std::string protocol_list = flag_value(argc, argv, "--protocols", "");
  if (!protocol_list.empty()) protocols = parse_protocols(protocol_list);

  Testbed testbed(config);
  std::vector<std::string> vp_names;
  for (auto& vp : testbed.vantage_points()) vp_names.push_back(vp->name);
  const std::string csv_path = flag_value(argc, argv, "--csv", "");

  if (flag_set(argc, argv, "--web")) {
    WebStudyConfig web;
    web.protocols = protocols;
    web.max_resolvers = config.population.verified_dox;
    web.loads_per_combo = flag_int(argc, argv, "--loads", 4);
    web.dot_buggy_reuse = !flag_set(argc, argv, "--fix-dot");
    web.attempt_0rtt = true;
    const std::string pages = flag_value(argc, argv, "--pages", "");
    if (!pages.empty()) web.pages = split(pages, ',');

    WebStudy study(testbed, web);
    auto records = study.run();
    std::printf("%s", render_fig3(fig3_relative(records)).c_str());
    std::printf("%s",
                render_fig4(fig4_cells(records, vp_names), vp_names).c_str());
    if (!csv_path.empty()) {
      write_file(csv_path, web_csv(records));
      std::printf("raw records -> %s\n", csv_path.c_str());
    }
    return 0;
  }

  SingleQueryConfig sq;
  sq.protocols = protocols;
  sq.qname = flag_value(argc, argv, "--qname", "google.com");
  sq.repetitions = flag_int(argc, argv, "--reps", 1);
  sq.use_session_resumption = !flag_set(argc, argv, "--no-resumption");
  sq.use_address_token = !flag_set(argc, argv, "--no-token");
  sq.pad_encrypted = flag_set(argc, argv, "--pad");

  SingleQueryStudy study(testbed, sq);
  auto records = study.run();

  std::printf("%s\n", render_table1(table1_sizes(records), nullptr).c_str());
  std::printf("%s",
              render_fig2(fig2_handshake_resolve(records, vp_names)).c_str());
  std::printf("%s", render_mix(protocol_mix(records)).c_str());
  if (!csv_path.empty()) {
    write_file(csv_path, single_query_csv(records));
    std::printf("raw records -> %s\n", csv_path.c_str());
  }
  const std::string failure_csv =
      flag_value(argc, argv, "--failure-csv", "");
  if (!failure_csv.empty()) {
    write_file(failure_csv, failure_rate_csv(records));
    std::printf("failure report -> %s\n", failure_csv.c_str());
  }
  return 0;
}
