// Tests for the sharded forwarder engine (engine/shard.h, engine/sharded.h),
// the one engine harness: the offered load must be invariant under the
// shard count, repeated runs must be bit-identical (event-stream digests),
// the merged result must equal the sum of its shards (every metric table
// merging each field by its rule, a restart's gauges from the live world
// only), the shared L2 must actually carry answers across shards, and the
// schedule's attack mixes, churn events, restart and series must hold at
// any shard count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "engine/schedule.h"
#include "engine/sharded.h"
#include "policy/policy.h"
#include "util/thread_pool.h"

namespace doxlab::engine {
namespace {

/// Small-but-busy workload: hot names and a 1 s TTL clamp so shards keep
/// refreshing past warm-up, which is what drives traffic through the L2.
ShardedConfig small_config() {
  ShardedConfig config;
  config.seed = 7;
  config.clients = 5000;
  config.qps = 3000;
  config.duration = 2 * kSecond;
  config.names = 40;
  config.epoch = 50 * kMillisecond;
  config.engine.max_ttl = 1;
  return config;
}

TEST(ShardedEngine, LoadInvariantAcrossShardCounts) {
  ShardedConfig config = small_config();
  config.shards = 1;
  const ShardedResult one = run_sharded(config);
  config.shards = 4;
  const ShardedResult four = run_sharded(config);

  // Resharding only repartitions the one schedule.
  EXPECT_EQ(one.total_arrivals, four.total_arrivals);
  EXPECT_EQ(one.load.sent, four.load.sent);
  EXPECT_EQ(one.load.answered, four.load.answered);
  EXPECT_EQ(one.engine.queries, four.engine.queries);
  EXPECT_GT(four.engine.queries, 0u);
  EXPECT_EQ(four.shards.size(), 4u);
}

TEST(ShardedEngine, RunToRunBitIdentical) {
  // Run to run, and whatever the thread count that draws the schedule,
  // builds the worlds and drives the epochs.
  ShardedConfig config = small_config();
  config.shards = 4;
  const ShardedResult first = run_sharded(config);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    config.threads = threads;
    const ShardedResult second = run_sharded(config);

    EXPECT_EQ(first.merged_digest, second.merged_digest);
    ASSERT_EQ(first.shards.size(), second.shards.size());
    for (std::size_t i = 0; i < first.shards.size(); ++i) {
      EXPECT_EQ(first.shards[i].stream_digest,
                second.shards[i].stream_digest);
      EXPECT_EQ(first.shards[i].outcome_digest,
                second.shards[i].outcome_digest);
      EXPECT_EQ(first.shards[i].events, second.shards[i].events);
      EXPECT_EQ(first.shards[i].arrivals, second.shards[i].arrivals);
    }
    EXPECT_EQ(first.engine.cache_hits, second.engine.cache_hits);
    EXPECT_EQ(first.engine.l2_hits, second.engine.l2_hits);
    EXPECT_EQ(first.load.latency_ms, second.load.latency_ms);
  }
}

TEST(ShardedEngine, PhasesTileTheWall) {
  // Both worlds of a restart charge the same five phases.
  ShardedConfig config = small_config();
  config.shards = 4;
  config.restart_at = kSecond + 130 * kMillisecond;
  const ShardedResult result = run_sharded(config);
  const double phases[] = {result.schedule_ms, result.build_ms,
                           result.epochs_ms, result.teardown_ms,
                           result.merge_ms};
  double sum = 0.0;
  for (const double phase : phases) {
    EXPECT_GE(phase, 0.0);
    sum += phase;
  }
  EXPECT_GT(result.epochs_ms, 0.0);
  // Contiguous laps: the sum is the wall up to the rounding of five adds.
  EXPECT_LE(sum, result.wall_ms * (1.0 + 1e-12));
  EXPECT_GE(sum, result.wall_ms * (1.0 - 1e-12));
}

TEST(ShardedEngine, MergedResultEqualsSumOfShards) {
  ShardedConfig config = small_config();
  config.shards = 4;
  const ShardedResult result = run_sharded(config);

  std::uint64_t queries = 0, hits = 0, sent = 0, answered = 0;
  std::uint64_t arrivals = 0, shed = 0;
  for (const ShardOutcome& shard : result.shards) {
    queries += shard.engine.queries;
    hits += shard.engine.cache_hits;
    sent += shard.load.sent;
    answered += shard.load.answered;
    arrivals += shard.arrivals;
    shed += shard.load.shed;
    // Per shard, every scheduled arrival was either sent or shed.
    EXPECT_EQ(shard.load.sent + shard.load.shed, shard.arrivals);
  }
  EXPECT_EQ(result.engine.queries, queries);
  EXPECT_EQ(result.engine.cache_hits, hits);
  EXPECT_EQ(result.load.sent, sent);
  EXPECT_EQ(result.load.answered, answered);
  EXPECT_EQ(result.total_arrivals, arrivals);
  EXPECT_EQ(result.load.shed, shed);
  // The merged report reconciles with the offered load.
  EXPECT_EQ(result.load.sent + result.load.shed, result.total_arrivals);
  EXPECT_EQ(result.load.latency_ms.size(), result.load.answered);
}

TEST(ShardedEngine, WideClientSpanStillRoutesReplies) {
  // The client prefix route is derived from client_span; a span wider than
  // the old hardcoded /16 must not blackhole replies to the high sources.
  ShardedConfig config = small_config();
  config.shards = 2;
  config.client_span = 1u << 20;
  const ShardedResult result = run_sharded(config);

  EXPECT_GT(result.load.sent, 0u);
  EXPECT_EQ(result.load.timeouts, 0u);  // a blackholed reply times out
  EXPECT_EQ(result.load.answered + result.load.servfails, result.load.sent);
}

TEST(ShardedEngine, SharedL2CarriesAnswersAcrossShards) {
  ShardedConfig config = small_config();
  config.shards = 4;
  const ShardedResult result = run_sharded(config);

  // Shards miss their L1 and find answers other shards resolved.
  EXPECT_GT(result.engine.l2_lookups, 0u);
  EXPECT_GT(result.engine.l2_hits, 0u);
  EXPECT_EQ(result.l2.deferred_inserts, result.l2.applied_inserts);
  EXPECT_EQ(result.l2.lock_misses, 0u);  // epoch-frozen table never contends

  // Disabling the L2 (capacity 0) keeps the engines off that path entirely.
  config.l2_capacity = 0;
  const ShardedResult off = run_sharded(config);
  EXPECT_EQ(off.engine.l2_lookups, 0u);
  EXPECT_EQ(off.engine.l2_hits, 0u);
  EXPECT_EQ(off.load.answered, result.load.answered);
}

TEST(ShardedEngine, ShardOfIsStableAndInRange) {
  ShardedConfig config = small_config();
  config.shards = 8;
  for (std::uint32_t client = 0; client < 200; ++client) {
    const net::IpAddress source = client_source(config, client);
    const std::uint32_t shard = shard_of(config, source);
    EXPECT_LT(shard, config.shards);
    EXPECT_EQ(shard, shard_of(config, source));  // pure function
  }
}

TEST(SwarmClient, QueryImageMatchesMakeQuery) {
  // The swarm sends a stored image with the id patched in; it must be the
  // exact bytes the per-query Message encode produced.
  for (const std::uint32_t name : {0u, 7u, 199u, 99999u}) {
    const std::vector<std::uint8_t> image = swarm_query_image(name);
    const dns::DnsName parsed = dns::DnsName::parse(
        "name" + std::to_string(name) + ".load.example");
    for (const std::uint16_t id : {std::uint16_t{1}, std::uint16_t{0x1234},
                                   std::uint16_t{0xFFFF}}) {
      const util::Buffer query = swarm_query(image, id);
      EXPECT_EQ(std::vector<std::uint8_t>(query.data(),
                                          query.data() + query.size()),
                dns::make_query(id, parsed, dns::RRType::kA).encode())
          << "name " << name << " id " << id;
    }
  }
}

TEST(ShardedEngine, RejectsInvalidConfigNamingTheField) {
  const auto expect_rejected = [](const ShardedConfig& config,
                                  const std::string& field) {
    try {
      run_sharded(config);
      ADD_FAILURE() << "accepted an invalid " << field;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(field), std::string::npos)
          << error.what();
    }
  };
  const ShardedConfig base = small_config();
  ShardedConfig config = base;
  config.names = 0;  // an empty name table
  expect_rejected(config, "names");
  config = base;
  config.clients = 0;  // no client to draw
  expect_rejected(config, "clients");
  config.clients = (std::size_t{1} << 32) + 1;  // wraps Arrival::client
  expect_rejected(config, "clients");
  config = base;
  config.client_span = 0;  // division by zero in client_source
  expect_rejected(config, "client_span");
  config = base;
  config.shards = 0;
  expect_rejected(config, "shards");
  config = base;
  config.churn = {{kSecond, 3, ChurnAction::kOutage}};  // 3 upstreams
  expect_rejected(config, "churn[0].upstream");
  config = base;
  config.attacks = abuse_attacks(100, 100, 100, 0);
  config.attacks[1].source_count = 0;
  expect_rejected(config, "attacks[1].source_count");
  config = base;
  config.restart_at = config.duration;
  expect_rejected(config, "restart_at");
}

// The schedule is the one load generator: legit arrivals, client
// addressing and the attack mixes all come from it.

TEST(LoadGenerator, DeterministicFromSeed) {
  auto run = [](std::uint64_t seed) {
    ShardedConfig config;
    config.seed = seed;
    config.clients = 50;
    config.qps = 200;
    config.duration = 2 * kSecond;
    config.names = 20;
    return run_sharded(config);
  };
  const ShardedResult a = run(11);
  const ShardedResult b = run(11);
  const ShardedResult c = run(12);
  EXPECT_EQ(a.load.sent, b.load.sent);
  EXPECT_EQ(a.load.answered, b.load.answered);
  EXPECT_EQ(a.engine.upstream_resolves, b.engine.upstream_resolves);
  EXPECT_EQ(a.load.latency_ms, b.load.latency_ms);
  EXPECT_EQ(a.merged_digest, b.merged_digest);
  EXPECT_EQ(a.shards[0].events, b.shards[0].events);
  EXPECT_NE(a.load.latency_ms, c.load.latency_ms);  // seed matters
}

TEST(LoadGenerator, ClientSourceAddressesDeterministicFromSeed) {
  // Per-client sources are a pure function of (seed, index): two configs
  // with the same seed agree address-for-address, a different seed
  // reshuffles, and every address stays inside the configured span.
  auto sources = [](std::uint64_t seed) {
    ShardedConfig config;
    config.seed = seed;
    std::vector<net::IpAddress> out;
    for (std::uint32_t i = 0; i < 32; ++i) {
      out.push_back(client_source(config, i));
    }
    return out;
  };
  const auto a = sources(42);
  const auto b = sources(42);
  const auto c = sources(43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  const policy::Netmask span = policy::Netmask::parse("10.50.0.0/16");
  for (const auto& address : a) EXPECT_TRUE(span.contains(address));
}

TEST(LoadGenerator, AbuseScenarioShedsAttacksWithoutPerturbingLegitLoad) {
  std::vector<std::uint64_t> attack_sent_at_one_shard;
  for (const std::uint32_t shards : {1u, 4u}) {
    SCOPED_TRACE("shards " + std::to_string(shards));
    ShardedConfig config;
    config.shards = shards;
    config.clients = 100;
    config.qps = 400;
    // Neither the window's end nor the attacks' start is a chunk edge.
    config.duration = 5 * kSecond + 130 * kMillisecond;
    config.names = 50;
    config.attacks =
        abuse_attacks(400, 200, 150, kSecond + 110 * kMillisecond + 7);
    config.engine.policy = abuse_chain(100);

    // Baseline: the same world with the attacks silenced. The attack
    // entries come from their own lanes, so the legit entries are the
    // same entry for entry (same arrivals, same sends); the tail must stay
    // within the 10% band the bench gates on.
    ShardedConfig baseline = config;
    for (AttackConfig& attack : baseline.attacks) attack.qps = 0.0;

    const ShardedResult quiet = run_sharded(baseline);
    const ShardedResult attacked = run_sharded(config);
    EXPECT_EQ(quiet.total_arrivals, attacked.total_arrivals);
    EXPECT_EQ(quiet.load.sent, attacked.load.sent);
    EXPECT_EQ(quiet.load.latency_ms.size(), attacked.load.latency_ms.size());
    // The legit ledger closes: attack entries never enter it.
    EXPECT_EQ(attacked.load.sent + attacked.load.shed,
              attacked.total_arrivals);
    EXPECT_TRUE(attacked.load.complete());
    EXPECT_EQ(attacked.load.timeouts, 0u);
    EXPECT_LE(attacked.load.latency_summary().p99,
              1.10 * quiet.load.latency_summary().p99);

    // All three attack families fired and were shed at the policy chain,
    // and every rule matched something.
    ASSERT_EQ(attacked.attacks.size(), 3u);
    std::vector<std::uint64_t> attack_sent;
    std::uint64_t sent = 0;
    for (const auto& attack : attacked.attacks) {
      EXPECT_GT(attack.sent, 0u) << attack_kind_name(attack.kind);
      attack_sent.push_back(attack.sent);
      sent += attack.sent;
    }
    EXPECT_GE(attacked.attack_shed_rate(), 0.95);
    const EngineStats& stats = attacked.engine;
    EXPECT_EQ(stats.queries, attacked.load.sent + sent);
    EXPECT_EQ(stats.policy_evaluations, stats.queries);
    EXPECT_GT(stats.policy_refused, 0u);
    EXPECT_GT(stats.policy_dropped, 0u);
    EXPECT_EQ(stats.policy_errors.count(util::ErrorClass::kRcode),
              stats.policy_refused);
    EXPECT_EQ(stats.policy_errors.count(util::ErrorClass::kCancelled),
              stats.policy_dropped);
    ASSERT_EQ(stats.policy_rules.size(), 5u);
    for (const auto& rule : stats.policy_rules) {
      EXPECT_GT(rule.matches, 0u) << rule.name;
    }
    // The attack traffic does not depend on the shard count either.
    if (shards == 1) {
      attack_sent_at_one_shard = attack_sent;
    } else {
      EXPECT_EQ(attack_sent, attack_sent_at_one_shard);
    }
  }
}

TEST(LoadGenerator, AllQueriesAccountedFor) {
  ShardedConfig config;
  config.clients = 100;
  config.qps = 500;
  config.duration = 4 * kSecond;
  const ShardedResult result = run_sharded(config);
  EXPECT_GT(result.load.sent, 1000u);
  EXPECT_EQ(result.load.sent + result.load.shed, result.total_arrivals);
  EXPECT_TRUE(result.load.complete());
  EXPECT_EQ(result.load.servfails, 0u);
  EXPECT_EQ(result.load.timeouts, 0u);
  EXPECT_EQ(result.load.sent, result.engine.queries);
}

// The schedule itself (engine/schedule.h), drawn without running worlds.

/// Every shard's slice of [from, to), drawn on a pool of `threads`.
std::vector<std::vector<Arrival>> draw(const ShardedConfig& config,
                                       SimTime from, SimTime to,
                                       int threads = 2) {
  util::ThreadPool pool(threads);
  std::uint64_t legit = 0;
  std::vector<std::vector<Arrival>> slices =
      draw_schedule(config, from, to, pool, legit);
  std::uint64_t counted = 0;
  for (const auto& slice : slices) {
    counted += static_cast<std::uint64_t>(
        std::count_if(slice.begin(), slice.end(),
                      [](const Arrival& a) { return !(a.name & kAttackTag); }));
  }
  EXPECT_EQ(legit, counted);
  return slices;
}

using Entry = std::tuple<SimTime, std::uint32_t, std::uint32_t>;

/// A slice's entries as comparable tuples, optionally legit ones only.
std::vector<Entry> entries(const std::vector<Arrival>& slice,
                           bool legit_only = false) {
  std::vector<Entry> out;
  for (const Arrival& a : slice) {
    if (legit_only && (a.name & kAttackTag)) continue;
    out.emplace_back(a.at, a.client, a.name);
  }
  return out;
}

TEST(Schedule, DrawsTheConfiguredProcess) {
  // Arrival counts within 4 sigma of qps x duration (no bias from storing
  // whole microseconds, even at 1 us mean gaps), a Zipf-1 rank-1 share of
  // 1/H_200 and clients uniform by chi-square.
  double harmonic = 0.0;
  for (int rank = 1; rank <= 200; ++rank) harmonic += 1.0 / rank;
  struct Case {
    double qps;
    SimTime duration;
  };
  for (const Case c : {Case{3'000, 10 * kSecond}, Case{50'000, 2 * kSecond},
                       Case{1'000'000, kSecond / 2}}) {
    SCOPED_TRACE("qps " + std::to_string(c.qps));
    ShardedConfig config;
    config.qps = c.qps;
    config.duration = c.duration;
    config.names = 200;
    config.clients = 100;
    const std::vector<Arrival> arrivals = draw(config, 0, c.duration)[0];
    const double n = static_cast<double>(arrivals.size());
    const double expected = c.qps * static_cast<double>(c.duration) / kSecond;
    EXPECT_NEAR(n, expected, 4.0 * std::sqrt(expected));
    ASSERT_FALSE(arrivals.empty());
    EXPECT_TRUE(std::is_sorted(
        arrivals.begin(), arrivals.end(),
        [](const Arrival& a, const Arrival& b) { return a.at < b.at; }));
    EXPECT_GE(arrivals.front().at, 0);
    EXPECT_LT(arrivals.back().at, c.duration);

    std::vector<double> per_client(config.clients, 0.0);
    double top = 0.0;
    for (const Arrival& a : arrivals) {
      ASSERT_LT(a.client, config.clients);
      ASSERT_LT(a.name, config.names);
      per_client[a.client] += 1.0;
      if (a.name == 0) top += 1.0;
    }
    const double p = 1.0 / harmonic;  // ~0.170
    EXPECT_NEAR(top / n, p, 4.0 * std::sqrt(p * (1.0 - p) / n));
    const double each = n / static_cast<double>(config.clients);
    double chi2 = 0.0;
    for (const double count : per_client) {
      chi2 += (count - each) * (count - each) / each;
    }
    const double dof = static_cast<double>(config.clients - 1);
    EXPECT_LT(chi2, dof + 4.0 * std::sqrt(2.0 * dof));
  }
}

TEST(Schedule, OneStreamWhateverTheCutShardsAndThreads) {
  ShardedConfig config;
  config.shards = 4;
  config.clients = 5000;
  config.qps = 3000;
  config.names = 50;
  // Neither the window's end, the attacks' start nor the cut is a chunk
  // edge.
  config.duration = 2 * kSecond + 130 * kMillisecond + 17;
  config.attacks = abuse_attacks(900, 600, 300, 610 * kMillisecond + 3);
  const SimTime cut = kSecond + 370 * kMillisecond + 11;
  const std::vector<std::vector<Arrival>> slices =
      draw(config, 0, config.duration, 4);

  // Neither the thread count nor a cut moves an entry.
  const auto one_thread = draw(config, 0, config.duration, 1);
  const auto before = draw(config, 0, cut);
  const auto after = draw(config, cut, config.duration);
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    SCOPED_TRACE("shard " + std::to_string(s));
    EXPECT_FALSE(slices[s].empty());
    EXPECT_EQ(entries(one_thread[s]), entries(slices[s]));
    std::vector<Entry> joined = entries(before[s]);
    for (const Entry& e : entries(after[s])) joined.push_back(e);
    EXPECT_EQ(joined, entries(slices[s]));
  }

  // The shard count only partitions one stream, which is in time order
  // with legit entries first, then attacks in config order, on ties.
  ShardedConfig one = config;
  one.shards = 1;
  const std::vector<Arrival> stream = draw(one, 0, one.duration)[0];
  const auto lane = [](const Arrival& a) {
    return (a.name & kAttackTag) ? 1 + (a.name & ~kAttackTag) : 0u;
  };
  std::vector<std::vector<Entry>> split(config.shards);
  std::vector<std::uint64_t> per_lane(1 + config.attacks.size(), 0);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Arrival& a = stream[i];
    const net::IpAddress source = (a.name & kAttackTag)
                                      ? net::IpAddress(a.client)
                                      : client_source(config, a.client);
    split[shard_of(config, source)].emplace_back(a.at, a.client, a.name);
    ++per_lane[lane(a)];
    if (lane(a) > 0) {
      EXPECT_GE(a.at, config.attacks[lane(a) - 1].start);
    }
    if (i > 0) {
      ASSERT_LE(stream[i - 1].at, a.at);
      if (stream[i - 1].at == a.at) {
        EXPECT_LE(lane(stream[i - 1]), lane(a));
      }
    }
  }
  for (const std::uint64_t count : per_lane) EXPECT_GT(count, 0u);
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    EXPECT_EQ(split[s], entries(slices[s])) << "shard " << s;
  }

  // Silencing the attacks leaves every legit entry as it was.
  ShardedConfig quiet = config;
  for (AttackConfig& attack : quiet.attacks) attack.qps = 0.0;
  const auto quiet_slices = draw(quiet, 0, quiet.duration);
  for (std::uint32_t s = 0; s < config.shards; ++s) {
    EXPECT_EQ(entries(slices[s], /*legit_only=*/true),
              entries(quiet_slices[s]))
        << "shard " << s;
  }
}

/// Four shards under the four kinds of churn, with a 1 s series.
ShardedConfig churn_config() {
  ShardedConfig config;
  config.shards = 4;
  config.clients = 20;
  config.qps = 100.0;
  config.duration = 4 * kSecond;
  config.names = 20;
  config.series_bucket = kSecond;
  config.churn = {{kSecond, 0, ChurnAction::kOutage},
                  {2 * kSecond, 0, ChurnAction::kRecover},
                  {2 * kSecond, 1, ChurnAction::kWithdraw},
                  {3 * kSecond, 1, ChurnAction::kAnnounce}};
  return config;
}

TEST(ChurnCampaign, BucketAccountingIsExhaustive) {
  const ShardedConfig config = churn_config();
  const ShardedResult result = run_sharded(config);

  // Every shard applied every event; each is counted once.
  EXPECT_EQ(result.events_executed, 4u);
  EXPECT_TRUE(result.load.complete());
  EXPECT_GT(result.load.sent, 0u);
  ASSERT_FALSE(result.series.empty());
  std::uint64_t sent = 0, answered = 0, servfails = 0, timeouts = 0;
  std::size_t samples = 0;
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    const SeriesBucket& bucket = result.series[i];
    EXPECT_EQ(bucket.start, static_cast<SimTime>(i) * kSecond);
    EXPECT_EQ(bucket.latency_ms.size(), bucket.answered);
    sent += bucket.sent();
    answered += bucket.answered;
    servfails += bucket.servfails;
    timeouts += bucket.timeouts;
    samples += bucket.latency_ms.size();
  }
  // Every sent query reached exactly one bucket, by its terminal outcome.
  EXPECT_EQ(sent, result.load.sent);
  EXPECT_EQ(answered, result.load.answered);
  EXPECT_EQ(servfails, result.load.servfails);
  EXPECT_EQ(timeouts, result.load.timeouts);
  EXPECT_EQ(samples, result.load.latency_ms.size());

  // Determinism: the same config reproduces the same series.
  const ShardedResult again = run_sharded(config);
  ASSERT_EQ(again.series.size(), result.series.size());
  for (std::size_t i = 0; i < result.series.size(); ++i) {
    EXPECT_EQ(again.series[i].answered, result.series[i].answered);
    EXPECT_EQ(again.series[i].latency_ms, result.series[i].latency_ms);
  }
}

TEST(ChurnCampaign, EventsFireAtExactTimesWhateverTheEpoch) {
  // Events are scheduled on each shard's simulator, not applied at epoch
  // barriers, so without the L2 (whose inserts land at barriers) the event
  // streams and outcomes are the same for any epoch length.
  ShardedConfig config = churn_config();
  config.l2_capacity = 0;
  const ShardedResult coarse = run_sharded(config);
  config.epoch = 37 * kMillisecond;
  const ShardedResult fine = run_sharded(config);
  EXPECT_NE(coarse.epochs, fine.epochs);
  EXPECT_EQ(coarse.merged_digest, fine.merged_digest);
  EXPECT_EQ(coarse.outcome_digest, fine.outcome_digest);
  EXPECT_EQ(fine.events_executed, 4u);
}

TEST(ChurnCampaign, RestartWarmStartsFromSnapshot) {
  const std::string dir = ::testing::TempDir() + "sharded_restart_snapdir";
  std::filesystem::remove_all(dir);
  ShardedConfig config;
  config.shards = 2;
  config.clients = 30;
  config.qps = 150.0;
  config.duration = 5 * kSecond;
  config.names = 25;
  config.restart_at = 3 * kSecond;
  config.engine.snapshot_dir = dir;
  const ShardedResult result = run_sharded(config);

  // Every rebuilt shard replayed the log its predecessor wrote.
  EXPECT_GT(result.engine.snapshot_warm_loaded, 0u);
  EXPECT_EQ(result.load.sent + result.load.shed, result.total_arrivals);
  EXPECT_TRUE(result.load.complete());
  // The pre-restart windows were probed in ascending order.
  EXPECT_GE(result.pre_restart.queries, result.pre_window_start.queries);
  EXPECT_GT(result.pre_restart.queries, 0u);
  EXPECT_GT(result.post_first_epoch.queries, 0u);
  // Warm start: the rebuilt engines answered from their promoted tiers far
  // more often than they resolved upstream.
  EXPECT_LT(result.post_first_epoch.upstream_resolves,
            result.post_first_epoch.queries / 2);
  std::filesystem::remove_all(dir);
}

TEST(EngineStats, AddSumsCounters) {
  EngineStats a;
  a.queries = 10;
  a.cache_hits = 4;
  a.l2_hits = 2;
  a.l2_lookups = 3;
  a.coalesced = 1;
  EngineStats b;
  b.queries = 5;
  b.cache_hits = 1;
  b.l2_hits = 1;
  b.l2_lookups = 2;
  b.servfails_sent = 2;

  a.add(b, stats::Across::kShards);
  EXPECT_EQ(a.queries, 15u);
  EXPECT_EQ(a.cache_hits, 5u);
  EXPECT_EQ(a.l2_hits, 3u);
  EXPECT_EQ(a.l2_lookups, 5u);
  EXPECT_EQ(a.coalesced, 1u);
  EXPECT_EQ(a.servfails_sent, 2u);
}

TEST(ShardedEngine, RestartMergeCountsEachWorldOnce) {
  ShardedConfig config = small_config();
  config.shards = 2;
  config.duration = 4 * kSecond;
  config.names = 200;
  config.restart_at = 2 * kSecond + 130 * kMillisecond;  // mid-chunk
  const ShardedResult result = run_sharded(config);

  // The ledger closes across the cut: each arrival ran in one world.
  EXPECT_EQ(result.load.sent + result.load.shed, result.total_arrivals);
  EXPECT_TRUE(result.load.complete());
  const ShardedResult whole = [config]() mutable {
    config.restart_at = 0;
    return run_sharded(config);
  }();
  EXPECT_EQ(result.total_arrivals, whole.total_arrivals);

  // Occupancy is the live world's: a shard's L1 never holds more names
  // than there are.
  std::uint64_t l2_hits = 0, l2_lookups = 0, arrivals = 0;
  for (std::size_t i = 0; i < result.shards.size(); ++i) {
    const ShardOutcome& shard = result.shards[i];
    arrivals += shard.arrivals;
    EXPECT_EQ(shard.arrivals, whole.shards[i].arrivals);
    EXPECT_LE(shard.engine.l1_entries, config.names);
    EXPECT_GT(shard.engine.l1_entries, 0u);
    l2_hits += shard.engine.l2_hits;
    l2_lookups += shard.engine.l2_lookups;
  }
  EXPECT_EQ(arrivals, result.total_arrivals);
  // The L2's own counters span both worlds, like the engines' view of it.
  EXPECT_GT(result.l2.hits, 0u);
  EXPECT_EQ(result.l2.hits, l2_hits);
  EXPECT_EQ(result.l2.hits + result.l2.misses, l2_lookups);
  EXPECT_EQ(result.l2.deferred_inserts, result.l2.applied_inserts);
}

/// Merges `from` into `into` the way the runner merges T.
template <typename T>
void merge_like_runner(T& into, const T& from, stats::Across across) {
  if constexpr (requires { into.add(from, across); }) {
    into.add(from, across);
  } else {
    stats::merge(into, from, across);
  }
}

/// Checks T's table: every u64 of T is a row (T's other members take
/// `other_bytes`), names are unique, each row's rule is the expected one
/// (`non_sum` lists every row that is not kSum), and a merge across shards
/// and across a restart combines every field by that rule.
template <typename T>
void check_table(
    std::size_t other_bytes,
    const std::vector<std::pair<std::string_view, stats::Merge>>& non_sum) {
  EXPECT_EQ(sizeof(T),
            T::metrics().size() * sizeof(std::uint64_t) + other_bytes);
  for (const auto& [name, rule] : non_sum) {
    EXPECT_NE(stats::find<T>(name), nullptr) << name;
  }
  std::set<std::string_view> names;
  T low;
  T high;
  std::uint64_t i = 0;
  for (const stats::Metric<T>& metric : T::metrics()) {
    EXPECT_TRUE(names.insert(metric.name).second) << metric.name;
    stats::Merge expected = stats::Merge::kSum;
    for (const auto& [name, rule] : non_sum) {
      if (name == metric.name) expected = rule;
    }
    EXPECT_EQ(metric.rule, expected) << metric.name;
    low.*metric.field = 10 + 3 * i;
    high.*metric.field = 1000 + 7 * i;
    ++i;
  }
  for (const stats::Across across :
       {stats::Across::kShards, stats::Across::kRestart}) {
    for (const bool low_first : {true, false}) {
      const T& a = low_first ? low : high;
      const T& b = low_first ? high : low;
      T into = a;
      merge_like_runner(into, b, across);
      for (const stats::Metric<T>& metric : T::metrics()) {
        const std::uint64_t x = a.*metric.field;
        const std::uint64_t y = b.*metric.field;
        std::uint64_t want = x + y;
        if (metric.rule == stats::Merge::kMax) want = std::max(x, y);
        if (metric.rule == stats::Merge::kGauge &&
            across == stats::Across::kRestart) {
          want = y;
        }
        EXPECT_EQ(into.*metric.field, want)
            << metric.name << (across == stats::Across::kShards
                                   ? " across shards"
                                   : " across a restart");
      }
    }
  }
}

TEST(MetricTables, EveryFieldMergesByItsRule) {
  using stats::Merge;
  check_table<EngineStats>(2 * sizeof(util::ErrorCounters) +
                               sizeof(std::vector<UpstreamHealth>) +
                               sizeof(std::vector<policy::RuleStats>),
                           {{"l1_entries", Merge::kGauge},
                            {"l1_bytes", Merge::kGauge},
                            {"snapshot_entries", Merge::kGauge},
                            {"snapshot_bytes", Merge::kGauge},
                            {"link_queue_peak", Merge::kMax}});
  check_table<LoadReport>(sizeof(std::vector<double>), {});
  check_table<dns::SharedPacketCache::Stats>(
      0, {{"size", Merge::kGauge}, {"bytes", Merge::kGauge}});
  check_table<AttackReport>(alignof(std::uint64_t), {});  // kind, padded
  check_table<SeriesBucket>(sizeof(SimTime) + sizeof(std::vector<double>),
                            {});
}

TEST(ScaleRateLimits, SlicesCoarseBudgetsExactlyAcrossShards) {
  policy::ChainConfig chain;
  policy::RuleConfig limit;
  limit.name = "shed";
  limit.matcher = policy::MatcherKind::kRateLimit;
  limit.rate_qps = 100;
  limit.burst = 10;
  limit.subnet_prefix_len = 24;  // coarser than the /32 shard hash
  limit.action = policy::ActionKind::kDrop;
  policy::RuleConfig other;
  other.name = "pass";
  other.matcher = policy::MatcherKind::kAny;
  chain.rules = {limit, other};

  // The per-shard slices must sum exactly to the configured budget — the
  // aggregate a /24's clients see when spread across every shard.
  std::uint32_t total_rate = 0, total_burst = 0;
  for (std::uint32_t i = 0; i < 4; ++i) {
    const policy::ChainConfig split = policy::scale_rate_limits(chain, 4, i);
    EXPECT_EQ(split.rules[0].rate_qps, 25u);
    EXPECT_EQ(split.rules[1].rate_qps, 0u);  // non-limit rules untouched
    total_rate += split.rules[0].rate_qps;
    total_burst += split.rules[0].burst;
  }
  EXPECT_EQ(total_rate, 100u);
  EXPECT_EQ(total_burst, 10u);

  // More shards than qps: remainder distribution, no min-1 floor blowing
  // the aggregate up to one qps *per shard* — zero-share shards keep a
  // refill-free bucket (burst tokens only).
  std::uint32_t sparse_rate = 0;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    const policy::ChainConfig slice =
        policy::scale_rate_limits(chain, 1000, i);
    sparse_rate += slice.rules[0].rate_qps;
    EXPECT_GE(slice.rules[0].burst, 1u);  // limiter stays constructible
  }
  EXPECT_EQ(sparse_rate, 100u);

  // Single shard: unchanged.
  const policy::ChainConfig same = policy::scale_rate_limits(chain, 1, 0);
  EXPECT_EQ(same.rules[0].rate_qps, 100u);
  EXPECT_EQ(same.rules[0].burst, 10u);
}

TEST(ScaleRateLimits, AddressKeyedBudgetsAreNotDivided) {
  // Shards are source-hashed on the full /32 address, so a /32-keyed
  // bucket's traffic lands wholly on one shard: slicing its budget would
  // enforce rate/N — N times stricter than configured. The full budget
  // must survive on every shard.
  policy::ChainConfig chain;
  policy::RuleConfig limit;
  limit.matcher = policy::MatcherKind::kRateLimit;
  limit.rate_qps = 100;
  limit.burst = 10;
  limit.subnet_prefix_len = 32;
  limit.action = policy::ActionKind::kDrop;
  chain.rules = {limit};

  for (std::uint32_t i = 0; i < 8; ++i) {
    const policy::ChainConfig split = policy::scale_rate_limits(chain, 8, i);
    EXPECT_EQ(split.rules[0].rate_qps, 100u);
    EXPECT_EQ(split.rules[0].burst, 10u);
  }
}

}  // namespace
}  // namespace doxlab::engine
