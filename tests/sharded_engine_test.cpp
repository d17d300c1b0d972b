// Tests for the sharded forwarder engine (engine/shard.h, engine/sharded.h):
// the offered load must be invariant under the shard count, repeated runs
// must be bit-identical (event-stream digests), the merged result must equal
// the sum of its shards, and the shared L2 must actually carry answers
// across shards.
#include <gtest/gtest.h>

#include "engine/sharded.h"
#include "policy/policy.h"

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

  // Resharding only repartitions the one global schedule.
  EXPECT_EQ(one.total_arrivals, four.total_arrivals);
  EXPECT_EQ(one.load.sent, four.load.sent);
  EXPECT_EQ(one.load.answered, four.load.answered);
  EXPECT_EQ(one.engine.queries, four.engine.queries);
  EXPECT_GT(four.engine.queries, 0u);
  EXPECT_EQ(four.shards.size(), 4u);
}

TEST(ShardedEngine, RunToRunBitIdentical) {
  ShardedConfig config = small_config();
  config.shards = 4;
  const ShardedResult first = run_sharded(config);
  const ShardedResult second = run_sharded(config);

  EXPECT_EQ(first.merged_digest, second.merged_digest);
  ASSERT_EQ(first.shards.size(), second.shards.size());
  for (std::size_t i = 0; i < first.shards.size(); ++i) {
    EXPECT_EQ(first.shards[i].stream_digest, second.shards[i].stream_digest);
    EXPECT_EQ(first.shards[i].events, second.shards[i].events);
    EXPECT_EQ(first.shards[i].arrivals, second.shards[i].arrivals);
  }
  EXPECT_EQ(first.engine.cache_hits, second.engine.cache_hits);
  EXPECT_EQ(first.engine.l2_hits, second.engine.l2_hits);
  EXPECT_EQ(first.load.latency_ms, second.load.latency_ms);
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

  a.add(b);
  EXPECT_EQ(a.queries, 15u);
  EXPECT_EQ(a.cache_hits, 5u);
  EXPECT_EQ(a.l2_hits, 3u);
  EXPECT_EQ(a.l2_lookups, 5u);
  EXPECT_EQ(a.coalesced, 1u);
  EXPECT_EQ(a.servfails_sent, 2u);
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
