// Unit tests for the campaign runner: thread-pool correctness (coverage,
// exceptions, stealing) and the determinism contract — a campaign's output
// is a pure function of the seed/config, never of --jobs.
#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include "measure/csv.h"
#include "runner/campaign.h"
#include "util/thread_pool.h"

namespace doxlab::runner {
namespace {

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.parallel_for(kCount,
                    [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPool, SingleThreadStillCompletes) {
  util::ThreadPool pool(1);
  std::atomic<int> sum{0};
  pool.parallel_for(100, [&](std::size_t i) {
    sum.fetch_add(static_cast<int>(i));
  });
  EXPECT_EQ(sum.load(), 4950);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  util::ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 5; ++batch) {
    pool.parallel_for(20, [&](std::size_t) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, PropagatesFirstException) {
  util::ThreadPool pool(4);
  std::atomic<int> completed{0};
  EXPECT_THROW(
      pool.parallel_for(64,
                        [&](std::size_t i) {
                          if (i == 13) throw std::runtime_error("cell 13");
                          completed.fetch_add(1);
                        }),
      std::runtime_error);
  // Every non-throwing task still ran before the rethrow.
  EXPECT_EQ(completed.load(), 63);
}

TEST(ThreadPool, CallerParticipatesInDraining) {
  // One worker + the participating caller = two executors. Two tasks that
  // each wait for the other to start can only both finish if the calling
  // thread really drains a task instead of idling on the completion CV —
  // with a caller that only waits, this test would hang.
  util::ThreadPool pool(1);
  std::atomic<int> arrived{0};
  pool.parallel_for(2, [&](std::size_t) {
    arrived.fetch_add(1);
    while (arrived.load() < 2) std::this_thread::yield();
  });
  EXPECT_EQ(arrived.load(), 2);
}

TEST(ThreadPool, ShortBatchesThenDestroy) {
  // Each batch lives on parallel_for's stack. A worker finishing the last
  // task must be done with it before the caller can return, or this loop of
  // tiny batches and pool teardowns corrupts the stack or hangs in join.
  std::atomic<int> ran{0};
  constexpr int kCycles = 2000;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    util::ThreadPool pool(4);
    pool.parallel_for(4, [&](std::size_t) { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 4 * kCycles);
}

TEST(ThreadPool, ZeroCountIsNoop) {
  util::ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, ZeroWorkersRunEveryTaskInlineInIndexOrder) {
  // A run on one thread: no worker starts, the caller runs every task in
  // index order, and the first exception still comes after all of them.
  EXPECT_EQ(util::ThreadPool::workers_for(1), 0u);
  EXPECT_EQ(util::ThreadPool::workers_for(4), 3u);
  util::ThreadPool pool(0);
  EXPECT_EQ(pool.thread_count(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  EXPECT_THROW(pool.parallel_for(8,
                                 [&](std::size_t i) {
                                   EXPECT_EQ(std::this_thread::get_id(),
                                             caller);
                                   order.push_back(i);
                                   if (i == 2 || i == 5) {
                                     throw std::runtime_error("task");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(CampaignSeed, DerivedSeedsAreDistinct) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10000; ++i) {
    seen.insert(derive_run_seed(42, i));
  }
  EXPECT_EQ(seen.size(), 10000u);
  // Different campaign seeds diverge too.
  EXPECT_NE(derive_run_seed(1, 0), derive_run_seed(2, 0));
}

measure::SingleQueryConfig small_query_config() {
  measure::SingleQueryConfig config;
  config.repetitions = 2;
  config.max_resolvers = 4;
  config.protocols = {dox::DnsProtocol::kDoUdp, dox::DnsProtocol::kDoQ};
  return config;
}

TEST(Campaign, SingleQueryParallelMatchesSerial) {
  CampaignConfig campaign;
  campaign.seed = 7;
  campaign.population.verified_dox = 8;

  campaign.jobs = 1;
  const auto serial = run_single_query_campaign(campaign, small_query_config());
  campaign.jobs = 8;
  const auto parallel =
      run_single_query_campaign(campaign, small_query_config());

  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(measure::single_query_csv(serial),
            measure::single_query_csv(parallel));
}

TEST(Campaign, SingleQuerySeedChangesOutput) {
  CampaignConfig campaign;
  campaign.population.verified_dox = 8;
  campaign.seed = 7;
  const auto a = run_single_query_campaign(campaign, small_query_config());
  campaign.seed = 8;
  const auto b = run_single_query_campaign(campaign, small_query_config());
  EXPECT_NE(measure::single_query_csv(a), measure::single_query_csv(b));
}

TEST(Campaign, RecordsFollowTheCellWalk) {
  // One record per single-query cell, merged in the walk's order, read off
  // a testbed that draws the campaign's population.
  CampaignConfig campaign;
  campaign.seed = 7;
  campaign.population.verified_dox = 8;
  campaign.jobs = 4;
  const auto records =
      run_single_query_campaign(campaign, small_query_config());

  measure::TestbedConfig config;
  config.population_seed = campaign.seed;
  config.population = campaign.population;
  measure::Testbed prototype(config);
  const auto cells =
      measure::SingleQueryStudy(prototype, small_query_config()).cells();
  ASSERT_EQ(records.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ((measure::Cell{records[i].rep, records[i].vp,
                             static_cast<std::size_t>(records[i].resolver),
                             records[i].protocol}),
              cells[i])
        << "record " << i;
  }
}

TEST(Campaign, WebParallelMatchesSerial) {
  CampaignConfig campaign;
  campaign.seed = 11;
  campaign.population.verified_dox = 6;

  measure::WebStudyConfig web;
  web.max_resolvers = 2;
  web.loads_per_combo = 1;
  web.pages = {"wikipedia.org"};
  web.protocols = {dox::DnsProtocol::kDoUdp, dox::DnsProtocol::kDoQ};

  campaign.jobs = 1;
  const auto serial = run_web_campaign(campaign, web);
  campaign.jobs = 4;
  const auto parallel = run_web_campaign(campaign, web);

  ASSERT_FALSE(serial.empty());
  ASSERT_EQ(serial.size(), parallel.size());
  EXPECT_EQ(measure::web_csv(serial), measure::web_csv(parallel));
}

}  // namespace
}  // namespace doxlab::runner
