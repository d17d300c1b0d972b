#include "runner/campaign.h"

#include <algorithm>
#include <iterator>

#include "util/thread_pool.h"

namespace doxlab::runner {

std::uint64_t derive_run_seed(std::uint64_t campaign_seed,
                              std::uint64_t run_index) {
  return splitmix64(campaign_seed, run_index);
}

template <typename Study>
std::vector<typename Study::Record> run_campaign(
    const CampaignConfig& campaign, const typename Study::Config& study) {
  const auto testbed_config = [&campaign](std::uint64_t seed) {
    return measure::TestbedConfig{.seed = seed,
                                  .population_seed = campaign.seed,
                                  .population = campaign.population,
                                  .loss_rate = campaign.loss_rate,
                                  .access_link = campaign.access_link};
  };
  // Every testbed draws the same population, so a prototype's cells name
  // the same resolvers on each cell's testbed.
  const std::vector<measure::Cell> cells = [&] {
    measure::Testbed prototype(testbed_config(campaign.seed));
    return Study(prototype, study).cells();
  }();

  std::vector<std::vector<typename Study::Record>> shards(cells.size());
  util::ThreadPool pool(util::ThreadPool::workers_for(campaign.jobs));
  pool.parallel_for(cells.size(), [&](std::size_t index) {
    measure::Testbed testbed(
        testbed_config(derive_run_seed(campaign.seed, index)));
    Study(testbed, study).measure(cells[index], shards[index]);
  });

  std::vector<typename Study::Record> merged;
  for (auto& shard : shards) {
    std::move(shard.begin(), shard.end(), std::back_inserter(merged));
  }
  return merged;
}

template std::vector<measure::SingleQueryRecord>
run_campaign<measure::SingleQueryStudy>(const CampaignConfig&,
                                        const measure::SingleQueryConfig&);
template std::vector<measure::WebRecord> run_campaign<measure::WebStudy>(
    const CampaignConfig&, const measure::WebStudyConfig&);

}  // namespace doxlab::runner
