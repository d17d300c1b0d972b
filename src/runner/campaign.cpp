#include "runner/campaign.h"

#include <algorithm>
#include <cstddef>
#include <utility>

#include "measure/sampling.h"
#include "util/thread_pool.h"

namespace doxlab::runner {

namespace {

/// One cell of the campaign matrix, in serial schedule order.
struct CellSpec {
  int rep;
  int vp;
  std::size_t resolver;  // population index
  dox::DnsProtocol protocol;
};

/// Enumerates cells in the same rep -> vp -> resolver -> protocol order the
/// serial studies sweep, so merged shards reproduce the serial record order.
template <typename StudyConfig>
std::vector<CellSpec> enumerate_cells(const CampaignConfig& campaign,
                                      const StudyConfig& study) {
  // A prototype testbed (campaign-seeded, like every cell) resolves the
  // vantage-point count and the sampled resolver set.
  measure::TestbedConfig proto_config;
  proto_config.seed = campaign.seed;
  proto_config.population_seed = campaign.seed;
  proto_config.population = campaign.population;
  proto_config.loss_rate = campaign.loss_rate;
  // No access_link on the prototype: it only enumerates the matrix.
  measure::Testbed prototype(proto_config);

  const std::vector<std::size_t> resolvers = measure::sample_resolvers(
      prototype.population().verified, study.max_resolvers);
  const int vp_count = static_cast<int>(prototype.vantage_points().size());

  std::vector<CellSpec> cells;
  cells.reserve(static_cast<std::size_t>(std::max(study.repetitions, 0)) *
                static_cast<std::size_t>(vp_count) * resolvers.size() *
                study.protocols.size());
  for (int rep = 0; rep < study.repetitions; ++rep) {
    for (int vp = 0; vp < vp_count; ++vp) {
      for (std::size_t resolver : resolvers) {
        for (dox::DnsProtocol protocol : study.protocols) {
          cells.push_back(CellSpec{rep, vp, resolver, protocol});
        }
      }
    }
  }
  return cells;
}

/// Testbed config for cell `index`: unique run seed, shared population.
measure::TestbedConfig cell_testbed_config(const CampaignConfig& campaign,
                                           std::size_t index) {
  measure::TestbedConfig config;
  config.seed = derive_run_seed(campaign.seed, index);
  config.population_seed = campaign.seed;
  config.population = campaign.population;
  config.loss_rate = campaign.loss_rate;
  config.access_link = campaign.access_link;
  return config;
}

}  // namespace

std::uint64_t derive_run_seed(std::uint64_t campaign_seed,
                              std::uint64_t run_index) {
  return splitmix64(campaign_seed, run_index);
}

std::vector<measure::SingleQueryRecord> run_single_query_campaign(
    const CampaignConfig& campaign, const measure::SingleQueryConfig& study) {
  const std::vector<CellSpec> cells = enumerate_cells(campaign, study);
  std::vector<std::vector<measure::SingleQueryRecord>> shards(cells.size());

  util::ThreadPool pool(util::ThreadPool::workers_for(campaign.jobs));
  pool.parallel_for(cells.size(), [&](std::size_t index) {
    const CellSpec& cell = cells[index];
    measure::Testbed testbed(cell_testbed_config(campaign, index));

    measure::SingleQueryConfig cell_study = study;
    cell_study.repetitions = 1;
    cell_study.rep_base = cell.rep;
    cell_study.only_vp = cell.vp;
    cell_study.only_resolver = static_cast<int>(cell.resolver);
    cell_study.protocols = {cell.protocol};
    cell_study.max_resolvers = 0;  // only_resolver picks from all verified

    shards[index] = measure::SingleQueryStudy(testbed, cell_study).run();
  });

  std::vector<measure::SingleQueryRecord> merged;
  for (std::vector<measure::SingleQueryRecord>& shard : shards) {
    for (measure::SingleQueryRecord& record : shard) {
      merged.push_back(std::move(record));
    }
  }
  return merged;
}

std::vector<measure::WebRecord> run_web_campaign(
    const CampaignConfig& campaign, const measure::WebStudyConfig& study) {
  const std::vector<CellSpec> cells = enumerate_cells(campaign, study);
  std::vector<std::vector<measure::WebRecord>> shards(cells.size());

  util::ThreadPool pool(util::ThreadPool::workers_for(campaign.jobs));
  pool.parallel_for(cells.size(), [&](std::size_t index) {
    const CellSpec& cell = cells[index];
    measure::Testbed testbed(cell_testbed_config(campaign, index));

    measure::WebStudyConfig cell_study = study;
    cell_study.repetitions = 1;
    cell_study.rep_base = cell.rep;
    cell_study.only_vp = cell.vp;
    cell_study.only_resolver = static_cast<int>(cell.resolver);
    cell_study.protocols = {cell.protocol};
    cell_study.max_resolvers = 0;

    shards[index] = measure::WebStudy(testbed, cell_study).run();
  });

  std::vector<measure::WebRecord> merged;
  for (std::vector<measure::WebRecord>& shard : shards) {
    for (measure::WebRecord& record : shard) {
      merged.push_back(std::move(record));
    }
  }
  return merged;
}

}  // namespace doxlab::runner
