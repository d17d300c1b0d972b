// Study runners: the one-testbed sweep and the parallel campaign executor.
//
// The paper's measurement campaign — 6 vantage points x hundreds of
// resolvers x 5 protocols x many repetitions — is thousands of independent
// simulations. A study's matrix is a list of cells (measure::Cell), walked
// by Testbed::cells; there are two runners over it:
//   * run_sweep measures every cell in order on one testbed, as a study's
//     own run() does;
//   * run_campaign measures cell i on its own testbed i, on a work-stealing
//     thread pool, and merges the per-cell records back in cell order.
//
// Determinism contract: run_campaign's output is a pure function of the
// campaign seed and config — never of `jobs`. Cell i's testbed is seeded
// with SplitMix64(campaign seed, i), and every cell pins its resolver
// population to the campaign seed so all cells measure the identical
// population while their jitter/loss streams differ. The two runners seed
// differently, so their records differ.
#pragma once

#include <cstdint>
#include <vector>

#include "measure/single_query.h"
#include "measure/testbed.h"
#include "measure/web_study.h"

namespace doxlab::runner {

/// SplitMix64 of (campaign seed, run index): well-spread, collision-free
/// per-run seeds from a single campaign seed.
std::uint64_t derive_run_seed(std::uint64_t campaign_seed,
                              std::uint64_t run_index);

struct CampaignConfig {
  std::uint64_t seed = 42;
  /// Threads running cells, the caller included (<= 0: one per hardware
  /// thread); at 1 no thread starts. Never affects output.
  int jobs = 1;
  scan::PopulationConfig population = {.verified_only = true};
  double loss_rate = 0.002;
  /// Optional adverse-path access link for every cell's vantage points
  /// (see TestbedConfig::access_link). Unset keeps the pinned baseline.
  std::optional<net::LinkConfig> access_link;
};

/// Measures every cell of a study (measure::SingleQueryStudy or
/// measure::WebStudy) on its own testbed, on `campaign.jobs` threads.
template <typename Study>
std::vector<typename Study::Record> run_campaign(
    const CampaignConfig& campaign, const typename Study::Config& study);

/// Measures every cell of a study in order on one testbed seeded with
/// `campaign.seed`, whose population comes from that testbed's own stream.
/// Runs on the calling thread; `campaign.jobs` is unused.
template <typename Study>
std::vector<typename Study::Record> run_sweep(
    const CampaignConfig& campaign, const typename Study::Config& study) {
  measure::Testbed testbed({.seed = campaign.seed,
                            .population_seed = std::nullopt,
                            .population = campaign.population,
                            .loss_rate = campaign.loss_rate,
                            .access_link = campaign.access_link});
  return Study(testbed, study).run();
}

/// The campaign of each study, by name.
inline std::vector<measure::SingleQueryRecord> run_single_query_campaign(
    const CampaignConfig& campaign, const measure::SingleQueryConfig& study) {
  return run_campaign<measure::SingleQueryStudy>(campaign, study);
}

inline std::vector<measure::WebRecord> run_web_campaign(
    const CampaignConfig& campaign, const measure::WebStudyConfig& study) {
  return run_campaign<measure::WebStudy>(campaign, study);
}

}  // namespace doxlab::runner
