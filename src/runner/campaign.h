// Parallel campaign executor.
//
// The paper's measurement campaign — 6 vantage points x hundreds of
// resolvers x 5 protocols x many repetitions — is thousands of independent
// simulations. The campaign runner shards that matrix into one task per
// (repetition, vantage point, resolver, protocol) cell, runs each cell in
// its own Testbed/Simulator on a work-stealing thread pool, and merges the
// per-cell records back in schedule order.
//
// Determinism contract: the output is a pure function of the campaign seed
// and config — never of `jobs`. Each cell's testbed is seeded with
// SplitMix64(campaign seed, cell index), and every cell pins its resolver
// population to the campaign seed so all cells measure the identical
// population while their jitter/loss streams differ.
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

/// Runs the single-query study sharded across the pool. `study`'s
/// repetitions/protocols/max_resolvers define the matrix; its sharding
/// filter fields (only_vp/only_resolver/rep_base) are managed per cell and
/// any caller-set values are ignored.
std::vector<measure::SingleQueryRecord> run_single_query_campaign(
    const CampaignConfig& campaign, const measure::SingleQueryConfig& study);

/// Web-study counterpart: pages and loads-per-combo stay inside each cell
/// (they share the cell's proxy warm-up, as in the serial study).
std::vector<measure::WebRecord> run_web_campaign(
    const CampaignConfig& campaign, const measure::WebStudyConfig& study);

}  // namespace doxlab::runner
