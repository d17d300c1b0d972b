// Reproduces **Fig. 3** of the paper: CDFs of the relative differences in
// First Contentful Paint (a) and Page Load Time (b) between the encrypted
// protocols (and DoTCP) and the DoUDP baseline, across the top-10 pages.
//
// Usage: fig3_web_cdf [--resolvers=N] [--loads=N] [--full] [--csv]
//        [--jobs=N]  (shard over a thread pool via the campaign runner;
//                     output depends only on the seed, not on N)
#include <cstdio>

#include "bench_util.h"
#include "measure/csv.h"
#include "measure/report.h"
#include "measure/web_study.h"
#include "runner/campaign.h"

using namespace doxlab;
using namespace doxlab::measure;

int main(int argc, char** argv) {
  const bool full = bench::flag_set(argc, argv, "--full");

  WebStudyConfig web_config;
  web_config.max_resolvers =
      bench::flag_int(argc, argv, "--resolvers", full ? 0 : 12);
  web_config.loads_per_combo = bench::flag_int(argc, argv, "--loads", 4);

  runner::CampaignConfig campaign;
  campaign.jobs = bench::flag_int(argc, argv, "--jobs", -1);
  campaign.population.verified_only = true;
  campaign.population.verified_dox = full ? 313 : 60;
  const auto records =
      campaign.jobs >= 0 ? runner::run_campaign<WebStudy>(campaign, web_config)
                         : runner::run_sweep<WebStudy>(campaign, web_config);

  bench::banner("Fig. 3 — relative FCP/PLT differences vs DoUDP (measured)");
  std::printf("%s", render_fig3(fig3_relative(records)).c_str());
  std::printf(
      "Paper reference: (a) in ~40%% of cases DoQ delays FCP by <=10%% while\n"
      "DoT/DoH delay it by >20%% at the same fraction; ~10%% of encrypted\n"
      "loads are *faster* than DoUDP (5 s application-layer retry outliers).\n"
      "(b) <15%% of DoQ loads degrade PLT by >15%%, vs >40%% for DoH; DoT is\n"
      "worst because dnsproxy re-handshakes when a query is in flight.\n");

  if (bench::flag_set(argc, argv, "--csv")) {
    write_file("fig3_web.csv", web_csv(records));
    std::printf("\nraw records -> fig3_web.csv\n");
  }
  return 0;
}
