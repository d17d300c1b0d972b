// Reproduces **Fig. 2** of the paper: median handshake time (a) and resolve
// time (b) per protocol, over all vantage points and per vantage point,
// plus the §3 protocol-mix observations (QUIC versions, DoQ ALPNs, TLS
// versions, session resumption / 0-RTT usage).
//
// Usage: fig2_single_query [--resolvers=N] [--reps=N] [--full] [--csv=path]
//        [--jobs=N]  (shard over a thread pool via the campaign runner;
//                     output depends only on the seed, not on N)
#include <cstdio>

#include "bench_util.h"
#include "measure/csv.h"
#include "measure/report.h"
#include "measure/single_query.h"
#include "net/geo.h"
#include "runner/campaign.h"

using namespace doxlab;
using namespace doxlab::measure;

int main(int argc, char** argv) {
  const bool full = bench::flag_set(argc, argv, "--full");
  const int resolvers =
      bench::flag_int(argc, argv, "--resolvers", full ? 313 : 48);

  SingleQueryConfig sq_config;
  sq_config.repetitions =
      bench::flag_int(argc, argv, "--reps", full ? 4 : 1);

  runner::CampaignConfig campaign;
  campaign.jobs = bench::flag_int(argc, argv, "--jobs", -1);
  campaign.population.verified_only = true;
  campaign.population.verified_dox = resolvers;
  const auto records =
      campaign.jobs >= 0
          ? runner::run_campaign<SingleQueryStudy>(campaign, sq_config)
          : runner::run_sweep<SingleQueryStudy>(campaign, sq_config);
  std::vector<std::string> vp_names;
  for (const net::City& city : net::vantage_point_cities()) {
    vp_names.push_back(city.name);
  }

  bench::banner("Fig. 2 — handshake and resolve times (measured)");
  std::printf("%s", render_fig2(
                        fig2_handshake_resolve(records, vp_names)).c_str());
  std::printf(
      "Paper reference (Total row): handshake DoH ~376 ms ~ DoT ~377 ms,\n"
      "DoTCP ~183 ms ~ DoQ ~187 ms (encrypted 1-RTT matches plain TCP);\n"
      "resolve times similar across protocols, ordered by vantage point\n"
      "distance (EU fastest; AF/OC/SA slowest).\n");

  bench::banner("Sec. 3 — protocol mix (measured)");
  std::printf("%s", render_mix(protocol_mix(records)).c_str());
  std::printf(
      "\nPaper reference: QUIC v1 89.1%%, draft-34 8.5%%, draft-32 1.8%%,\n"
      "draft-29 0.6%%; ALPN doq-i02 87.4%%, doq-i03 10.8%%, doq-i00 1.8%%;\n"
      "TLS 1.3 ~99%%; session resumption in all TLS 1.3 measurements;\n"
      "0-RTT supported by no resolver.\n");

  if (bench::flag_set(argc, argv, "--csv")) {
    write_file("fig2_single_query.csv", single_query_csv(records));
    std::printf("\nraw records -> fig2_single_query.csv\n");
  }
  return 0;
}
