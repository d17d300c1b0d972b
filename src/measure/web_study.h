// The Web-performance study (paper §3.2): Chromium-model page loads through
// the local DNS proxy, per [vantage point x resolver x protocol x page]:
// one cache-warming navigation, then four cold-start measured loads with
// proxy sessions reset before each — the paper's exact procedure.
#pragma once

#include <string>
#include <vector>

#include "dox/types.h"
#include "measure/testbed.h"
#include "web/page.h"

namespace doxlab::measure {

struct WebStudyConfig {
  /// Measured loads per combination (paper: four).
  int loads_per_combo = 4;
  /// Repetitions of the whole sweep (paper: every 48 h over a week ≈ 3).
  int repetitions = 1;
  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  /// Page names (default: all ten model pages).
  std::vector<std::string> pages;
  /// Cap resolvers (0 = all verified). The paper used all 313; benches
  /// subsample for runtime.
  int max_resolvers = 24;
  /// Reproduce dnsproxy's DoT connection-handling bug (paper behaviour).
  bool dot_buggy_reuse = true;
  /// Attempt 0-RTT when a ticket allows it. The proxy always offers session
  /// resumption.
  bool attempt_0rtt = true;
};

struct WebRecord {
  int vp = 0;
  int resolver = 0;
  dox::DnsProtocol protocol = dox::DnsProtocol::kDoUdp;
  std::string page;
  int rep = 0;
  int load = 0;  // 0..loads_per_combo-1
  bool success = false;
  SimTime fcp = 0;
  SimTime plt = 0;
  int dns_queries = 0;
  int dns_retransmissions = 0;
};

class WebStudy {
 public:
  using Config = WebStudyConfig;
  using Record = WebRecord;

  /// Throws std::invalid_argument for an unknown page name.
  WebStudy(Testbed& testbed, WebStudyConfig config);

  /// The study's matrix on this testbed, in the order run() measures it.
  std::vector<Cell> cells() const;

  /// Measures one cell through a fresh proxy: per page, a cache-warming
  /// navigation, then `loads_per_combo` cold loads. Appends one record per
  /// load.
  void measure(const Cell& cell, std::vector<WebRecord>& out);

  /// Measures every cell, in order, on this testbed.
  std::vector<WebRecord> run();

 private:
  Testbed& testbed_;
  WebStudyConfig config_;
  std::vector<const web::WebPage*> pages_;
};

}  // namespace doxlab::measure
