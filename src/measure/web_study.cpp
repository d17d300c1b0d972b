#include "measure/web_study.h"

#include "proxy/proxy.h"
#include "web/browser.h"

namespace doxlab::measure {

WebStudy::WebStudy(Testbed& testbed, WebStudyConfig config)
    : testbed_(testbed), config_(std::move(config)) {
  if (config_.pages.empty()) {
    for (const auto& page : web::tranco_top10()) pages_.push_back(&page);
  } else {
    for (const auto& name : config_.pages) {
      pages_.push_back(&web::page_by_name(name));
    }
  }
}

std::vector<Cell> WebStudy::cells() const {
  return testbed_.cells(config_.repetitions, config_.max_resolvers,
                        config_.protocols);
}

void WebStudy::measure(const Cell& cell, std::vector<WebRecord>& out) {
  auto& sim = testbed_.simulator();
  auto& vp = *testbed_.vantage_points()[static_cast<std::size_t>(cell.vp)];
  auto origin_rtt = testbed_.origin_rtt_fn(vp);

  // Fresh proxy per cell: Chromium's local resolver is "newly setup" each
  // time in the paper's methodology.
  proxy::ProxyConfig proxy_config;
  proxy_config.upstream_protocol = cell.protocol;
  proxy_config.upstream =
      testbed_.resolver_endpoint(cell.resolver, cell.protocol);
  proxy_config.transport_options.attempt_0rtt = config_.attempt_0rtt;
  proxy_config.transport_options.dot_buggy_reuse = config_.dot_buggy_reuse;
  proxy::DnsProxy proxy(*vp.udp, vp.deps(sim), proxy_config);

  web::BrowserConfig browser_config;
  browser_config.stub_resolver =
      net::Endpoint{vp.host->address(), proxy_config.listen_port};

  for (const web::WebPage* page : pages_) {
    // Cache-warming navigation: populates the upstream resolver's cache
    // (and the ticket/token stores).
    {
      web::Browser warm_browser(sim, *vp.udp, browser_config, origin_rtt,
                                testbed_.rng().fork());
      bool done = false;
      warm_browser.navigate(*page, [&](web::PageLoadMetrics) { done = true; });
      testbed_.run_until_flag(done);
    }
    // Drain in-flight tickets/tokens before the session reset.
    sim.run_until(sim.now() + 500 * kMillisecond);
    proxy.reset_sessions();
    sim.run_until(sim.now() + 500 * kMillisecond);

    for (int load = 0; load < config_.loads_per_combo; ++load) {
      web::Browser browser(sim, *vp.udp, browser_config, origin_rtt,
                           testbed_.rng().fork());
      WebRecord record;
      record.vp = cell.vp;
      record.resolver = static_cast<int>(cell.resolver);
      record.protocol = cell.protocol;
      record.page = page->name;
      record.rep = cell.rep;
      record.load = load;

      bool done = false;
      browser.navigate(*page, [&](web::PageLoadMetrics metrics) {
        record.success = metrics.success;
        record.fcp = metrics.fcp;
        record.plt = metrics.plt;
        record.dns_queries = metrics.dns_queries;
        record.dns_retransmissions = metrics.dns_retransmissions;
        done = true;
      });
      testbed_.run_until_flag(done);
      out.push_back(record);

      // Cold start for the next load: drop upstream connections (tickets
      // survive — resumption is the paper's default).
      sim.run_until(sim.now() + 500 * kMillisecond);
      proxy.reset_sessions();
      sim.run_until(sim.now() + 200 * kMillisecond);
    }
  }
}

std::vector<WebRecord> WebStudy::run() {
  std::vector<WebRecord> records;
  for (const Cell& cell : cells()) measure(cell, records);
  return records;
}

}  // namespace doxlab::measure
