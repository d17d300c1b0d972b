// Loads two of the modelled Tranco pages (a simple one and a complex one)
// through the local DNS proxy over DoUDP, DoH and DoQ, and prints FCP/PLT —
// a miniature of the paper's web-performance study (§3.2) showing the
// amortization effect.
//
//   ./build/examples/webpage_load
#include <cstdio>

#include "net/network.h"
#include "proxy/proxy.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "stats/table.h"
#include "web/browser.h"

using namespace doxlab;

int main() {
  sim::Simulator sim;
  net::Network network(sim, Rng(11));

  resolver::ResolverProfile profile;
  profile.name = "resolver";
  profile.address = net::IpAddress::from_octets(10, 0, 0, 53);
  profile.location = {40.71, -74.01};  // a transatlantic resolver
  profile.continent = net::Continent::kNorthAmerica;
  profile.secret = 0xFACE;
  resolver::DoxResolver resolver(network, profile, Rng(4));

  auto& client = network.add_host("laptop",
                                  net::IpAddress::from_octets(10, 0, 0, 1),
                                  {50.11, 8.68}, net::Continent::kEurope);
  net::UdpStack udp(client);
  tcp::TcpStack tcp(client);
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;
  dox::TransportDeps deps{&sim, &udp, &tcp, &tickets, &doq_cache};

  // Deterministic CDN RTTs per origin.
  auto origin_rtt = [](const dns::DnsName& domain) {
    return from_ms(10.0 + (std::hash<std::string>()(domain.to_string()) %
                           2500) / 100.0);
  };

  stats::TextTable table(
      {"Page", "Protocol", "FCP ms", "PLT ms", "#DNS queries"});
  for (const char* page_name : {"wikipedia.org", "youtube.com"}) {
    const web::WebPage& page = web::page_by_name(page_name);
    for (dox::DnsProtocol protocol :
         {dox::DnsProtocol::kDoUdp, dox::DnsProtocol::kDoH,
          dox::DnsProtocol::kDoQ}) {
      // Fresh proxy per protocol, exactly like the study's methodology.
      proxy::ProxyConfig proxy_config;
      proxy_config.upstream_protocol = protocol;
      proxy_config.upstream =
          net::Endpoint{profile.address, dox::default_port(protocol)};
      proxy::DnsProxy proxy(udp, deps, proxy_config);

      web::BrowserConfig browser_config;
      browser_config.stub_resolver = net::Endpoint{client.address(), 53};

      // Warm navigation (resolver cache + session tickets), then reset
      // sessions and measure a cold-start load.
      for (int pass = 0; pass < 2; ++pass) {
        web::Browser browser(sim, udp, browser_config, origin_rtt, Rng(5));
        web::PageLoadMetrics metrics;
        bool done = false;
        browser.navigate(page, [&](web::PageLoadMetrics m) {
          metrics = std::move(m);
          done = true;
        });
        sim.run_until(sim.now() + 300 * kSecond);
        if (pass == 0) {
          sim.run_until(sim.now() + 500 * kMillisecond);
          proxy.reset_sessions();
          sim.run_until(sim.now() + 500 * kMillisecond);
          continue;
        }
        if (!done || !metrics.success) {
          std::printf("load failed: %s\n", metrics.error.to_string().c_str());
          continue;
        }
        table.add_row({page.name, std::string(dox::protocol_name(protocol)),
                       stats::cell(to_ms(metrics.fcp), 0),
                       stats::cell(to_ms(metrics.plt), 0),
                       std::to_string(metrics.dns_queries)});
      }
    }
  }
  std::printf("%s", table.render().c_str());
  std::printf(
      "\nExpected shape (paper §3.2): encrypted DNS costs the most on the\n"
      "simple page (one query pays the whole upstream handshake); on the\n"
      "complex page the cost amortizes over many queries, and DoQ sits\n"
      "between DoUDP and DoH.\n");
  return 0;
}
