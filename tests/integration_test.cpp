// Cross-module integration tests: draft DoQ ports, the DoT-bug visible on
// the wire, full page loads over every protocol, unresponsive resolvers,
// QUIC duplicate suppression, and testbed determinism.
#include <gtest/gtest.h>

#include "measure/single_query.h"
#include "net/network.h"
#include "proxy/proxy.h"
#include "quic/wire.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "web/browser.h"

namespace doxlab {
namespace {

using net::Continent;
using net::Endpoint;
using net::IpAddress;

class IntegrationFixture : public ::testing::Test {
 protected:
  IntegrationFixture()
      : network_(sim_, Rng(23)),
        client_host_(network_.add_host("client",
                                       IpAddress::from_octets(10, 1, 0, 1),
                                       {50.11, 8.68}, Continent::kEurope)),
        udp_(client_host_),
        tcp_(client_host_) {
    network_.set_loss_rate(0.0);
  }

  resolver::ResolverProfile profile() {
    resolver::ResolverProfile p;
    p.name = "resolver";
    p.address = IpAddress::from_octets(10, 2, 0, 1);
    p.location = {52.37, 4.90};
    p.secret = 0xAB;
    p.drop_probability = 0.0;
    return p;
  }

  void start_resolver(resolver::ResolverProfile p) {
    resolver_ = std::make_unique<resolver::DoxResolver>(network_, p, Rng(3));
    network_.set_path_override(client_host_.address(), p.address,
                               from_ms(10));
  }

  dox::TransportDeps deps() {
    dox::TransportDeps d;
    d.sim = &sim_;
    d.udp = &udp_;
    d.tcp = &tcp_;
    d.tickets = &tickets_;
    d.doq_cache = &doq_cache_;
    return d;
  }

  sim::Simulator sim_;
  net::Network network_;
  net::Host& client_host_;
  net::UdpStack udp_;
  tcp::TcpStack tcp_;
  tls::TicketStore tickets_;
  dox::DoqSessionCache doq_cache_;
  std::unique_ptr<resolver::DoxResolver> resolver_;
};

// The early-draft DoQ ports from the paper's scan must all serve queries.
class DoqPorts : public IntegrationFixture,
                 public ::testing::WithParamInterface<std::uint16_t> {};

TEST_P(DoqPorts, ServesOnDraftPort) {
  start_resolver(profile());
  dox::TransportOptions opts;
  opts.resolver = Endpoint{resolver_->profile().address, GetParam()};
  auto transport = dox::make_transport(dox::DnsProtocol::kDoQ, deps(), opts);
  std::optional<dox::QueryResult> result;
  transport->resolve(dns::Question{dns::DnsName::parse("google.com"),
                                   dns::RRType::kA, dns::RRClass::kIN},
                     [&](dox::QueryResult r) { result = std::move(r); });
  sim_.run_until(sim_.now() + 30 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok()) << "port " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(DraftPorts, DoqPorts,
                         ::testing::Values(std::uint16_t(784),
                                           std::uint16_t(853),
                                           std::uint16_t(8853)));

// The dnsproxy DoT bug must be visible on the wire: parallel stub queries
// through the proxy trigger a second TCP connection to port 853.
TEST_F(IntegrationFixture, DotBugVisibleAsSecondConnectionOnWire) {
  start_resolver(profile());
  for (const bool buggy : {true, false}) {
    proxy::ProxyConfig config;
    config.upstream_protocol = dox::DnsProtocol::kDoT;
    config.upstream = Endpoint{resolver_->profile().address, 853};
    config.listen_port = buggy ? 5301 : 5302;
    config.transport_options.dot_buggy_reuse = buggy;
    proxy::DnsProxy proxy(udp_, deps(), config);

    int syns_to_853 = 0;
    network_.set_tap([&](const net::Packet& p) {
      if (p.protocol != net::kProtoTcp || p.dst.port != 853) return;
      // SYN segments have 40-byte headers in the model.
      if (p.header_bytes == tcp::kSynHeaderBytes) ++syns_to_853;
    });

    auto socket = udp_.bind_ephemeral();
    int answers = 0;
    socket->on_datagram(
        [&](const Endpoint&, util::Buffer) { ++answers; });
    for (int i = 0; i < 3; ++i) {
      dns::Message query = dns::make_query(
          static_cast<std::uint16_t>(i + 1),
          dns::DnsName::parse("host" + std::to_string(i) + ".test"),
          dns::RRType::kA);
      socket->send_to(Endpoint{client_host_.address(), config.listen_port},
                      query.encode());
    }
    sim_.run_until(sim_.now() + 30 * kSecond);
    network_.set_tap(nullptr);
    EXPECT_EQ(answers, 3);
    if (buggy) {
      EXPECT_GE(syns_to_853, 3) << "buggy proxy must open per-query conns";
    } else {
      EXPECT_EQ(syns_to_853, 1) << "fixed proxy pipelines on one connection";
    }
  }
}

// Every modelled page loads over every protocol through the proxy.
struct PageProtocol {
  const char* page;
  dox::DnsProtocol protocol;
};

class AllPagesLoad : public IntegrationFixture,
                     public ::testing::WithParamInterface<PageProtocol> {};

TEST_P(AllPagesLoad, CompletesWithConsistentMetrics) {
  start_resolver(profile());
  proxy::ProxyConfig config;
  config.upstream_protocol = GetParam().protocol;
  config.upstream = Endpoint{resolver_->profile().address,
                             dox::default_port(GetParam().protocol)};
  proxy::DnsProxy proxy(udp_, deps(), config);

  web::BrowserConfig browser_config;
  browser_config.stub_resolver = Endpoint{client_host_.address(), 53};
  auto rtt = [](const dns::DnsName&) { return from_ms(20); };
  web::Browser browser(sim_, udp_, browser_config, rtt, Rng(4));

  const web::WebPage& page = web::page_by_name(GetParam().page);
  web::PageLoadMetrics metrics;
  bool done = false;
  browser.navigate(page, [&](web::PageLoadMetrics m) {
    metrics = std::move(m);
    done = true;
  });
  sim_.run_until(sim_.now() + 300 * kSecond);
  ASSERT_TRUE(done);
  ASSERT_TRUE(metrics.success) << metrics.error;
  EXPECT_EQ(metrics.dns_queries, page.dns_queries());
  EXPECT_GT(metrics.fcp, 0);
  EXPECT_GE(metrics.plt, metrics.fcp);
}

std::vector<PageProtocol> all_page_protocol_combos() {
  std::vector<PageProtocol> combos;
  for (const auto& page : web::tranco_top10()) {
    combos.push_back({page.name.c_str(), dox::DnsProtocol::kDoQ});
  }
  combos.push_back({"wikipedia.org", dox::DnsProtocol::kDoUdp});
  combos.push_back({"wikipedia.org", dox::DnsProtocol::kDoTcp});
  combos.push_back({"wikipedia.org", dox::DnsProtocol::kDoT});
  combos.push_back({"wikipedia.org", dox::DnsProtocol::kDoH});
  return combos;
}

INSTANTIATE_TEST_SUITE_P(
    PagesTimesProtocols, AllPagesLoad,
    ::testing::ValuesIn(all_page_protocol_combos()),
    [](const auto& info) {
      std::string name = info.param.page;
      for (char& c : name) {
        if (c == '.' || c == '-') c = '_';
      }
      return name + "_" +
             std::string(dox::protocol_name(info.param.protocol));
    });

TEST_F(IntegrationFixture, FullyUnresponsiveResolverTimesOutEveryProtocol) {
  auto p = profile();
  p.drop_probability = 1.0;
  start_resolver(p);
  for (dox::DnsProtocol protocol : dox::kAllProtocols) {
    dox::TransportOptions opts;
    opts.resolver = Endpoint{resolver_->profile().address,
                             dox::default_port(protocol)};
    opts.query_timeout = 5 * kSecond;
    auto transport = dox::make_transport(protocol, deps(), opts);
    std::optional<dox::QueryResult> result;
    transport->resolve(dns::Question{dns::DnsName::parse("google.com"),
                                     dns::RRType::kA, dns::RRClass::kIN},
                       [&](dox::QueryResult r) { result = std::move(r); });
    sim_.run_until(sim_.now() + 60 * kSecond);
    ASSERT_TRUE(result.has_value()) << protocol_name(protocol);
    EXPECT_FALSE(result->ok()) << protocol_name(protocol);
    transport->reset_sessions();
    sim_.run_until(sim_.now() + 5 * kSecond);
  }
}

TEST_F(IntegrationFixture, DuplicateQuicDatagramsAreSuppressed) {
  start_resolver(profile());
  // Deliver every datagram twice by re-sending it through a tap.
  auto transport = dox::make_transport(
      dox::DnsProtocol::kDoQ, deps(),
      dox::TransportOptions{
          .resolver = Endpoint{resolver_->profile().address, 853}});
  std::optional<dox::QueryResult> result;
  int responses = 0;
  transport->resolve(dns::Question{dns::DnsName::parse("google.com"),
                                   dns::RRType::kA, dns::RRClass::kIN},
                     [&](dox::QueryResult r) {
                       result = std::move(r);
                       ++responses;
                     });
  sim_.run_until(sim_.now() + 30 * kSecond);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->ok());
  EXPECT_EQ(responses, 1);
}

// Regression guard for the callback-cycle leak class: repeated measurement
// cycles must not accumulate bound UDP sockets (each leaked QUIC connection
// used to pin its ephemeral port until the port space ran out at paper
// scale).
TEST_F(IntegrationFixture, RepeatedDoqMeasurementsReleasePorts) {
  start_resolver(profile());
  dox::TransportOptions opts;
  opts.resolver = Endpoint{resolver_->profile().address, 853};
  for (int i = 0; i < 40; ++i) {
    auto transport = dox::make_transport(dox::DnsProtocol::kDoQ, deps(), opts);
    bool done = false;
    transport->resolve(dns::Question{dns::DnsName::parse("google.com"),
                                     dns::RRType::kA, dns::RRClass::kIN},
                       [&](dox::QueryResult) { done = true; });
    sim_.run_until(sim_.now() + 10 * kSecond);
    ASSERT_TRUE(done);
    transport->reset_sessions();
    sim_.run_until(sim_.now() + kSecond);
  }
  // Everything torn down: only transient state may remain.
  EXPECT_LE(udp_.bound_count(), 2u);
}

TEST_F(IntegrationFixture, RepeatedWebLoadsReleasePorts) {
  start_resolver(profile());
  proxy::ProxyConfig config;
  config.upstream_protocol = dox::DnsProtocol::kDoQ;
  config.upstream = Endpoint{resolver_->profile().address, 853};
  proxy::DnsProxy proxy(udp_, deps(), config);
  web::BrowserConfig browser_config;
  browser_config.stub_resolver = Endpoint{client_host_.address(), 53};
  auto rtt = [](const dns::DnsName&) { return from_ms(15); };
  for (int i = 0; i < 25; ++i) {
    web::Browser browser(sim_, udp_, browser_config, rtt, Rng(i + 1));
    bool done = false;
    browser.navigate(web::page_by_name("google.com"),
                     [&](web::PageLoadMetrics) { done = true; });
    sim_.run_until(sim_.now() + 120 * kSecond);
    ASSERT_TRUE(done);
    sim_.run_until(sim_.now() + kSecond);
    proxy.reset_sessions();
    sim_.run_until(sim_.now() + kSecond);
  }
  // The proxy listener plus at most transient teardown state.
  EXPECT_LE(udp_.bound_count(), 4u);
}

TEST(TestbedIntegration, OriginRttDeterministicWithContinentFactor) {
  measure::TestbedConfig config;
  config.population.verified_only = true;
  config.population.verified_dox = 6;
  measure::Testbed testbed(config);
  auto& eu = *testbed.vantage_points()[0];  // Frankfurt
  auto& af = *testbed.vantage_points()[3];  // Cape Town
  auto eu_fn = testbed.origin_rtt_fn(eu);
  auto af_fn = testbed.origin_rtt_fn(af);
  const auto domain = dns::DnsName::parse("www.example.com");
  // Deterministic per (vp, domain).
  EXPECT_EQ(eu_fn(domain), eu_fn(domain));
  // The AF/OC/SA continent factor inflates RTTs on average: test over many
  // domains since individual draws vary.
  SimTime eu_sum = 0, af_sum = 0;
  for (int i = 0; i < 50; ++i) {
    const auto name =
        dns::DnsName::parse("host" + std::to_string(i) + ".example");
    eu_sum += eu_fn(name);
    af_sum += af_fn(name);
  }
  EXPECT_GT(af_sum, eu_sum);
}

TEST(TestbedIntegration, IdenticalSeedsGiveIdenticalStudies) {
  auto run_study = [] {
    measure::TestbedConfig config;
    config.seed = 99;
    config.population.verified_only = true;
    config.population.verified_dox = 6;
    measure::Testbed testbed(config);
    measure::SingleQueryConfig sq;
    sq.protocols = {dox::DnsProtocol::kDoQ};
    measure::SingleQueryStudy study(testbed, sq);
    std::vector<double> times;
    for (const auto& r : study.run()) {
      times.push_back(to_ms(r.resolve_time));
    }
    return times;
  };
  EXPECT_EQ(run_study(), run_study());
}

}  // namespace
}  // namespace doxlab
