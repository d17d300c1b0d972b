#include "measure/testbed.h"

namespace doxlab::measure {

Testbed::Testbed(TestbedConfig config)
    : config_(config), rng_(config.seed) {
  network_ = std::make_unique<net::Network>(sim_, rng_.fork());
  network_->set_loss_rate(config_.loss_rate);

  // Fork for the population unconditionally so the testbed's own stream is
  // identical whether or not an explicit population seed overrides it.
  Rng pop_rng = rng_.fork();
  if (config_.population_seed) pop_rng = Rng(*config_.population_seed);
  population_ = scan::build_population(*network_, config_.population, pop_rng);

  // Six vantage points, one per continent (the paper's EC2 instances).
  std::uint32_t address = net::IpAddress::from_octets(10, 0, 0, 1).value();
  for (const net::City& city : net::vantage_point_cities()) {
    auto vp = std::make_unique<VantagePoint>();
    vp->name = city.name;
    vp->continent = city.continent;
    vp->host = &network_->add_host("vp-" + city.name,
                                   net::IpAddress(address++), city.location,
                                   city.continent,
                                   /*access_delay=*/from_ms(1.0));
    vp->udp = std::make_unique<net::UdpStack>(*vp->host);
    vp->tcp = std::make_unique<tcp::TcpStack>(*vp->host);
    if (config_.access_link) {
      // Separate uplink/downlink instances: real access networks queue the
      // two directions independently.
      network_->set_host_egress_link(vp->host->address(),
                                     network_->add_link(*config_.access_link));
      network_->set_host_ingress_link(vp->host->address(),
                                      network_->add_link(*config_.access_link));
    }
    vantage_points_.push_back(std::move(vp));
  }
}

std::vector<Cell> Testbed::cells(
    int repetitions, int max_resolvers,
    const std::vector<dox::DnsProtocol>& protocols) const {
  const std::vector<std::size_t>& verified = population_.verified;
  std::vector<std::size_t> resolvers = verified;
  if (max_resolvers > 0 && static_cast<int>(verified.size()) > max_resolvers) {
    const double stride = static_cast<double>(verified.size()) / max_resolvers;
    resolvers.clear();
    for (int i = 0; i < max_resolvers; ++i) {
      resolvers.push_back(verified[static_cast<std::size_t>(i * stride)]);
    }
  }

  std::vector<Cell> cells;
  for (int rep = 0; rep < repetitions; ++rep) {
    for (int vp = 0; vp < static_cast<int>(vantage_points_.size()); ++vp) {
      for (std::size_t resolver : resolvers) {
        for (dox::DnsProtocol protocol : protocols) {
          cells.push_back(Cell{rep, vp, resolver, protocol});
        }
      }
    }
  }
  return cells;
}

net::Endpoint Testbed::resolver_endpoint(std::size_t resolver_index,
                                         dox::DnsProtocol protocol) const {
  return net::Endpoint{
      population_.resolvers[resolver_index]->profile().address,
      dox::default_port(protocol)};
}

web::Browser::OriginRttFn Testbed::origin_rtt_fn(const VantagePoint& vp) {
  // Deterministic per (vantage point, domain) via hashing; the continent
  // factor mirrors thinner CDN coverage in AF/OC/SA.
  double continent_factor = 1.0;
  switch (vp.continent) {
    case net::Continent::kAfrica:
    case net::Continent::kOceania:
    case net::Continent::kSouthAmerica:
      continent_factor = 1.7;
      break;
    default:
      break;
  }
  const std::uint64_t vp_hash = std::hash<std::string>()(vp.name);
  return [continent_factor, vp_hash](const dns::DnsName& domain) {
    const std::uint64_t h =
        vp_hash ^ std::hash<std::string>()(domain.to_string());
    // RTT in [8, 44) ms before the continent factor.
    const double base_ms = 8.0 + static_cast<double>(h % 3600) / 100.0;
    return from_ms(base_ms * continent_factor);
  };
}

bool Testbed::run_until_flag(const bool& flag, SimTime max_wait) {
  const SimTime deadline = sim_.now() + max_wait;
  while (!flag && sim_.now() < deadline) {
    if (!sim_.step()) {
      sim_.run_until(deadline);
      break;
    }
  }
  return flag;
}

}  // namespace doxlab::measure
