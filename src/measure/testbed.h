// The measurement testbed: simulator + network + resolver population +
// six vantage points (one per continent, like the paper's EC2 fleet).
//
// Studies are written imperatively against the testbed using
// `run_until_flag` ("await"-style): measurements execute one after another
// in simulated time, which is free — determinism and simplicity beat
// simulated concurrency here.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dox/transport.h"
#include "net/network.h"
#include "net/udp.h"
#include "scan/population.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"
#include "tls/ticket.h"
#include "web/browser.h"

namespace doxlab::measure {

/// One measurement machine (EC2 instance in the paper).
struct VantagePoint {
  std::string name;
  net::Continent continent = net::Continent::kEurope;
  net::Host* host = nullptr;
  std::unique_ptr<net::UdpStack> udp;
  std::unique_ptr<tcp::TcpStack> tcp;
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;

  /// Transport dependencies backed by this vantage point's stacks/stores.
  dox::TransportDeps deps(sim::Simulator& sim) {
    dox::TransportDeps d;
    d.sim = &sim;
    d.udp = udp.get();
    d.tcp = tcp.get();
    d.tickets = &tickets;
    d.doq_cache = &doq_cache;
    return d;
  }
};

/// One cell of a study's matrix: the unit that both the one-testbed sweep
/// (`run()` on either study) and the campaign runner measure.
struct Cell {
  int rep = 0;
  int vp = 0;                ///< index into Testbed::vantage_points()
  std::size_t resolver = 0;  ///< index into the population's resolvers
  dox::DnsProtocol protocol = dox::DnsProtocol::kDoUdp;

  bool operator==(const Cell&) const = default;
};

struct TestbedConfig {
  std::uint64_t seed = 42;
  /// When set, the resolver population is built from its own seed instead
  /// of the forked testbed stream. The campaign runner pins this to the
  /// campaign seed so every parallel run sees the identical population
  /// while per-run seeds vary jitter/loss.
  std::optional<std::uint64_t> population_seed;
  scan::PopulationConfig population = {.verified_only = true};
  double loss_rate = 0.002;
  /// Optional adverse-path access link applied to every vantage point in
  /// BOTH directions (its own egress and ingress Link instances per VP, so
  /// queues and burst-loss chains are independent). Unset preserves the
  /// seed's pure geo-latency + iid-loss fabric — pinned artifacts depend
  /// on that default.
  std::optional<net::LinkConfig> access_link;
};

class Testbed {
 public:
  explicit Testbed(TestbedConfig config = {});

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  sim::Simulator& simulator() { return sim_; }
  net::Network& network() { return *network_; }
  scan::Population& population() { return population_; }
  std::vector<std::unique_ptr<VantagePoint>>& vantage_points() {
    return vantage_points_;
  }
  Rng& rng() { return rng_; }
  const TestbedConfig& config() const { return config_; }

  /// A study's cells in rep -> vantage point -> resolver -> protocol order.
  /// The resolvers are the verified set, capped at `max_resolvers` (0 = no
  /// cap) by stride-sampling, which keeps the continent interleaving of the
  /// verified list.
  std::vector<Cell> cells(int repetitions, int max_resolvers,
                          const std::vector<dox::DnsProtocol>& protocols) const;

  /// Resolver endpoint for a protocol.
  net::Endpoint resolver_endpoint(std::size_t resolver_index,
                                  dox::DnsProtocol protocol) const;

  /// Deterministic per-(vantage point, origin) web-server RTT: most origins
  /// are CDN-served nearby; remote continents see inflated values.
  web::Browser::OriginRttFn origin_rtt_fn(const VantagePoint& vp);

  /// Runs the simulator until `flag` becomes true or `max_wait` elapses.
  /// Returns the final flag value.
  bool run_until_flag(const bool& flag, SimTime max_wait = 5 * kMinute);

 private:
  TestbedConfig config_;
  sim::Simulator sim_;
  Rng rng_;
  std::unique_ptr<net::Network> network_;
  scan::Population population_;
  std::vector<std::unique_ptr<VantagePoint>> vantage_points_;
};

}  // namespace doxlab::measure
