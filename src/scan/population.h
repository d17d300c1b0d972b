// Resolver population builder.
//
// Constructs the study's server-side world to match what the paper found:
//   * 1,216 DoQ-capable resolvers in total,
//   * per-protocol support among them: DoUDP 548, DoTCP 706, DoT 1,149,
//     DoH 732,
//   * 313 "verified DoX" resolvers supporting all five protocols,
//   * verified resolvers per continent: EU 130, AS 128, NA 49, AF/OC/SA 2,
//   * 107 autonomous systems: ORACLE 47, DIGITALOCEAN 20, MNGTNET 18,
//     OVHCLOUD 16, rest <= 12 each,
//   * feature mix (§3): QUIC v1 89.1% / d34 8.5% / d32 1.8% / d29 0.6%;
//     ALPN doq-i02 87.4% / doq-i03 10.8% / doq-i00 1.8%; TLS 1.3 ~99%;
//     no 0-RTT, no TFO, no edns-tcp-keepalive; session tickets everywhere.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "net/network.h"
#include "resolver/resolver.h"
#include "util/rng.h"

namespace doxlab::scan {

struct PopulationConfig {
  /// Number of fully-verified DoX resolvers (the paper's 313). The other
  /// DoQ resolvers scale proportionally (x 1216/313) unless overridden.
  int verified_dox = 313;
  /// Total DoQ-capable resolvers, absolute (paper: 1,216). Must be >=
  /// verified_dox; the difference becomes partial-support resolvers.
  /// Scale this together with verified_dox (e.g. verified 80 -> total 311).
  int total_doq = 1216;
  /// Build only the verified set (web/single-query studies don't need the
  /// partial-support population).
  bool verified_only = false;
  /// Base of the address range resolvers are placed in.
  std::uint32_t base_address = 0x0A800000;  // 10.128.0.0

  // Ablation overrides (nullopt = the paper's observed behaviour).
  std::optional<bool> force_supports_0rtt = std::nullopt;
  std::optional<bool> force_supports_tfo = std::nullopt;
  std::optional<bool> force_supports_keepalive = std::nullopt;
  std::optional<bool> force_validate_with_retry = std::nullopt;
  /// Enable DNS-over-HTTP/3 listeners across the population (future work).
  std::optional<bool> force_supports_doh3 = std::nullopt;
};

/// The built world: resolver instances (owning their hosts/listeners).
struct Population {
  std::vector<std::unique_ptr<resolver::DoxResolver>> resolvers;

  /// Indices of the verified (all-five-protocols) resolvers.
  std::vector<std::size_t> verified;

  /// Count of verified resolvers on a continent.
  int verified_on(net::Continent c) const;
};

/// Builds resolver profiles + instances on `network`.
Population build_population(net::Network& network, const PopulationConfig& cfg,
                            Rng& rng);

/// The paper's per-continent verified counts, used by the builder and
/// checked by tests: EU 130, AS 128, NA 49, AF 2, OC 2, SA 2 (sums to 313).
const std::vector<std::pair<net::Continent, int>>& verified_continent_quota();

}  // namespace doxlab::scan
