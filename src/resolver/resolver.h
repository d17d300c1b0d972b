// A recursive DNS resolver speaking all five DoX protocols — the server
// side of the study. One `DoxResolver` is one of the paper's 313 verified
// resolvers: it listens on UDP/TCP 53 (Do53), TCP 853 (DoT), TCP 443 (DoH)
// and UDP 784/853/8853 (DoQ), answers from a shared record cache, and
// simulates the upstream recursive lookup on cache misses.
//
// Per-resolver behaviour is drawn from a `ResolverProfile` whose fields
// mirror the feature distributions the paper reports in §3: TLS version,
// QUIC version, DoQ ALPN draft, certificate chain size, no 0-RTT, no TFO,
// no edns-tcp-keepalive, 7-day session tickets.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dns/cache.h"
#include "dns/message.h"
#include "dox/types.h"
#include "h2/connection.h"
#include "net/geo.h"
#include "net/network.h"
#include "net/udp.h"
#include "h3/connection.h"
#include "quic/server.h"
#include "tcp/tcp.h"
#include "tls/session.h"
#include "util/rng.h"

namespace doxlab::resolver {

/// Everything that varies across the resolver population.
struct ResolverProfile {
  std::string name;
  net::IpAddress address;
  net::GeoPoint location;
  net::Continent continent = net::Continent::kEurope;
  std::string as_name = "EXAMPLE-AS";
  int as_number = 64500;

  // Protocol support (the scan module verifies these; the 313 DoX
  // resolvers have all five true).
  bool supports_doudp = true;
  bool supports_dotcp = true;
  bool supports_dot = true;
  bool supports_doh = true;
  bool supports_doq = true;
  /// DNS over HTTP/3 — the paper's future-work protocol; rare in 2022
  /// (Cloudflare only), so off by default.
  bool supports_doh3 = false;

  // Feature mix (§3 of the paper).
  tls::TlsVersion max_tls = tls::TlsVersion::kTls13;
  quic::QuicVersion quic_version = quic::QuicVersion::kV1;
  std::string doq_alpn = "doq-i02";
  bool supports_0rtt = false;       // none in the study
  bool supports_tfo = false;        // none in the study
  bool supports_keepalive = false;  // none in the study
  bool session_tickets = true;      // all in the study (7-day lifetime)
  /// Address validation via Retry for token-less DoQ clients (off in the
  /// study's population; the ablation bench turns it on).
  bool validate_with_retry = false;
  std::size_t certificate_chain_size = 3000;
  std::uint64_t secret = 0;  // ticket/token identity

  /// Mean simulated upstream recursion latency on cache miss.
  SimTime recursive_latency_mean = 80 * kMillisecond;
  /// Per-query probability of silently dropping (resolvers "not responding
  /// to every DNS query" — the paper's sample-count variation).
  double drop_probability = 0.002;
  /// Local processing delay per query.
  SimTime processing_delay = 200;  // 0.2 ms
};

/// Deterministically derives the A record address for a name (the simulated
/// "authoritative" answer every resolver eventually agrees on).
std::uint32_t authoritative_ipv4(const dns::DnsName& name);

class DoxResolver {
 public:
  /// Creates the resolver's host on `network` and opens its listeners.
  DoxResolver(net::Network& network, const ResolverProfile& profile, Rng rng);

  DoxResolver(const DoxResolver&) = delete;
  DoxResolver& operator=(const DoxResolver&) = delete;
  ~DoxResolver();

  const ResolverProfile& profile() const { return profile_; }
  net::Host& host() { return *host_; }

  /// Counters (per protocol) for tests and the scan module.
  std::uint64_t queries_served(dox::DnsProtocol protocol) const {
    return served_[static_cast<int>(protocol)];
  }
  /// HTTP/3 sessions held for accepted DoH3 connections.
  std::size_t doh3_sessions() const { return doh3_conns_.size(); }

 private:
  struct TlsConn;

  void open_listeners();
  tls::TlsConfig server_tls_config(const std::string& alpn) const;
  quic::QuicConfig server_quic_config(const std::string& alpn) const;

  /// Resolves the query's question (cache or simulated recursion), then
  /// calls `respond`, any callable taking a dns::Message, with the complete
  /// response. The query and `respond` move into the event that answers,
  /// as they are: no copy of the question, no callable wrapper.
  template <typename Respond>
  void handle_query(dox::DnsProtocol protocol, dns::Message query,
                    Respond respond);
  /// The response to `query` carrying `records`, framed for `protocol`
  /// (keepalive, padding, UDP truncation).
  dns::Message build_response(dox::DnsProtocol protocol,
                              const dns::Message& query,
                              std::vector<dns::ResourceRecord> records,
                              dns::RCode rcode) const;

  void serve_doudp();
  void serve_dotcp();
  /// DoT and DoH: one TLS accept path; `protocol` picks the port, the
  /// ALPN and what reads the decrypted stream.
  void serve_tls(dox::DnsProtocol protocol);
  void on_dot_stream(const std::shared_ptr<TlsConn>& state,
                     std::span<const std::uint8_t> data);
  std::unique_ptr<h2::H2Connection> make_doh_session(
      const std::weak_ptr<TlsConn>& weak_state);
  void serve_doq();
  void serve_doh3();

  net::Network& network_;
  ResolverProfile profile_;
  Rng rng_;
  net::Host* host_;
  std::unique_ptr<net::UdpStack> udp_;
  std::unique_ptr<tcp::TcpStack> tcp_;
  dns::Cache cache_;

  std::unique_ptr<net::UdpSocket> udp53_;
  std::vector<std::unique_ptr<quic::QuicServer>> quic_servers_;
  std::vector<std::shared_ptr<TlsConn>> tls_conns_;
  /// Server-side H3 sessions of open DoH3 connections (boxed so the accept
  /// handler can create the session after wiring callbacks that reference
  /// it weakly). A session is dropped once its connection closes.
  std::vector<std::shared_ptr<std::unique_ptr<h3::H3Connection>>>
      doh3_conns_;

  std::uint64_t served_[6] = {0, 0, 0, 0, 0, 0};
};

}  // namespace doxlab::resolver
