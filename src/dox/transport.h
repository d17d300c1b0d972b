// The DnsTransport interface and factory.
//
// One transport instance represents a client's relationship with one
// resolver over one protocol — connections, tickets and tokens included.
// resolve() issues a query, lazily establishing whatever session the
// protocol needs; reset_sessions() drops live connections but keeps learned
// session state (tickets, tokens, negotiated versions), which is exactly
// the paper's measurement procedure between the cache-warming and measured
// runs.
#pragma once

#include <functional>
#include <memory>

#include "cc/cc.h"
#include "dox/types.h"
#include "net/udp.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"
#include "tls/ticket.h"

namespace doxlab::dox {

/// Everything a transport needs from its environment. The stacks and stores
/// are owned by the caller (a vantage point or the DNS proxy) and typically
/// shared across transports.
struct TransportDeps {
  sim::Simulator* sim = nullptr;
  net::UdpStack* udp = nullptr;
  tcp::TcpStack* tcp = nullptr;
  tls::TicketStore* tickets = nullptr;
  DoqSessionCache* doq_cache = nullptr;
};

struct TransportOptions {
  net::Endpoint resolver;
  /// Offer/use TLS session resumption (all resolvers in the study support
  /// it; the ablation bench turns it off to reproduce the paper's
  /// preliminary-work behaviour).
  bool use_session_resumption = true;
  /// Attempt TLS/QUIC 0-RTT when a ticket permits it.
  bool attempt_0rtt = true;
  /// Present a stored address-validation token in DoQ INITIALs.
  bool use_address_token = true;
  /// DoUDP application-layer retry: Chromium's resolv.conf-style 5 s
  /// initial timeout (the source of the paper's DoUDP tail outliers).
  SimTime udp_retry_timeout = 5 * kSecond;
  int udp_max_attempts = 3;
  /// DoTCP: attempt TCP Fast Open (ablation).
  bool tcp_use_tfo = false;
  /// DoT: reproduce the dnsproxy connection-handling bug — a new connection
  /// is opened whenever a query is already in flight (fixed upstream by the
  /// paper's authors; flag on reproduces Fig. 3's DoT tail).
  bool dot_buggy_reuse = false;
  /// EDNS0 padding (RFC 8467): pad queries on encrypted transports to
  /// 128-byte blocks (servers pad responses to 468). Off by default — the
  /// paper's measured sizes show no padding in the 2022 population.
  bool pad_encrypted = false;
  /// Give up on any query after this long.
  SimTime query_timeout = 15 * kSecond;
  /// TCP congestion control for DoTCP/DoT/DoH connections. The default is
  /// the seed-faithful legacy mode; adverse-path studies select kNewReno.
  cc::CcAlgorithm tcp_congestion = cc::CcAlgorithm::kLegacySlowStart;
  /// Enable RFC 9002 congestion control on DoQ/DoH3 connections (off by
  /// default: the seed's PTO-only recovery is the pinned baseline).
  bool quic_enable_cc = false;
};

class DnsTransport {
 public:
  using ResultHandler = std::function<void(QueryResult)>;

  virtual ~DnsTransport() = default;

  /// Issues a query. The handler fires exactly once (response, error or
  /// timeout).
  virtual void resolve(const dns::Question& question,
                       ResultHandler handler) = 0;

  /// Closes live connections; keeps tickets/tokens/version knowledge.
  virtual void reset_sessions() = 0;

  /// Cumulative wire bytes of the most recent connection (all datagrams /
  /// segments including retransmissions, ACKs and teardown), split at the
  /// handshake boundary. For DoUDP the handshake parts are zero.
  virtual WireStats wire_stats() const = 0;

  virtual DnsProtocol protocol() const = 0;
};

/// Creates a transport for `protocol`. The deps pointers required by that
/// protocol must be non-null (udp for DoUDP/DoQ/DoH3, tcp for the TCP
/// family; tickets/doq_cache whenever resumption state should persist). A
/// DoUDP transport retries a truncated (TC) response over TCP when `tcp` is
/// set, and returns the truncated response when it is not.
std::unique_ptr<DnsTransport> make_transport(DnsProtocol protocol,
                                             const TransportDeps& deps,
                                             const TransportOptions& options);

}  // namespace doxlab::dox
