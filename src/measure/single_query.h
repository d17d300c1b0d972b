// The single-query study (paper §3.1): per [vantage point x resolver x
// protocol x repetition], a cache-warming query followed by the measured
// query on a fresh session that reuses the warmed TLS ticket, QUIC version
// and address-validation token — the paper's dnsperf methodology.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "cc/cc.h"
#include "dox/types.h"
#include "measure/testbed.h"

namespace doxlab::measure {

struct SingleQueryConfig {
  /// Measurements per [vp x resolver x protocol]. The paper ran 84
  /// (every 2 h for a week); the default keeps bench runtime sane.
  int repetitions = 2;
  std::vector<dox::DnsProtocol> protocols{std::begin(dox::kAllProtocols),
                                          std::end(dox::kAllProtocols)};
  std::string qname = "google.com";
  /// Cap resolvers per run (0 = all verified). Subsampling keeps the
  /// continent mix because verified resolvers interleave continents.
  int max_resolvers = 0;
  /// Methodology switches (the ablation bench flips these). 0-RTT is
  /// attempted whenever a ticket allows it, and DoTCP opens a fresh
  /// connection per query (the observed behaviour).
  bool use_session_resumption = true;
  bool use_address_token = true;
  bool tcp_use_tfo = false;
  /// RFC 8467 padding on encrypted transports.
  bool pad_encrypted = false;
  /// Real congestion control (adverse-path studies): NewReno/CUBIC on TCP
  /// transports and RFC 9002 CC on QUIC. Defaults keep the pinned baseline.
  cc::CcAlgorithm tcp_congestion = cc::CcAlgorithm::kLegacySlowStart;
  bool quic_enable_cc = false;
};

struct SingleQueryRecord {
  int vp = 0;
  int resolver = 0;
  dox::DnsProtocol protocol = dox::DnsProtocol::kDoUdp;
  int rep = 0;
  bool success = false;
  /// Failure class when !success (util::ErrorClass::kNone on success).
  util::ErrorClass error_class = util::ErrorClass::kNone;
  SimTime handshake_time = 0;
  SimTime resolve_time = 0;
  SimTime total_time = 0;
  dox::WireStats bytes;
  std::optional<tls::TlsVersion> tls_version;
  std::optional<quic::QuicVersion> quic_version;
  std::string alpn;
  bool session_resumed = false;
  bool used_0rtt = false;
  int udp_retransmissions = 0;
};

class SingleQueryStudy {
 public:
  using Config = SingleQueryConfig;
  using Record = SingleQueryRecord;

  SingleQueryStudy(Testbed& testbed, SingleQueryConfig config);

  /// The study's matrix on this testbed, in the order run() measures it.
  std::vector<Cell> cells() const;

  /// Measures one cell: a cache-warming query on a fresh session, then the
  /// measured query. Appends one record; a failed measurement appears with
  /// success=false, matching the paper's per-protocol sample counts.
  void measure(const Cell& cell, std::vector<SingleQueryRecord>& out);

  /// Measures every cell, in order, on this testbed.
  std::vector<SingleQueryRecord> run();

 private:
  Testbed& testbed_;
  SingleQueryConfig config_;
  dns::Question question_;
};

}  // namespace doxlab::measure
