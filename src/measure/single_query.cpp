#include "measure/single_query.h"

#include "dox/transport.h"

namespace doxlab::measure {

SingleQueryStudy::SingleQueryStudy(Testbed& testbed, SingleQueryConfig config)
    : testbed_(testbed),
      config_(std::move(config)),
      question_{dns::DnsName::parse(config_.qname), dns::RRType::kA,
                dns::RRClass::kIN} {}

std::vector<Cell> SingleQueryStudy::cells() const {
  return testbed_.cells(config_.repetitions, config_.max_resolvers,
                        config_.protocols);
}

void SingleQueryStudy::measure(const Cell& cell,
                               std::vector<SingleQueryRecord>& out) {
  auto& sim = testbed_.simulator();
  auto& vp = *testbed_.vantage_points()[static_cast<std::size_t>(cell.vp)];

  dox::TransportOptions options;
  options.resolver = testbed_.resolver_endpoint(cell.resolver, cell.protocol);
  options.use_session_resumption = config_.use_session_resumption;
  options.use_address_token = config_.use_address_token;
  options.tcp_use_tfo = config_.tcp_use_tfo;
  options.pad_encrypted = config_.pad_encrypted;
  options.tcp_congestion = config_.tcp_congestion;
  options.quic_enable_cc = config_.quic_enable_cc;

  SingleQueryRecord record;
  record.vp = cell.vp;
  record.resolver = static_cast<int>(cell.resolver);
  record.protocol = cell.protocol;
  record.rep = cell.rep;

  // Cache-warming query on a fresh session.
  {
    auto warm = dox::make_transport(cell.protocol, vp.deps(sim), options);
    bool done = false;
    warm->resolve(question_, [&](dox::QueryResult) { done = true; });
    testbed_.run_until_flag(done);
    // Drain in-flight post-handshake frames (NewSessionTicket, NEW_TOKEN)
    // before closing — the ticket/token are the whole point of the warming
    // query.
    sim.run_until(sim.now() + 300 * kMillisecond);
    warm->reset_sessions();
    sim.run_until(sim.now() + 200 * kMillisecond);
  }

  // Measured query, reusing ticket/token/version knowledge.
  auto transport = dox::make_transport(cell.protocol, vp.deps(sim), options);
  bool done = false;
  transport->resolve(question_, [&](dox::QueryResult result) {
    record.success = result.ok();
    record.error_class = result.error_class();
    record.handshake_time = result.handshake_time();
    record.resolve_time = result.resolve_time();
    record.total_time = result.total_time();
    record.tls_version = result.tls_version;
    record.quic_version = result.quic_version;
    record.alpn = result.alpn;
    record.session_resumed = result.session_resumed;
    record.used_0rtt = result.used_0rtt;
    record.udp_retransmissions = result.udp_retransmissions;
    done = true;
  });
  testbed_.run_until_flag(done);
  // Drain the server's post-handshake frames first (they count towards the
  // response phase, as in the paper's size accounting), then tear down and
  // let the FIN/CLOSE exchange finish.
  sim.run_until(sim.now() + 300 * kMillisecond);
  transport->reset_sessions();
  sim.run_until(sim.now() + 2 * kSecond);
  record.bytes = transport->wire_stats();
  out.push_back(record);
}

std::vector<SingleQueryRecord> SingleQueryStudy::run() {
  std::vector<SingleQueryRecord> records;
  for (const Cell& cell : cells()) measure(cell, records);
  return records;
}

}  // namespace doxlab::measure
