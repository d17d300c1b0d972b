// Adverse-path bench: congestion control end to end over link models.
//
// Two gated experiments, both pure functions of the built-in seeds:
//
//   1. TCP fairness — two NewReno flows from separate hosts share one
//      finite-rate tail-drop bottleneck (the server's ingress link). Each
//      flow's steady-state goodput must converge to 50% +/- 15 of the link
//      rate, the classic AIMD fairness result. The seed's legacy
//      slow-start-only TCP cannot pass this: without fast retransmit every
//      drop costs a full RTO and the first flow to stall loses its share.
//
//   2. QUIC recovery — one RFC 9002 connection (enable_cc) pushes a bulk
//      stream through the same kind of bottleneck with burst loss. Its
//      cwnd trace must show a slow-start phase followed by at least one
//      recovery episode (packet-threshold loss detection feeding the
//      shared cc module), i.e. real congestion control, not PTO-only.
//
// `--smoke` shrinks the transfers for sanitizer CI; `--json` writes the
// committed BENCH_adverse.json baseline. Exits non-zero if a gate fails.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cc/cc.h"
#include "net/link.h"
#include "net/network.h"
#include "net/udp.h"
#include "quic/connection.h"
#include "quic/server.h"
#include "sim/simulator.h"
#include "tcp/tcp.h"

using namespace doxlab;

namespace {

bool g_failed = false;

void gate(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "PASS" : "FAIL", what);
  if (!ok) g_failed = true;
}

struct FairnessResult {
  double share_a = 0.0;  // flow goodput / link rate
  double share_b = 0.0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t loss_episodes = 0;
};

/// Two bulk NewReno flows into one 5 Mbit/s, 32 KiB tail-drop bottleneck.
FairnessResult run_tcp_fairness(cc::CcAlgorithm algorithm, SimTime duration,
                                std::size_t transfer_bytes) {
  sim::Simulator sim;
  net::Network network(sim, Rng(21));
  network.set_loss_rate(0.0);

  auto& a_host = network.add_host("flow-a", net::IpAddress::from_octets(
                                                10, 0, 0, 1),
                                  {50.11, 8.68}, net::Continent::kEurope);
  auto& b_host = network.add_host("flow-b", net::IpAddress::from_octets(
                                                10, 0, 0, 2),
                                  {48.85, 2.35}, net::Continent::kEurope);
  auto& server_host = network.add_host(
      "server", net::IpAddress::from_octets(10, 0, 0, 3), {52.37, 4.90},
      net::Continent::kEurope);
  network.set_path_override(a_host.address(), server_host.address(),
                            from_ms(10));
  network.set_path_override(b_host.address(), server_host.address(),
                            from_ms(10));

  // The shared bottleneck: ONE link instance on the server's ingress, so
  // both flows' data segments drain through the same FIFO; acks return
  // unimpeded.
  net::LinkConfig bottleneck;
  bottleneck.rate_bps = 5e6;
  bottleneck.queue_bytes = 32 * 1024;
  network.set_host_ingress_link(server_host.address(),
                                network.add_link(bottleneck));

  tcp::TcpStack a_stack(a_host);
  tcp::TcpStack b_stack(b_host);
  tcp::TcpStack server(server_host);

  std::uint64_t received_a = 0;
  std::uint64_t received_b = 0;
  std::vector<std::shared_ptr<tcp::TcpConnection>> accepted;
  auto& listener = server.listen(9000);
  listener.on_accept([&](const std::shared_ptr<tcp::TcpConnection>& conn) {
    const bool is_a = accepted.empty();
    accepted.push_back(conn);
    conn->on_data([&received_a, &received_b,
                   is_a](std::span<const std::uint8_t> data) {
      (is_a ? received_a : received_b) += data.size();
    });
  });

  tcp::TcpOptions options;
  options.congestion_algorithm = algorithm;
  const net::Endpoint sink{server_host.address(), 9000};
  auto a_conn = a_stack.connect(sink, options);
  auto b_conn = b_stack.connect(sink, options);
  const std::vector<std::uint8_t> payload(transfer_bytes, 0x42);
  a_conn->on_connected([&] { a_conn->send(payload); });
  b_conn->on_connected([&] { b_conn->send(payload); });

  sim.run_until(duration);

  FairnessResult result;
  const double link_bytes =
      bottleneck.rate_bps / 8.0 * (static_cast<double>(duration) / kSecond);
  result.share_a = static_cast<double>(received_a) / link_bytes;
  result.share_b = static_cast<double>(received_b) / link_bytes;
  result.fast_retransmits =
      a_conn->fast_retransmit_count() + b_conn->fast_retransmit_count();
  result.loss_episodes = a_conn->congestion().loss_episodes() +
                         b_conn->congestion().loss_episodes();
  return result;
}

struct QuicResult {
  bool saw_slow_start = false;
  bool saw_recovery = false;
  bool recovery_after_slow_start = false;
  std::uint64_t packets_lost = 0;
  std::uint64_t loss_episodes = 0;
  std::size_t trace_points = 0;
  std::size_t delivered = 0;
};

/// One RFC 9002 connection pushing a bulk stream through a constrained
/// link with Gilbert-Elliott burst loss.
QuicResult run_quic_recovery(SimTime duration, std::size_t transfer_bytes) {
  sim::Simulator sim;
  net::Network network(sim, Rng(31));
  network.set_loss_rate(0.0);

  auto& client_host = network.add_host(
      "client", net::IpAddress::from_octets(10, 1, 0, 1), {50.11, 8.68},
      net::Continent::kEurope);
  auto& server_host = network.add_host(
      "server", net::IpAddress::from_octets(10, 1, 0, 2), {52.37, 4.90},
      net::Continent::kEurope);
  network.set_path_override(client_host.address(), server_host.address(),
                            from_ms(10));

  net::LinkConfig bottleneck;
  bottleneck.rate_bps = 4e6;
  bottleneck.queue_bytes = 24 * 1024;
  bottleneck.burst_loss = net::GilbertElliott{};
  network.set_host_ingress_link(server_host.address(),
                                network.add_link(bottleneck));

  net::UdpStack client_udp(client_host);
  net::UdpStack server_udp(server_host);

  quic::QuicConfig server_config;
  server_config.tls.alpn = {"doq"};
  server_config.tls.ticket_secret = 0xD0C;
  quic::QuicServer server(sim, server_udp, 853, server_config);
  std::size_t delivered = 0;
  std::vector<std::shared_ptr<quic::QuicConnection>> accepted;
  server.on_accept([&](const std::shared_ptr<quic::QuicConnection>& conn,
                       const net::Endpoint&) {
    accepted.push_back(conn);
    conn->set_on_stream_data([&delivered](std::uint64_t,
                                          std::span<const std::uint8_t> data,
                                          bool) { delivered += data.size(); });
  });

  quic::QuicConfig client_config;
  client_config.tls.alpn = {"doq"};
  client_config.tls.sni = "resolver.example";
  client_config.enable_cc = true;
  client_config.cc_trace = true;

  auto socket = client_udp.bind_ephemeral();
  quic::QuicConnection::Callbacks callbacks;
  auto* socket_raw = socket.get();
  auto server_addr = server_host.address();
  callbacks.send_datagram = [socket_raw, server_addr](util::Buffer bytes) {
    socket_raw->send_to(net::Endpoint{server_addr, 853}, std::move(bytes));
  };
  auto conn = quic::QuicConnection::make_client(sim, client_config,
                                                std::move(callbacks));
  socket->on_datagram([conn](const net::Endpoint&, util::Buffer payload) {
    conn->on_datagram(payload);
  });
  conn->connect();
  util::Buffer transfer = util::Buffer::allocate(transfer_bytes);
  std::memset(transfer.append(transfer_bytes), 0x51, transfer_bytes);
  conn->open_stream(std::move(transfer), true);
  sim.run_until(duration);

  QuicResult result;
  result.delivered = delivered;
  result.packets_lost = conn->packets_declared_lost();
  result.loss_episodes = conn->congestion().loss_episodes();
  const auto& trace = conn->congestion().trace();
  result.trace_points = trace.size();
  for (const auto& point : trace) {
    if (point.phase == cc::CcPhase::kSlowStart) {
      result.saw_slow_start = true;
    }
    if (point.phase == cc::CcPhase::kRecovery) {
      result.saw_recovery = true;
      if (result.saw_slow_start) result.recovery_after_slow_start = true;
    }
  }
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = bench::flag_set(argc, argv, "--smoke");
  const bool json = bench::flag_set(argc, argv, "--json");
  const SimTime fair_duration = (smoke ? 6 : 12) * kSecond;
  const std::size_t fair_bytes = smoke ? 6 * 1024 * 1024 : 12 * 1024 * 1024;
  const SimTime quic_duration = (smoke ? 4 : 8) * kSecond;
  const std::size_t quic_bytes = smoke ? 256 * 1024 : 1024 * 1024;

  bench::banner("adverse_path: NewReno fairness on a shared bottleneck");
  const auto fair =
      run_tcp_fairness(cc::CcAlgorithm::kNewReno, fair_duration, fair_bytes);
  std::printf("  flow shares of 5 Mbit/s link: %.3f / %.3f  (fast "
              "retransmits %llu, loss episodes %llu)\n",
              fair.share_a, fair.share_b,
              static_cast<unsigned long long>(fair.fast_retransmits),
              static_cast<unsigned long long>(fair.loss_episodes));
  gate(fair.share_a >= 0.35 && fair.share_a <= 0.65,
       "flow A gets 50% +/- 15 of the link rate");
  gate(fair.share_b >= 0.35 && fair.share_b <= 0.65,
       "flow B gets 50% +/- 15 of the link rate");
  gate(fair.fast_retransmits > 0,
       "tail drops repaired by fast retransmit, not RTO");

  bench::banner("adverse_path: QUIC RFC 9002 recovery under burst loss");
  const auto quic = run_quic_recovery(quic_duration, quic_bytes);
  std::printf("  delivered %zu bytes, %llu packets declared lost, %llu loss "
              "episodes, %zu trace points\n",
              quic.delivered,
              static_cast<unsigned long long>(quic.packets_lost),
              static_cast<unsigned long long>(quic.loss_episodes),
              quic.trace_points);
  gate(quic.saw_slow_start, "cwnd trace shows a slow-start phase");
  gate(quic.recovery_after_slow_start,
       "cwnd trace shows slow start -> recovery transition");
  gate(quic.loss_episodes >= 1, "packet-threshold losses reduced the window");
  gate(quic.delivered > 0, "stream data still delivered under loss");

  if (json) {
    bench::JsonReporter reporter;
    reporter.metric("tcp_fairness", "share_a", fair.share_a);
    reporter.metric("tcp_fairness", "share_b", fair.share_b);
    reporter.metric("tcp_fairness", "fast_retransmits",
                    static_cast<double>(fair.fast_retransmits));
    reporter.metric("tcp_fairness", "loss_episodes",
                    static_cast<double>(fair.loss_episodes));
    reporter.metric("quic_recovery", "delivered_bytes",
                    static_cast<double>(quic.delivered));
    reporter.metric("quic_recovery", "packets_lost",
                    static_cast<double>(quic.packets_lost));
    reporter.metric("quic_recovery", "loss_episodes",
                    static_cast<double>(quic.loss_episodes));
    reporter.metric("quic_recovery", "trace_points",
                    static_cast<double>(quic.trace_points));
    reporter.metric("quic_recovery", "slow_start_to_recovery",
                    quic.recovery_after_slow_start ? 1.0 : 0.0);
    const char* path = "BENCH_adverse.json";
    if (reporter.write_file(path)) {
      std::printf("\nbaseline -> %s\n", path);
    } else {
      std::printf("\nfailed to write %s\n", path);
      return 1;
    }
  }

  std::printf("\n%s\n", g_failed ? "ADVERSE-PATH GATES FAILED"
                                 : "all adverse-path gates passed");
  return g_failed ? 1 : 0;
}
