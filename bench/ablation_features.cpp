// Ablation benches for the design choices DESIGN.md §5 calls out. Each
// section flips one mechanism and reports its effect on single-query or web
// timings:
//   1. Session resumption off — reproduces the paper's *preliminary work*:
//      full handshakes hit the QUIC 3x amplification limit and stall.
//   2. 0-RTT on — the paper's future-work projection: DoQ approaches DoUDP.
//   3. Address-validation token off + Retry-requiring resolvers — +1 RTT.
//   4. dnsproxy DoT reuse bug on/off — Fig. 3's DoT tail.
//   5. TCP Fast Open for DoTCP — what DoTCP could do with resolver support.
//   6. Amplification stall rate as a function of certificate-chain size.
//
// Usage: ablation_features [--resolvers=N]
#include <cstdio>

#include "bench_util.h"
#include "measure/report.h"
#include "measure/single_query.h"
#include "measure/web_study.h"
#include "stats/stats.h"

using namespace doxlab;
using namespace doxlab::measure;

namespace {

double protocol_median(const std::vector<SingleQueryRecord>& records,
                       dox::DnsProtocol protocol, bool handshake) {
  std::vector<double> values;
  for (const auto& r : records) {
    if (!r.success || r.protocol != protocol) continue;
    values.push_back(to_ms(handshake ? r.handshake_time : r.resolve_time));
  }
  return stats::median(values).value_or(0);
}

double total_median(const std::vector<SingleQueryRecord>& records,
                    dox::DnsProtocol protocol) {
  std::vector<double> values;
  for (const auto& r : records) {
    if (!r.success || r.protocol != protocol) continue;
    // total_time, not handshake+resolve: with 0-RTT the phases overlap.
    values.push_back(to_ms(r.total_time));
  }
  return stats::median(values).value_or(0);
}

std::vector<SingleQueryRecord> run_single(TestbedConfig testbed_config,
                                          SingleQueryConfig config) {
  Testbed testbed(testbed_config);
  SingleQueryStudy study(testbed, config);
  return study.run();
}

}  // namespace

int main(int argc, char** argv) {
  const int resolvers = bench::flag_int(argc, argv, "--resolvers", 30);
  TestbedConfig base;
  base.population.verified_only = true;
  base.population.verified_dox = resolvers;

  SingleQueryConfig doq_only;
  doq_only.protocols = {dox::DnsProtocol::kDoQ};

  // ---------------------------------------------------------------- 1.
  bench::banner("Ablation 1 — session resumption (DoQ handshake, ms)");
  {
    auto with = run_single(base, doq_only);
    SingleQueryConfig no_resumption = doq_only;
    no_resumption.use_session_resumption = false;
    no_resumption.use_address_token = false;
    auto without = run_single(base, no_resumption);
    const double hs_with = protocol_median(with, dox::DnsProtocol::kDoQ, true);
    const double hs_without =
        protocol_median(without, dox::DnsProtocol::kDoQ, true);
    const double rtt =
        protocol_median(with, dox::DnsProtocol::kDoQ, false);  // ~1 RTT
    int stalls = 0, n = 0;
    for (const auto& r : without) {
      if (!r.success) continue;
      ++n;
      // A full handshake that exceeds ~1.6 RTT hit the amplification limit.
      if (to_ms(r.handshake_time) > 1.6 * to_ms(r.resolve_time)) ++stalls;
    }
    std::printf("resumption + token:  median handshake %7.1f ms (1 RTT)\n",
                hs_with);
    std::printf("full handshake:      median handshake %7.1f ms\n",
                hs_without);
    std::printf("amplification stalls without resumption: %d/%d (%.0f%%)\n",
                stalls, n, 100.0 * stalls / std::max(1, n));
    std::printf(
        "paper (preliminary work): ~40%% of DoQ handshakes stalled for an\n"
        "extra RTT before Session Resumption was used; with it, none.\n");
    (void)rtt;
  }

  // ---------------------------------------------------------------- 2.
  bench::banner("Ablation 2 — 0-RTT (total time of query exchange, ms)");
  {
    auto baseline = run_single(base, SingleQueryConfig{});
    TestbedConfig zero_rtt_world = base;
    zero_rtt_world.population.force_supports_0rtt = true;
    auto zero = run_single(zero_rtt_world, SingleQueryConfig{});
    std::printf("%-22s %10s %10s %10s\n", "", "DoUDP", "DoQ", "DoT");
    std::printf("%-22s %9.1f  %9.1f  %9.1f\n", "no 0-RTT (paper)",
                total_median(baseline, dox::DnsProtocol::kDoUdp),
                total_median(baseline, dox::DnsProtocol::kDoQ),
                total_median(baseline, dox::DnsProtocol::kDoT));
    std::printf("%-22s %9.1f  %9.1f  %9.1f\n", "0-RTT everywhere",
                total_median(zero, dox::DnsProtocol::kDoUdp),
                total_median(zero, dox::DnsProtocol::kDoQ),
                total_median(zero, dox::DnsProtocol::kDoT));
    int used = 0, n = 0;
    for (const auto& r : zero) {
      if (r.protocol != dox::DnsProtocol::kDoQ || !r.success) continue;
      ++n;
      used += r.used_0rtt;
    }
    std::printf("DoQ measurements using 0-RTT: %d/%d\n", used, n);
    std::printf(
        "paper (future work): resolver 0-RTT support \"can shift the total\n"
        "response times of DoQ even closer to DoUDP\".\n");
  }

  // ---------------------------------------------------------------- 3.
  bench::banner("Ablation 3 — address-validation token vs Retry (DoQ)");
  {
    TestbedConfig retry_world = base;
    retry_world.population.force_validate_with_retry = true;
    auto with_token = run_single(retry_world, doq_only);
    SingleQueryConfig no_token = doq_only;
    no_token.use_address_token = false;
    auto without_token = run_single(retry_world, no_token);
    std::printf("Retry-requiring resolvers, token presented:  %7.1f ms\n",
                protocol_median(with_token, dox::DnsProtocol::kDoQ, true));
    std::printf("Retry-requiring resolvers, no token (+1 RTT): %6.1f ms\n",
                protocol_median(without_token, dox::DnsProtocol::kDoQ, true));
    std::printf(
        "paper: NEW_TOKEN reuse (with resumption, per RFC 9250) avoids the\n"
        "address-validation round trip.\n");
  }

  // ---------------------------------------------------------------- 4.
  bench::banner("Ablation 4 — dnsproxy DoT connection-reuse bug (web PLT)");
  {
    Testbed testbed(base);
    WebStudyConfig buggy;
    buggy.max_resolvers = 6;
    buggy.pages = {"facebook.com", "youtube.com"};
    buggy.protocols = {dox::DnsProtocol::kDoUdp, dox::DnsProtocol::kDoT};
    buggy.dot_buggy_reuse = true;
    auto buggy_records = WebStudy(testbed, buggy).run();
    WebStudyConfig fixed = buggy;
    fixed.dot_buggy_reuse = false;
    auto fixed_records = WebStudy(testbed, fixed).run();
    auto median_rel = [](const std::vector<WebRecord>& records) {
      auto report = fig3_relative(records);
      return stats::median(report.plt_rel[dox::DnsProtocol::kDoT])
          .value_or(0);
    };
    std::printf("DoT PLT degradation vs DoUDP, buggy reuse:  %+6.1f%%\n",
                100 * median_rel(buggy_records));
    std::printf("DoT PLT degradation vs DoUDP, fixed reuse:  %+6.1f%%\n",
                100 * median_rel(fixed_records));
    std::printf(
        "paper: the bug re-ran the full transport+TLS handshake in ~60%% of\n"
        "DoT page loads; the authors upstreamed the fix.\n");
  }

  // ---------------------------------------------------------------- 5.
  bench::banner("Ablation 5 — DoTCP with TCP Fast Open (total time, ms)");
  {
    auto observed = run_single(base, SingleQueryConfig{});
    // TFO world: resolvers accept fast-open and clients hold cookies.
    TestbedConfig tfo_world = base;
    tfo_world.population.force_supports_tfo = true;
    Testbed testbed(tfo_world);
    for (auto& vp : testbed.vantage_points()) {
      for (const auto& resolver : testbed.population().resolvers) {
        vp->tcp->learn_tfo_cookie(resolver->profile().address);
      }
    }
    SingleQueryConfig tcp_only;
    tcp_only.protocols = {dox::DnsProtocol::kDoTcp};
    tcp_only.tcp_use_tfo = true;
    SingleQueryStudy study(testbed, tcp_only);
    auto records = study.run();
    std::printf("DoTCP observed behaviour: total %7.1f ms (2 RTT: handshake"
                " then exchange)\n",
                total_median(observed, dox::DnsProtocol::kDoTcp));
    std::printf("DoTCP with TFO:           total %7.1f ms (1 RTT: the query"
                " rides the SYN)\n",
                total_median(records, dox::DnsProtocol::kDoTcp));
    std::printf(
        "paper: no resolver supports TFO or edns-tcp-keepalive, so every\n"
        "DoTCP query costs 2 RTTs (handshake + exchange) despite RFC 9210.\n");
  }

  // ---------------------------------------------------------------- 6.
  bench::banner(
      "Ablation 6 — amplification stalls vs certificate size (DoQ, no "
      "resumption)");
  {
    std::printf("%-18s %12s\n", "cert chain bytes", "stall rate");
    for (std::size_t cert : {1500u, 2500u, 3500u, 4500u, 6000u}) {
      sim::Simulator sim;
      Rng rng(99);
      net::Network network(sim, rng.fork());
      network.set_loss_rate(0.0);
      resolver::ResolverProfile profile;
      profile.name = "r";
      profile.address = net::IpAddress::from_octets(10, 50, 0, 1);
      profile.location = {50.0, 8.0};
      profile.secret = 0x1;
      profile.certificate_chain_size = cert;
      profile.drop_probability = 0.0;
      resolver::DoxResolver resolver(network, profile, rng.fork());
      auto& client = network.add_host(
          "c", net::IpAddress::from_octets(10, 50, 0, 2), {52.0, 5.0},
          net::Continent::kEurope);
      network.set_path_override(client.address(), profile.address,
                                from_ms(20));
      net::UdpStack udp(client);
      tls::TicketStore tickets;
      dox::DoqSessionCache cache;
      dox::TransportDeps deps;
      deps.sim = &sim;
      deps.udp = &udp;
      deps.tickets = &tickets;
      deps.doq_cache = &cache;
      dox::TransportOptions options;
      options.resolver = {profile.address, 853};
      options.use_session_resumption = false;
      options.use_address_token = false;
      int stalls = 0;
      const int trials = 10;
      for (int i = 0; i < trials; ++i) {
        auto transport =
            dox::make_transport(dox::DnsProtocol::kDoQ, deps, options);
        std::optional<dox::QueryResult> result;
        transport->resolve(
            {dns::DnsName::parse("google.com"), dns::RRType::kA,
             dns::RRClass::kIN},
            [&](dox::QueryResult r) { result = std::move(r); });
        sim.run_until(sim.now() + 30 * kSecond);
        if (result && result->ok() &&
            to_ms(result->handshake_time()) > 60.0) {
          ++stalls;  // > 1.5 RTT: amplification stall
        }
        transport->reset_sessions();
        sim.run_until(sim.now() + kSecond);
      }
      std::printf("%-18zu %10d/%d\n", cert, stalls, trials);
    }
    std::printf(
        "paper mechanism: the server may send at most 3x the client's\n"
        "~1.2 KB INITIAL before validation; chains above ~3.6 KB minus the\n"
        "handshake overhead stall for one extra round trip.\n");
  }

  // ---------------------------------------------------------------- 7.
  bench::banner("Ablation 7 — RFC 8467 DNS padding (median bytes, DoT/DoQ)");
  {
    auto plain = run_single(base, SingleQueryConfig{});
    SingleQueryConfig padded_config;
    padded_config.pad_encrypted = true;
    auto padded = run_single(base, padded_config);
    auto med_bytes = [](const std::vector<SingleQueryRecord>& records,
                        dox::DnsProtocol protocol, bool query) {
      std::vector<double> v;
      for (const auto& r : records) {
        if (!r.success || r.protocol != protocol) continue;
        v.push_back(static_cast<double>(query ? r.bytes.query_c2r()
                                              : r.bytes.response_r2c()));
      }
      return stats::median(v).value_or(0);
    };
    std::printf("%-12s %14s %14s\n", "", "query bytes", "response bytes");
    for (dox::DnsProtocol protocol :
         {dox::DnsProtocol::kDoT, dox::DnsProtocol::kDoQ}) {
      std::printf("%-12s %9.0f->%4.0f %9.0f->%4.0f\n",
                  std::string(dox::protocol_name(protocol)).c_str(),
                  med_bytes(plain, protocol, true),
                  med_bytes(padded, protocol, true),
                  med_bytes(plain, protocol, false),
                  med_bytes(padded, protocol, false));
    }
    std::printf(
        "The 2022 population used no padding (the paper's Table 1 sizes\n"
        "imply none); RFC 8467 trades these extra bytes for resistance to\n"
        "size-based traffic analysis.\n");
  }
  return 0;
}
