// Integration tests of the measurement harness: testbed construction,
// single-query study invariants (the paper's §3.1 relationships), web study
// invariants (§3.2), report aggregation, CSV export.
#include <gtest/gtest.h>

#include "measure/csv.h"
#include "measure/report.h"
#include "measure/single_query.h"
#include "measure/web_study.h"

namespace doxlab::measure {
namespace {

/// Small but non-trivial shared testbed (built once; studies are
/// independent because every measurement warms its own sessions).
class MeasureFixture : public ::testing::Test {
 protected:
  static Testbed& testbed() {
    static Testbed* instance = [] {
      TestbedConfig config;
      config.seed = 7;
      config.population.verified_only = true;
      config.population.verified_dox = 18;
      return new Testbed(config);
    }();
    return *instance;
  }

  static std::vector<SingleQueryRecord>& single_query_records() {
    static std::vector<SingleQueryRecord> records = [] {
      SingleQueryConfig config;
      config.repetitions = 1;
      SingleQueryStudy study(testbed(), config);
      return study.run();
    }();
    return records;
  }

  static std::vector<WebRecord>& web_records() {
    static std::vector<WebRecord> records = [] {
      WebStudyConfig config;
      config.max_resolvers = 4;
      config.pages = {"wikipedia.org", "facebook.com", "youtube.com"};
      WebStudy study(testbed(), config);
      return study.run();
    }();
    return records;
  }

  static std::vector<std::string> vp_names() {
    std::vector<std::string> names;
    for (auto& vp : testbed().vantage_points()) names.push_back(vp->name);
    return names;
  }

  static double median_ms(dox::DnsProtocol protocol, bool handshake) {
    std::vector<double> values;
    for (const auto& r : single_query_records()) {
      if (!r.success || r.protocol != protocol) continue;
      values.push_back(to_ms(handshake ? r.handshake_time : r.resolve_time));
    }
    return stats::median(values).value_or(0);
  }
};

TEST_F(MeasureFixture, TestbedHasSixVantagePointsAcrossContinents) {
  EXPECT_EQ(testbed().vantage_points().size(), 6u);
  std::set<net::Continent> continents;
  for (auto& vp : testbed().vantage_points()) continents.insert(vp->continent);
  EXPECT_EQ(continents.size(), 6u);
}

TEST_F(MeasureFixture, CellsWalkRepThenVantagePointThenResolverThenProtocol) {
  SingleQueryConfig config;
  config.repetitions = 2;
  config.max_resolvers = 2;
  config.protocols = {dox::DnsProtocol::kDoUdp, dox::DnsProtocol::kDoQ};
  const std::vector<Cell> cells = SingleQueryStudy(testbed(), config).cells();
  ASSERT_EQ(cells.size(), 2u * 6u * 2u * 2u);

  // Two resolvers stride-sampled from the verified list: its first and the
  // one halfway along.
  const auto& verified = testbed().population().verified;
  const std::size_t first = verified[0];
  const std::size_t half = verified[verified.size() / 2];
  EXPECT_EQ(cells[0], (Cell{0, 0, first, dox::DnsProtocol::kDoUdp}));
  EXPECT_EQ(cells[1], (Cell{0, 0, first, dox::DnsProtocol::kDoQ}));
  EXPECT_EQ(cells[2], (Cell{0, 0, half, dox::DnsProtocol::kDoUdp}));
  EXPECT_EQ(cells[4], (Cell{0, 1, first, dox::DnsProtocol::kDoUdp}));
  EXPECT_EQ(cells[24], (Cell{1, 0, first, dox::DnsProtocol::kDoUdp}));
  EXPECT_EQ(cells.back(), (Cell{1, 5, half, dox::DnsProtocol::kDoQ}));

  // The web study walks the same matrix.
  WebStudyConfig web;
  web.repetitions = config.repetitions;
  web.max_resolvers = config.max_resolvers;
  web.protocols = config.protocols;
  EXPECT_EQ(WebStudy(testbed(), web).cells(), cells);
}

TEST_F(MeasureFixture, StudyProducesRecordsForAllCombinations) {
  const auto& records = single_query_records();
  // 6 VPs x (scaled verified set) x 5 protocols x 1 rep. The builder
  // rounds per-continent quotas, so use the actual population size.
  EXPECT_EQ(records.size(),
            6u * testbed().population().verified.size() * 5u);
  int successes = 0;
  for (const auto& r : records) successes += r.success;
  // Resolvers drop ~0.2% of queries; the overwhelming majority succeed.
  EXPECT_GT(successes, static_cast<int>(records.size() * 95 / 100));
}

TEST_F(MeasureFixture, HandshakeRelationshipsMatchPaper) {
  const double tcp = median_ms(dox::DnsProtocol::kDoTcp, true);
  const double doq = median_ms(dox::DnsProtocol::kDoQ, true);
  const double dot = median_ms(dox::DnsProtocol::kDoT, true);
  const double doh = median_ms(dox::DnsProtocol::kDoH, true);
  // Fig. 2a: DoQ ~ DoTCP (1 RTT), DoT ~ DoH ~ 2x (2 RTT).
  EXPECT_NEAR(doq / tcp, 1.0, 0.2);
  EXPECT_NEAR(dot / doh, 1.0, 0.15);
  EXPECT_NEAR(doh / doq, 2.0, 0.35);
}

TEST_F(MeasureFixture, ResolveTimesSimilarAcrossProtocols) {
  // Fig. 2b: cached resolve times are protocol-independent.
  const double base = median_ms(dox::DnsProtocol::kDoUdp, false);
  for (dox::DnsProtocol protocol : dox::kAllProtocols) {
    EXPECT_NEAR(median_ms(protocol, false) / base, 1.0, 0.15)
        << protocol_name(protocol);
  }
}

TEST_F(MeasureFixture, SingleQueryTotalsMatchPaperRatios) {
  // §3.1 takeaway: DoQ ~33% faster than DoT/DoH for the full exchange
  // (handshake + resolve); DoQ trails DoUDP by ~50%, DoT/DoH by ~66%.
  auto total = [&](dox::DnsProtocol p) {
    return median_ms(p, true) + median_ms(p, false);
  };
  const double udp = total(dox::DnsProtocol::kDoUdp);
  const double doq = total(dox::DnsProtocol::kDoQ);
  const double doh = total(dox::DnsProtocol::kDoH);
  EXPECT_NEAR((doh - doq) / doh, 0.33, 0.10);  // DoQ vs DoH improvement
  EXPECT_NEAR((doq - udp) / udp, 1.0, 0.35);   // DoQ ~2x DoUDP (1 extra RTT)
}

TEST_F(MeasureFixture, Table1ShapeHolds) {
  auto rows = table1_sizes(single_query_records());
  ASSERT_EQ(rows.size(), 5u);
  std::map<dox::DnsProtocol, Table1Row> by_protocol;
  for (const auto& row : rows) by_protocol[row.protocol] = row;
  EXPECT_EQ(by_protocol[dox::DnsProtocol::kDoUdp].total_bytes, 122);
  EXPECT_EQ(by_protocol[dox::DnsProtocol::kDoUdp].query_bytes, 59);
  EXPECT_EQ(by_protocol[dox::DnsProtocol::kDoUdp].response_bytes, 63);
  EXPECT_EQ(by_protocol[dox::DnsProtocol::kDoTcp].handshake_c2r, 72);
  // DoQ handshake >= 2x DoH handshake (QUIC padding).
  EXPECT_GE(by_protocol[dox::DnsProtocol::kDoQ].handshake_c2r +
                by_protocol[dox::DnsProtocol::kDoQ].handshake_r2c,
            2 * (by_protocol[dox::DnsProtocol::kDoH].handshake_c2r +
                 by_protocol[dox::DnsProtocol::kDoH].handshake_r2c));
  // Total ordering of Table 1.
  EXPECT_LT(by_protocol[dox::DnsProtocol::kDoUdp].total_bytes,
            by_protocol[dox::DnsProtocol::kDoTcp].total_bytes);
  EXPECT_LT(by_protocol[dox::DnsProtocol::kDoTcp].total_bytes,
            by_protocol[dox::DnsProtocol::kDoT].total_bytes);
  EXPECT_LT(by_protocol[dox::DnsProtocol::kDoT].total_bytes,
            by_protocol[dox::DnsProtocol::kDoH].total_bytes);
  EXPECT_LT(by_protocol[dox::DnsProtocol::kDoH].total_bytes,
            by_protocol[dox::DnsProtocol::kDoQ].total_bytes);
}

TEST_F(MeasureFixture, ProtocolMixMatchesPopulation) {
  auto mix = protocol_mix(single_query_records());
  // All TLS 1.3-capable resolvers resume; nobody does 0-RTT.
  EXPECT_GT(mix.resumption_pct, 95.0);
  EXPECT_EQ(mix.zero_rtt_pct, 0.0);
  EXPECT_GT(mix.quic_version_pct["v1"], 70.0);
  EXPECT_GT(mix.doq_alpn_pct["doq-i02"], 60.0);
}

TEST_F(MeasureFixture, WebStudyRecordsCompleteAndPlausible) {
  const auto& records = web_records();
  // 6 VPs x 4 resolvers x 5 protocols x 3 pages x 4 loads.
  EXPECT_EQ(records.size(), 6u * 4u * 5u * 3u * 4u);
  int successes = 0;
  for (const auto& r : records) {
    successes += r.success;
    if (r.success) {
      EXPECT_GT(r.fcp, 0);
      EXPECT_GE(r.plt, r.fcp);
    }
  }
  EXPECT_GT(successes, static_cast<int>(records.size() * 9 / 10));
}

TEST_F(MeasureFixture, WebPltOrderingMatchesPaper) {
  auto report = fig3_relative(web_records());
  auto median_rel = [&](dox::DnsProtocol p) {
    return stats::median(report.plt_rel[p]).value_or(0);
  };
  // Fig. 3b: DoQ degrades least; DoT (with the dnsproxy bug) is the worst
  // encrypted protocol.
  EXPECT_LT(median_rel(dox::DnsProtocol::kDoQ),
            median_rel(dox::DnsProtocol::kDoH));
  EXPECT_LE(median_rel(dox::DnsProtocol::kDoH),
            median_rel(dox::DnsProtocol::kDoT) + 0.02);
  // Everything is slower than DoUDP in the median.
  EXPECT_GT(median_rel(dox::DnsProtocol::kDoQ), 0.0);
}

TEST_F(MeasureFixture, Fig4AmortizationAcrossPages) {
  auto cells = fig4_cells(web_records(), vp_names());
  // Median DoUDP advantage over DoQ shrinks with page complexity
  // (aggregate across VPs: simple = wikipedia, complex = youtube).
  std::vector<double> simple, complex_page;
  for (const auto& cell : cells) {
    for (double v : cell.doudp_rel) {
      if (cell.page == "wikipedia.org") simple.push_back(v);
      if (cell.page == "youtube.com") complex_page.push_back(v);
    }
  }
  const double simple_med = stats::median(simple).value_or(0);
  const double complex_med = stats::median(complex_page).value_or(0);
  // DoUDP is faster (negative), and notably more so on the simple page.
  EXPECT_LT(simple_med, 0.0);
  EXPECT_GT(complex_med, simple_med + 0.02);
}

TEST_F(MeasureFixture, ReportsRenderNonEmpty) {
  auto rows = table1_sizes(single_query_records());
  EXPECT_NE(render_table1(rows, &web_records()).find("DoQ"),
            std::string::npos);
  auto fig2 = fig2_handshake_resolve(single_query_records(), vp_names());
  EXPECT_EQ(fig2.rows.size(), 7u);  // Total + 6 VPs
  EXPECT_NE(render_fig2(fig2).find("Total"), std::string::npos);
  EXPECT_NE(render_mix(protocol_mix(single_query_records())).find("TLS"),
            std::string::npos);
  EXPECT_NE(render_fig3(fig3_relative(web_records())).find("Quantile"),
            std::string::npos);
  auto cells = fig4_cells(web_records(), vp_names());
  EXPECT_FALSE(cells.empty());
  EXPECT_NE(render_fig4(cells, vp_names()).find("wikipedia"),
            std::string::npos);
}

TEST_F(MeasureFixture, CsvExportsParseableLines) {
  auto sq = single_query_csv(single_query_records());
  auto web = web_csv(web_records());
  // Header + one line per record.
  EXPECT_EQ(std::count(sq.begin(), sq.end(), '\n'),
            static_cast<long>(single_query_records().size() + 1));
  EXPECT_EQ(std::count(web.begin(), web.end(), '\n'),
            static_cast<long>(web_records().size() + 1));
  EXPECT_NE(sq.find("DoQ"), std::string::npos);
  EXPECT_NE(web.find("wikipedia.org"), std::string::npos);
}

}  // namespace
}  // namespace doxlab::measure
