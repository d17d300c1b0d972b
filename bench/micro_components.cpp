// Microbenchmarks of the library's hot components (google-benchmark):
// wire codecs (DNS, QUIC, HPACK, TLS records), the event loop, and a full
// in-simulation DoQ query round trip. These quantify the cost of the
// simulation substrate itself, not the paper's results.
//
// The sim-core suite additionally measures the slab/SBO event loop against
// the seed's shared_ptr+std::function implementation (bench/legacy_sim.h)
// and writes the numbers to BENCH_sim_core.json — the committed hot-path
// baseline. The byte-path suite does the same for the pooled zero-copy
// send/receive path (util::Buffer + in-place framing + scratch decode) vs
// the seed's copy chain, writing BENCH_byte_path.json; it also counts heap
// allocations per forwarded cached query through the full forwarder engine,
// per insert of a new key into a full image L1, and per step of in-flight
// churn on the engine's (qname, qtype) table.
// The long-connection probe times 10k distinct-name queries over one DoQ
// and one DoT transport and compares the last 1000 with the first 1000, so
// per-query cost that grows with a connection's age shows up as a ratio
// independent of host speed.
// Extra flags (stripped before google-benchmark sees them):
//   --smoke        run only the sim-core, byte-path and long-connection
//                  suites, briefly, and exit non-zero on a hot-path
//                  regression (CI guard)
//   --json[=PATH]  write BENCH_sim_core.json (default name) and
//                  BENCH_byte_path.json after the run
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "alloc_count.h"
#include "bench_util.h"
#include "dns/message.h"
#include "dns/record_table.h"
#include "dns/wire_cache.h"
#include "dox/transport.h"
#include "engine/engine.h"
#include "h2/hpack.h"
#include "legacy_dns.h"
#include "legacy_sim.h"
#include "measure/testbed.h"
#include "net/network.h"
#include "quic/wire.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "tls/wire.h"
#include "util/buffer.h"

// Heap allocations come from bench::heap_allocations (alloc_count.h): the
// sim-core suite reports them per event, the headline metric of the
// slab/SBO rewrite.
namespace {

using namespace doxlab;

void BM_DnsEncodeQuery(benchmark::State& state) {
  const auto name = dns::DnsName::parse("www.google.com");
  for (auto _ : state) {
    auto wire = dns::make_query(0x1234, name, dns::RRType::kA).encode();
    benchmark::DoNotOptimize(wire);
  }
}
BENCHMARK(BM_DnsEncodeQuery);

void BM_DnsDecodeResponse(benchmark::State& state) {
  auto query = dns::make_query(1, dns::DnsName::parse("google.com"),
                               dns::RRType::kA);
  auto response = dns::make_response(query);
  response.answers.push_back(
      dns::make_a(dns::DnsName::parse("google.com"), 300, 0x8080404));
  const auto wire = response.encode();
  for (auto _ : state) {
    auto decoded = dns::Message::decode(wire);
    benchmark::DoNotOptimize(decoded);
  }
}
BENCHMARK(BM_DnsDecodeResponse);

void BM_DnsNameCompression(benchmark::State& state) {
  std::vector<dns::DnsName> names;
  for (int i = 0; i < 8; ++i) {
    names.push_back(
        dns::DnsName::parse("host" + std::to_string(i) + ".cdn.example.com"));
  }
  for (auto _ : state) {
    ByteWriter w;
    dns::NameCompressor nc;
    for (const auto& name : names) nc.write(w, name);
    benchmark::DoNotOptimize(w.size());
  }
}
BENCHMARK(BM_DnsNameCompression);

void BM_QuicDatagramRoundTrip(benchmark::State& state) {
  quic::QuicPacket packet;
  packet.type = quic::PacketType::kInitial;
  packet.frames.push_back(quic::Frame::crypto(
      0, util::Buffer::copy_of(std::vector<std::uint8_t>(300, 0xAB))));
  std::vector<quic::QuicPacket> packets = {packet};
  quic::DecodedDatagram decoded;
  for (auto _ : state) {
    auto wire = quic::encode_datagram(packets, true);
    benchmark::DoNotOptimize(quic::decode_datagram(wire, decoded));
  }
}
BENCHMARK(BM_QuicDatagramRoundTrip);

void BM_HpackRequestBlock(benchmark::State& state) {
  const std::vector<h2::Header> headers = {
      {":method", "POST"},
      {":scheme", "https"},
      {":authority", "resolver-9.9.9.9"},
      {":path", "/dns-query"},
      {"content-type", "application/dns-message"},
      {"content-length", "51"},
  };
  for (auto _ : state) {
    h2::HpackEncoder encoder;  // fresh table = first-request cost
    auto block = encoder.encode(headers);
    benchmark::DoNotOptimize(block);
  }
}
BENCHMARK(BM_HpackRequestBlock);

void BM_TlsClientHello(benchmark::State& state) {
  tls::TlsWire wire;
  tls::ClientHello ch;
  ch.sni = "resolver.example";
  ch.alpn = {"doq"};
  ch.psk = tls::SessionTicket{};
  for (auto _ : state) {
    auto record = wire.client_hello_record(ch);
    benchmark::DoNotOptimize(record);
  }
}
BENCHMARK(BM_TlsClientHello);

void BM_EventLoopScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
}
BENCHMARK(BM_EventLoopScheduleRun);

// Steady-state variants: the simulator (and its slab) persists across
// batches, the shape of a real study where one simulator drains millions
// of events. The *Legacy twins run the seed implementation for comparison.
template <typename Sim>
void event_loop_steady(benchmark::State& state, Sim& sim) {
  long long sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < 1000; ++i) {
      sim.schedule(i, [&sink] { ++sink; });
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
}

void BM_EventLoopSteady(benchmark::State& state) {
  sim::Simulator sim;
  event_loop_steady(state, sim);
}
BENCHMARK(BM_EventLoopSteady);

void BM_EventLoopSteadyLegacy(benchmark::State& state) {
  bench::legacy::Simulator sim;
  event_loop_steady(state, sim);
}
BENCHMARK(BM_EventLoopSteadyLegacy);

template <typename Sim, typename TimerT>
void event_loop_cancel_drain(benchmark::State& state, Sim& sim) {
  long long sink = 0;
  std::vector<TimerT> timers;
  timers.reserve(1000);
  for (auto _ : state) {
    timers.clear();
    for (int i = 0; i < 1000; ++i) {
      timers.push_back(sim.schedule(i, [&sink] { ++sink; }));
    }
    // Disarm 75% — the retransmission-timers-cancelled-by-ACKs pattern:
    // each cancel takes its entry out of the heap at once.
    for (int i = 0; i < 1000; ++i) {
      if (i % 4 != 0) timers[i].cancel();
    }
    sim.run();
  }
  benchmark::DoNotOptimize(sink);
}

void BM_EventLoopCancelDrain(benchmark::State& state) {
  sim::Simulator sim;
  event_loop_cancel_drain<sim::Simulator, sim::Timer>(state, sim);
}
BENCHMARK(BM_EventLoopCancelDrain);

void BM_EventLoopCancelDrainLegacy(benchmark::State& state) {
  bench::legacy::Simulator sim;
  event_loop_cancel_drain<bench::legacy::Simulator, bench::legacy::Timer>(
      state, sim);
}
BENCHMARK(BM_EventLoopCancelDrainLegacy);

void BM_FullDoqQuery(benchmark::State& state) {
  // One warmed DoQ query per iteration, full stack, in simulated time.
  measure::TestbedConfig config;
  config.population.verified_only = true;
  config.population.verified_dox = 6;
  measure::Testbed testbed(config);
  auto& sim = testbed.simulator();
  auto& vp = *testbed.vantage_points()[0];
  const dns::Question question{dns::DnsName::parse("google.com"),
                               dns::RRType::kA, dns::RRClass::kIN};
  dox::TransportOptions options;
  options.resolver = testbed.resolver_endpoint(testbed.population().verified[0],
                                               dox::DnsProtocol::kDoQ);
  for (auto _ : state) {
    auto transport = dox::make_transport(dox::DnsProtocol::kDoQ,
                                         vp.deps(sim), options);
    bool done = false;
    transport->resolve(question, [&](dox::QueryResult) { done = true; });
    testbed.run_until_flag(done);
    transport->reset_sessions();
    sim.run_until(sim.now() + 100 * kMillisecond);
    benchmark::DoNotOptimize(done);
  }
}
BENCHMARK(BM_FullDoqQuery);

// ---------------------------------------------------------------------------
// sim-core suite: steady-state ns/event and allocations/event for the new
// slab/SBO simulator vs the frozen seed implementation, reported to
// BENCH_sim_core.json. Timed by hand (not google-benchmark) so one run
// yields exactly the numbers the JSON baseline commits.

struct SimCoreSample {
  double ns_per_op = 0;
  double allocs_per_op = 0;      // global operator new count delta
  double eventfn_heap_per_op = 0;  // EventFn SBO fallbacks (new sim only)
};

/// Schedule `batch` small-capture events and drain, `trials` times.
template <typename Sim>
SimCoreSample measure_fire(Sim& sim, int trials, int batch) {
  long long sink = 0;
  const std::uint64_t allocs0 = bench::heap_allocations();
  const std::uint64_t sbo0 = sim::EventFn::heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < trials; ++t) {
    for (int i = 0; i < batch; ++i) sim.schedule(i, [&sink] { ++sink; });
    sim.run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  const double ops = static_cast<double>(trials) * batch;
  SimCoreSample sample;
  sample.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
  sample.allocs_per_op =
      static_cast<double>(bench::heap_allocations() - allocs0) / ops;
  sample.eventfn_heap_per_op =
      static_cast<double>(sim::EventFn::heap_allocations() - sbo0) / ops;
  return sample;
}

/// Schedule, cancel 75%, drain — the eager-cancel path (each cancel
/// removes its heap entry).
template <typename Sim, typename TimerT>
SimCoreSample measure_cancel(Sim& sim, int trials, int batch) {
  long long sink = 0;
  std::vector<TimerT> timers;
  timers.reserve(batch);
  const std::uint64_t allocs0 = bench::heap_allocations();
  const std::uint64_t sbo0 = sim::EventFn::heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < trials; ++t) {
    timers.clear();
    for (int i = 0; i < batch; ++i) {
      timers.push_back(sim.schedule(i, [&sink] { ++sink; }));
    }
    for (int i = 0; i < batch; ++i) {
      if (i % 4 != 0) timers[i].cancel();
    }
    sim.run();
  }
  const auto t1 = std::chrono::steady_clock::now();
  benchmark::DoNotOptimize(sink);
  const double ops = static_cast<double>(trials) * batch;
  SimCoreSample sample;
  sample.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / ops;
  sample.allocs_per_op =
      static_cast<double>(bench::heap_allocations() - allocs0) / ops;
  sample.eventfn_heap_per_op =
      static_cast<double>(sim::EventFn::heap_allocations() - sbo0) / ops;
  return sample;
}

struct SimCoreResults {
  SimCoreSample fire_new, fire_legacy;
  SimCoreSample cancel_new, cancel_legacy;
};

/// Keeps the faster timing (machine noise only ever slows a run down);
/// allocation counts are identical across passes.
void keep_best(SimCoreSample& best, const SimCoreSample& sample) {
  if (best.ns_per_op == 0 || sample.ns_per_op < best.ns_per_op) best = sample;
}

SimCoreResults run_sim_core_suite(int trials) {
  // Queue depth 256: study simulators run shallow queues (in-flight packets
  // and timers), so deep-heap sift costs — identical in both
  // implementations — should not dominate the comparison.
  constexpr int kBatch = 256;
  constexpr int kPasses = 3;  // best-of-N to shed scheduler noise
  const int warmup = trials / 10 + 10;
  SimCoreResults r;
  for (int pass = 0; pass < kPasses; ++pass) {
    {
      sim::Simulator sim;
      measure_fire(sim, warmup, kBatch);
      keep_best(r.fire_new, measure_fire(sim, trials, kBatch));
    }
    {
      bench::legacy::Simulator sim;
      measure_fire(sim, warmup, kBatch);
      keep_best(r.fire_legacy, measure_fire(sim, trials, kBatch));
    }
    {
      sim::Simulator sim;
      measure_cancel<sim::Simulator, sim::Timer>(sim, warmup, kBatch);
      keep_best(r.cancel_new, measure_cancel<sim::Simulator, sim::Timer>(
                                  sim, trials, kBatch));
    }
    {
      bench::legacy::Simulator sim;
      measure_cancel<bench::legacy::Simulator, bench::legacy::Timer>(
          sim, warmup, kBatch);
      keep_best(
          r.cancel_legacy,
          measure_cancel<bench::legacy::Simulator, bench::legacy::Timer>(
              sim, trials, kBatch));
    }
  }
  return r;
}

void report_sim_core(const SimCoreResults& r, bench::JsonReporter& json) {
  const double fire_speedup = r.fire_legacy.ns_per_op / r.fire_new.ns_per_op;
  const double cancel_speedup =
      r.cancel_legacy.ns_per_op / r.cancel_new.ns_per_op;
  bench::banner("sim-core: slab/SBO event loop vs seed implementation");
  std::printf("schedule/fire     %7.1f ns/event  (legacy %7.1f)  %0.2fx\n",
              r.fire_new.ns_per_op, r.fire_legacy.ns_per_op, fire_speedup);
  std::printf("schedule/cancel   %7.1f ns/op     (legacy %7.1f)  %0.2fx\n",
              r.cancel_new.ns_per_op, r.cancel_legacy.ns_per_op,
              cancel_speedup);
  std::printf("allocations/event %7.4f           (legacy %7.4f)\n",
              r.fire_new.allocs_per_op, r.fire_legacy.allocs_per_op);
  std::printf("EventFn SBO heap fallbacks/event: %.4f\n",
              r.fire_new.eventfn_heap_per_op);

  json.metric("sim_core_fire", "ns_per_event", r.fire_new.ns_per_op);
  json.metric("sim_core_fire", "ns_per_event_legacy",
              r.fire_legacy.ns_per_op);
  json.metric("sim_core_fire", "events_per_sec",
              1e9 / r.fire_new.ns_per_op);
  json.metric("sim_core_fire", "speedup_vs_legacy", fire_speedup);
  json.metric("sim_core_fire", "heap_allocs_per_event",
              r.fire_new.allocs_per_op);
  json.metric("sim_core_fire", "heap_allocs_per_event_legacy",
              r.fire_legacy.allocs_per_op);
  json.metric("sim_core_fire", "eventfn_heap_fallbacks_per_event",
              r.fire_new.eventfn_heap_per_op);
  json.metric("sim_core_cancel", "ns_per_op", r.cancel_new.ns_per_op);
  json.metric("sim_core_cancel", "ns_per_op_legacy",
              r.cancel_legacy.ns_per_op);
  json.metric("sim_core_cancel", "speedup_vs_legacy", cancel_speedup);
  json.metric("sim_core_cancel", "heap_allocs_per_op",
              r.cancel_new.allocs_per_op);
  json.metric("sim_core_cancel", "heap_allocs_per_op_legacy",
              r.cancel_legacy.allocs_per_op);
}

// ---------------------------------------------------------------------------
// byte-path suite: the pooled zero-copy send/receive path vs the seed's
// copy-chain (vector encode, per-hop payload copy, allocating decode),
// reported to BENCH_byte_path.json. Timed by hand like the sim-core suite.

struct BytePathSample {
  double ns_per_op = 0;
  double allocs_per_op = 0;  // global operator new count delta
};

/// Times `op` over `trials` iterations, reporting ns and allocations per op.
template <typename Op>
BytePathSample measure_ops(int trials, Op&& op) {
  const std::uint64_t allocs0 = bench::heap_allocations();
  const auto t0 = std::chrono::steady_clock::now();
  for (int t = 0; t < trials; ++t) op();
  const auto t1 = std::chrono::steady_clock::now();
  BytePathSample sample;
  sample.ns_per_op =
      std::chrono::duration<double, std::nano>(t1 - t0).count() / trials;
  sample.allocs_per_op =
      static_cast<double>(bench::heap_allocations() - allocs0) / trials;
  return sample;
}

/// The study's DoUDP exchange: the 59-byte query and 63-byte response, in
/// both today's codec and the frozen seed codec (bench/legacy_dns.h). The
/// constructor asserts both produce identical wire bytes, so the two sides
/// of the comparison do identical protocol work.
struct DoudpMessages {
  dns::Message query;
  dns::Message response;
  bench::legacy::Message legacy_query;
  bench::legacy::Message legacy_response;

  DoudpMessages() {
    query = dns::make_query(0x1234, dns::DnsName::parse("google.com"),
                            dns::RRType::kA);
    response = dns::make_response(query);
    response.answers.push_back(
        dns::make_a(dns::DnsName::parse("google.com"), 300, 0x08080404));
    legacy_query = *bench::legacy::decode(query.encode());
    legacy_response = *bench::legacy::decode(response.encode());
    if (bench::legacy::encode(legacy_query) != query.encode() ||
        bench::legacy::encode(legacy_response) != response.encode()) {
      std::fprintf(stderr, "legacy codec fixture diverged from current\n");
      std::abort();
    }
  }
};

/// Seed path: vector encode (std::map suffix compression), a per-hop
/// payload copy (the old net::Packet payload vector), then the decode that
/// built a std::vector<std::string> per name.
BytePathSample measure_roundtrip_legacy(int trials) {
  DoudpMessages m;
  return measure_ops(trials, [&] {
    std::vector<std::uint8_t> query_wire = bench::legacy::encode(m.legacy_query);
    std::vector<std::uint8_t> delivered_q(query_wire);  // hop copy
    auto decoded_q = bench::legacy::decode(delivered_q);
    benchmark::DoNotOptimize(decoded_q);
    std::vector<std::uint8_t> response_wire =
        bench::legacy::encode(m.legacy_response);
    std::vector<std::uint8_t> delivered_r(response_wire);  // hop copy
    auto decoded_r = bench::legacy::decode(delivered_r);
    benchmark::DoNotOptimize(decoded_r);
  });
}

/// Pooled path: one slab per message, moved through the hop, decoded into
/// reusable scratch storage.
BytePathSample measure_roundtrip_pooled(int trials) {
  DoudpMessages m;
  dns::Message scratch_q, scratch_r;
  return measure_ops(trials, [&] {
    util::Buffer query_wire = m.query.encode_buffer();
    util::Buffer delivered_q = std::move(query_wire);  // zero-copy hop
    dns::Message::decode_into(delivered_q, scratch_q);
    benchmark::DoNotOptimize(scratch_q.id);
    util::Buffer response_wire = m.response.encode_buffer();
    util::Buffer delivered_r = std::move(response_wire);  // zero-copy hop
    dns::Message::decode_into(delivered_r, scratch_r);
    benchmark::DoNotOptimize(scratch_r.id);
  });
}

/// Seed DoT framing chain: encode vector, copy into a length-prefixed
/// vector, copy again into a TLS application-data record vector.
BytePathSample measure_dot_frame_legacy(int trials) {
  DoudpMessages m;
  return measure_ops(trials, [&] {
    std::vector<std::uint8_t> msg = bench::legacy::encode(m.legacy_query);
    std::vector<std::uint8_t> prefixed;
    prefixed.reserve(2 + msg.size());
    prefixed.push_back(static_cast<std::uint8_t>(msg.size() >> 8));
    prefixed.push_back(static_cast<std::uint8_t>(msg.size() & 0xFF));
    prefixed.insert(prefixed.end(), msg.begin(), msg.end());
    std::vector<std::uint8_t> record;
    record.reserve(tls::kRecordHeaderBytes + prefixed.size() +
                   tls::kAeadTagBytes);
    const std::size_t record_len = prefixed.size() + tls::kAeadTagBytes;
    record.push_back(0x17);
    record.push_back(0x03);
    record.push_back(0x03);
    record.push_back(static_cast<std::uint8_t>(record_len >> 8));
    record.push_back(static_cast<std::uint8_t>(record_len & 0xFF));
    record.insert(record.end(), prefixed.begin(), prefixed.end());
    record.insert(record.end(), tls::kAeadTagBytes, 0);
    benchmark::DoNotOptimize(record);
  });
}

/// Pooled DoT framing: the length prefix and TLS record header are
/// prepended into the message's headroom in place — one slab end to end.
BytePathSample measure_dot_frame_pooled(int trials) {
  DoudpMessages m;
  tls::TlsWire wire;
  constexpr std::size_t kDotHeadroom = 2 + tls::kRecordHeaderBytes;
  return measure_ops(trials, [&] {
    util::Buffer msg = m.query.encode_buffer(kDotHeadroom);
    const std::size_t len = msg.size();
    std::uint8_t* prefix = msg.prepend(2);
    prefix[0] = static_cast<std::uint8_t>(len >> 8);
    prefix[1] = static_cast<std::uint8_t>(len & 0xFF);
    util::Buffer record = wire.seal_application_data(std::move(msg));
    benchmark::DoNotOptimize(record.size());
  });
}

/// A Message-path cached answer, componentized: decode the query into
/// scratch, rebuild the response in scratch (id echo + record copies),
/// re-encode into a pooled buffer. The reference the image hit is measured
/// against, with the same fixture on both sides.
BytePathSample measure_message_cached(int trials) {
  DoudpMessages m;
  const std::vector<std::uint8_t> query_wire = m.query.encode();
  dns::Message scratch_q, scratch_r;
  return measure_ops(trials, [&] {
    dns::Message::decode_into(query_wire, scratch_q);
    scratch_r.id = scratch_q.id;
    scratch_r.qr = true;
    scratch_r.ra = true;
    scratch_r.rcode = dns::RCode::kNoError;
    scratch_r.questions = scratch_q.questions;
    scratch_r.answers = m.response.answers;  // the cached records
    scratch_r.authorities.clear();
    scratch_r.additionals.clear();
    util::Buffer out = scratch_r.encode_buffer();
    benchmark::DoNotOptimize(out.size());
  });
}

/// The engine's cached answer for the same exchange: the validating scan
/// of the query, an image-L1 lookup one second after insertion, and the
/// copy-and-patch of id, qclass and decayed TTLs — no Message anywhere.
BytePathSample measure_image_cached(int trials) {
  DoudpMessages m;
  dns::WireCache cache;
  cache.insert(m.query.questions[0].name, m.query.questions[0].type,
               dns::ResponseImage::answer_to(m.query.questions[0],
                                             m.response.answers),
               0);
  const std::vector<std::uint8_t> query_wire = m.query.encode();
  dns::MessageHead head;
  dns::DnsName name;
  return measure_ops(trials, [&] {
    if (!dns::scan_message(query_wire, head) ||
        !dns::read_question_name(query_wire, name)) {
      std::abort();
    }
    const auto hit = cache.lookup(name, head.qtype, kSecond);
    if (!hit) std::abort();
    util::Buffer out = hit->image->answer(head.id, head.qclass,
                                          dns::TtlRewrite::decay(hit->age_s));
    benchmark::DoNotOptimize(out.size());
  });
}

/// Heap allocations per insert of a new key into an image L1 at the
/// engine's default capacity (4096), every insert evicting: the new key
/// takes over the evicted entry's node and key storage. The names all have
/// one length and are parsed up front; every insert stores the same shared
/// image, so copying it only bumps a refcount.
double measure_l1_insert_allocs(int inserts) {
  constexpr std::size_t kCapacity = 4096;
  const std::size_t total = kCapacity + static_cast<std::size_t>(inserts);
  std::vector<dns::DnsName> names;
  names.reserve(total);
  for (std::size_t i = 0; i < total; ++i) {
    char label[16];
    std::snprintf(label, sizeof(label), "n%08zu", i);
    names.push_back(dns::DnsName::parse(std::string(label) + ".example.com"));
  }
  const dns::ResponseImage image = dns::ResponseImage::answer_to(
      dns::Question{names[0], dns::RRType::kA, dns::RRClass::kIN},
      std::vector<dns::ResourceRecord>{dns::make_a(names[0], 300, 1)});
  dns::WireCache cache(kCapacity);
  for (std::size_t i = 0; i < kCapacity; ++i) {
    cache.insert(names[i], dns::RRType::kA, image, 0);
  }
  const std::uint64_t allocs0 = bench::heap_allocations();
  for (std::size_t i = kCapacity; i < names.size(); ++i) {
    cache.insert(names[i], dns::RRType::kA, image, kSecond);
  }
  const std::uint64_t allocs = bench::heap_allocations() - allocs0;
  if (cache.size() != kCapacity ||
      cache.evictions() != static_cast<std::uint64_t>(inserts)) {
    std::fprintf(stderr, "l1 insert probe: %zu entries, %llu evictions\n",
                 cache.size(),
                 static_cast<unsigned long long>(cache.evictions()));
    return -1.0;
  }
  return static_cast<double>(allocs) / inserts;
}

/// Heap allocations per step of steady-state in-flight churn on the
/// engine's (qname, qtype) table: a resolve starts (a new key), a second
/// query coalesces onto it (the key found again), and the oldest of 64 live
/// resolves finishes (its key erased). 1024 names of one length, parsed up
/// front, cycle through the table, so each start reuses a node, and the
/// name storage in it, that an earlier finish freed. The value is a waiter
/// count, so every allocation counted is the table's.
double measure_inflight_churn_allocs(int steps) {
  constexpr std::size_t kLive = 64;
  std::vector<dns::DnsName> names;
  for (std::size_t i = 0; i < 1024; ++i) {
    char label[16];
    std::snprintf(label, sizeof(label), "r%08zu", i);
    names.push_back(dns::DnsName::parse(std::string(label) + ".example.com"));
  }
  dns::RecordTable<std::uint32_t> inflight;
  bool ok = true;
  const auto step = [&](std::size_t i) {
    const dns::DnsName& name = names[i % names.size()];
    ++inflight.value(inflight.try_emplace(name, dns::RRType::kA).first);
    ++inflight.value(inflight.try_emplace(name, dns::RRType::kA).first);
    if (i < kLive) return;
    const dns::NodeIndex done =
        inflight.find(names[(i - kLive) % names.size()], dns::RRType::kA);
    ok = ok && done != dns::kNoNode && inflight.value(done) == 2;
    if (done != dns::kNoNode) inflight.erase(done);
  };
  const std::size_t warmup = 2 * names.size();
  for (std::size_t i = 0; i < warmup; ++i) step(i);
  const std::uint64_t allocs0 = bench::heap_allocations();
  for (std::size_t i = warmup; i < warmup + static_cast<std::size_t>(steps);
       ++i) {
    step(i);
  }
  const std::uint64_t allocs = bench::heap_allocations() - allocs0;
  if (!ok || inflight.size() != kLive) {
    std::fprintf(stderr, "in-flight churn probe: %zu live, lookups %s\n",
                 inflight.size(), ok ? "ok" : "failed");
    return -1.0;
  }
  return static_cast<double>(allocs) / steps;
}

/// One client host and one loss-free upstream resolver 10 ms away.
struct UpstreamWorld {
  UpstreamWorld()
      : network(sim, Rng(33)),
        host(network.add_host("client",
                              net::IpAddress::from_octets(10, 1, 0, 1),
                              {50.11, 8.68}, net::Continent::kEurope)),
        udp(host),
        tcp(host) {
    network.set_loss_rate(0.0);
    profile.name = "upstream";
    profile.address = net::IpAddress::from_octets(10, 2, 0, 1);
    profile.location = {48.86, 2.35};
    profile.secret = 0xAA;
    profile.drop_probability = 0.0;
    upstream = std::make_unique<resolver::DoxResolver>(network, profile,
                                                       Rng(1));
    network.set_path_override(host.address(), profile.address, from_ms(10));
  }

  dox::TransportDeps deps() {
    dox::TransportDeps d;
    d.sim = &sim;
    d.udp = &udp;
    d.tcp = &tcp;
    d.tickets = &tickets;
    d.doq_cache = &doq_cache;
    return d;
  }

  sim::Simulator sim;
  net::Network network;
  net::Host& host;
  net::UdpStack udp;
  tcp::TcpStack tcp;
  tls::TicketStore tickets;
  dox::DoqSessionCache doq_cache;
  resolver::ResolverProfile profile;
  std::unique_ptr<resolver::DoxResolver> upstream;
};

/// Heap allocations per forwarded cached DoUDP query through the full
/// forwarder engine under its default config (stub socket -> UDP -> scan
/// -> L1 image hit -> patch -> UDP -> stub socket), measured steady-state
/// after warm-up.
double measure_engine_cached_allocs(int queries) {
  UpstreamWorld world;
  sim::Simulator& sim = world.sim;
  engine::UpstreamConfig upstream_config;
  upstream_config.name = world.profile.name;
  upstream_config.address = world.profile.address;
  upstream_config.protocols = {dox::DnsProtocol::kDoUdp};
  engine::ForwarderEngine engine(sim, world.udp, world.deps(),
                                 {upstream_config}, engine::EngineConfig{});

  auto socket = world.udp.bind_ephemeral();
  std::uint64_t answered = 0;
  socket->on_datagram(
      [&](const net::Endpoint&, util::Buffer) { ++answered; });
  const dns::Message query = dns::make_query(
      0x77, dns::DnsName::parse("cached.example.com"), dns::RRType::kA);
  const util::Buffer query_wire = query.encode_buffer();
  const net::Endpoint engine_ep{world.host.address(), 53};

  // Warm-up: the first query resolves upstream and fills the cache; the
  // rest drive every scratch vector and the buffer pool to their
  // steady-state high-water marks.
  for (int i = 0; i < 1024; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + (i == 0 ? kSecond : kMillisecond));
  }

  const std::uint64_t before = answered;
  const std::uint64_t allocs0 = bench::heap_allocations();
  for (int i = 0; i < queries; ++i) {
    socket->send_to(engine_ep, query_wire);
    sim.run_until(sim.now() + kMillisecond);
  }
  const std::uint64_t allocs = bench::heap_allocations() - allocs0;
  if (answered - before != static_cast<std::uint64_t>(queries)) {
    std::fprintf(stderr,
                 "byte-path engine probe: %llu/%d cached queries answered\n",
                 static_cast<unsigned long long>(answered - before), queries);
    return -1.0;
  }
  return static_cast<double>(allocs) / queries;
}

// ---------------------------------------------------------------------------
// long-connection suite: per-query wall time early and late in the life of
// one upstream connection. A connection whose per-packet work grows with its
// age (the received-packet bookkeeping behind every ACK, per-stream state)
// makes late queries slower than early ones.

constexpr int kLongConnQueries = 10'000;
constexpr int kLongConnWindow = 1'000;

struct CostGrowth {
  std::string_view protocol;
  double first_us = -1;  ///< mean of queries 1..1000; < 0 on failure
  double last_us = -1;   ///< mean of queries 9001..10000
  /// Heap allocations per query over queries 9001..10000, the probe's own
  /// name building included; < 0 on failure.
  double allocs_per_query = -1;
  double ratio() const { return first_us > 0 ? last_us / first_us : -1; }
};

/// Resolves `queries` distinct names one after another over one transport
/// to one resolver and compares the first and last windows.
CostGrowth measure_long_connection(dox::DnsProtocol protocol, int queries) {
  CostGrowth growth{dox::protocol_name(protocol)};
  UpstreamWorld world;
  dox::TransportOptions options;
  options.resolver =
      net::Endpoint{world.profile.address, dox::default_port(protocol)};
  auto transport = dox::make_transport(protocol, world.deps(), options);
  std::vector<double> us;
  us.reserve(static_cast<std::size_t>(queries));
  std::uint64_t window_allocs = 0;
  for (int i = 0; i < queries; ++i) {
    if (i == queries - kLongConnWindow) {
      window_allocs = bench::heap_allocations();
    }
    const dns::Question question{
        dns::DnsName::parse("q" + std::to_string(i) + ".growth.example"),
        dns::RRType::kA, dns::RRClass::kIN};
    bool done = false;
    bool ok = false;
    const auto t0 = std::chrono::steady_clock::now();
    transport->resolve(question, [&](dox::QueryResult r) {
      ok = r.ok();
      done = true;
    });
    while (!done && world.sim.step()) {
    }
    us.push_back(std::chrono::duration<double, std::micro>(
                     std::chrono::steady_clock::now() - t0)
                     .count());
    if (!ok) {
      std::fprintf(stderr, "long-connection %.*s probe: query %d failed\n",
                   static_cast<int>(growth.protocol.size()),
                   growth.protocol.data(), i);
      return growth;
    }
  }
  const auto window_mean = [&](std::size_t begin) {
    double sum = 0;
    for (std::size_t i = begin; i < begin + kLongConnWindow; ++i) sum += us[i];
    return sum / kLongConnWindow;
  };
  growth.first_us = window_mean(0);
  growth.last_us = window_mean(us.size() - kLongConnWindow);
  growth.allocs_per_query =
      static_cast<double>(bench::heap_allocations() - window_allocs) /
      kLongConnWindow;
  return growth;
}

std::vector<CostGrowth> run_long_conn_suite() {
  return {measure_long_connection(dox::DnsProtocol::kDoQ, kLongConnQueries),
          measure_long_connection(dox::DnsProtocol::kDoT, kLongConnQueries)};
}

void report_long_conn(const std::vector<CostGrowth>& results) {
  bench::banner("long connection: per-query cost, first vs last 1k of 10k");
  for (const CostGrowth& g : results) {
    std::printf("%-4.*s first1k %7.1f us  last1k %7.1f us  growth %5.2fx  "
                "last1k %6.1f heap allocations/query\n",
                static_cast<int>(g.protocol.size()), g.protocol.data(),
                g.first_us, g.last_us, g.ratio(), g.allocs_per_query);
  }
}

struct BytePathResults {
  BytePathSample roundtrip_new, roundtrip_legacy;
  BytePathSample frame_new, frame_legacy;
  BytePathSample image_cached, message_cached;
  double engine_allocs_per_query = 0;
  double l1_insert_allocs = 0;
  double inflight_churn_allocs = 0;
};

void keep_best(BytePathSample& best, const BytePathSample& sample) {
  if (best.ns_per_op == 0 || sample.ns_per_op < best.ns_per_op) best = sample;
}

BytePathResults run_byte_path_suite(int trials) {
  constexpr int kPasses = 3;  // best-of-N to shed scheduler noise
  const int warmup = trials / 10 + 10;
  BytePathResults r;
  for (int pass = 0; pass < kPasses; ++pass) {
    measure_roundtrip_pooled(warmup);
    keep_best(r.roundtrip_new, measure_roundtrip_pooled(trials));
    measure_roundtrip_legacy(warmup);
    keep_best(r.roundtrip_legacy, measure_roundtrip_legacy(trials));
    measure_dot_frame_pooled(warmup);
    keep_best(r.frame_new, measure_dot_frame_pooled(trials));
    measure_dot_frame_legacy(warmup);
    keep_best(r.frame_legacy, measure_dot_frame_legacy(trials));
    measure_image_cached(warmup);
    keep_best(r.image_cached, measure_image_cached(trials));
    measure_message_cached(warmup);
    keep_best(r.message_cached, measure_message_cached(trials));
  }
  r.engine_allocs_per_query = measure_engine_cached_allocs(/*queries=*/1000);
  r.l1_insert_allocs = measure_l1_insert_allocs(/*inserts=*/8192);
  r.inflight_churn_allocs = measure_inflight_churn_allocs(/*steps=*/8192);
  return r;
}

void report_byte_path(const BytePathResults& r, bench::JsonReporter& json) {
  const double rt_speedup =
      r.roundtrip_legacy.ns_per_op / r.roundtrip_new.ns_per_op;
  const double frame_speedup =
      r.frame_legacy.ns_per_op / r.frame_new.ns_per_op;
  bench::banner("byte-path: pooled zero-copy stack vs seed copy chain");
  std::printf("DoUDP encode->deliver->decode %8.1f ns/op (legacy %8.1f)  "
              "%0.2fx\n",
              r.roundtrip_new.ns_per_op, r.roundtrip_legacy.ns_per_op,
              rt_speedup);
  std::printf("  allocations/op              %8.4f       (legacy %8.4f)\n",
              r.roundtrip_new.allocs_per_op, r.roundtrip_legacy.allocs_per_op);
  std::printf("DoT in-place framing          %8.1f ns/op (legacy %8.1f)  "
              "%0.2fx\n",
              r.frame_new.ns_per_op, r.frame_legacy.ns_per_op, frame_speedup);
  std::printf("  allocations/op              %8.4f       (legacy %8.4f)\n",
              r.frame_new.allocs_per_op, r.frame_legacy.allocs_per_op);
  const double image_speedup =
      r.message_cached.ns_per_op / r.image_cached.ns_per_op;
  const double image_cached_qps = 1e9 / r.image_cached.ns_per_op;
  std::printf("image hit (scan+lookup+patch) %8.1f ns/op (msg    %8.1f)  "
              "%0.2fx\n",
              r.image_cached.ns_per_op, r.message_cached.ns_per_op,
              image_speedup);
  std::printf("  allocations/op              %8.4f       (msg    %8.4f)\n",
              r.image_cached.allocs_per_op, r.message_cached.allocs_per_op);
  std::printf("  image-cached throughput     %8.0f hits/s single-thread\n",
              image_cached_qps);
  std::printf("engine cached-query heap allocations/query: %.4f\n",
              r.engine_allocs_per_query);
  std::printf("image L1 insert at capacity heap allocations/insert: %.4f\n",
              r.l1_insert_allocs);
  std::printf("in-flight table churn heap allocations/step: %.4f\n",
              r.inflight_churn_allocs);

  json.metric("byte_path_roundtrip", "ns_per_op", r.roundtrip_new.ns_per_op);
  json.metric("byte_path_roundtrip", "ns_per_op_legacy",
              r.roundtrip_legacy.ns_per_op);
  json.metric("byte_path_roundtrip", "speedup_vs_legacy", rt_speedup);
  json.metric("byte_path_roundtrip", "heap_allocs_per_op",
              r.roundtrip_new.allocs_per_op);
  json.metric("byte_path_roundtrip", "heap_allocs_per_op_legacy",
              r.roundtrip_legacy.allocs_per_op);
  json.metric("byte_path_dot_frame", "ns_per_op", r.frame_new.ns_per_op);
  json.metric("byte_path_dot_frame", "ns_per_op_legacy",
              r.frame_legacy.ns_per_op);
  json.metric("byte_path_dot_frame", "speedup_vs_legacy", frame_speedup);
  json.metric("byte_path_image_cache", "ns_per_hit", r.image_cached.ns_per_op);
  json.metric("byte_path_image_cache", "ns_per_hit_message_path",
              r.message_cached.ns_per_op);
  json.metric("byte_path_image_cache", "speedup_vs_message_path",
              image_speedup);
  json.metric("byte_path_image_cache", "image_cached_qps", image_cached_qps);
  json.metric("byte_path_image_cache", "heap_allocs_per_hit",
              r.image_cached.allocs_per_op);
  json.metric("byte_path_engine", "heap_allocs_per_cached_query",
              r.engine_allocs_per_query);
  json.metric("byte_path_l1_insert", "heap_allocs_per_insert",
              r.l1_insert_allocs);
  json.metric("byte_path_inflight_churn", "heap_allocs_per_step",
              r.inflight_churn_allocs);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool write_json = false;
  std::string json_path = "BENCH_sim_core.json";
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strncmp(argv[i], "--json", 6) == 0) {
      write_json = true;
      if (argv[i][6] == '=') json_path = argv[i] + 7;
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  int pass_argc = static_cast<int>(passthrough.size());

  if (smoke) {
    // CI guard: short run, only the sim-core and byte-path suites. Fails
    // on a hot-path regression — allocations crept back in or a speedup
    // collapsed. The gates (1.3x) are deliberately looser than the
    // committed baselines (>=2x) to keep noisy shared runners from flaking.
    const SimCoreResults r = run_sim_core_suite(/*trials=*/300);
    const BytePathResults b = run_byte_path_suite(/*trials=*/3000);
    const std::vector<CostGrowth> long_conn = run_long_conn_suite();
    bench::JsonReporter json;
    report_sim_core(r, json);
    bench::JsonReporter byte_json;
    report_byte_path(b, byte_json);
    report_long_conn(long_conn);
    if (write_json && !json.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    bool ok = true;
    if (r.fire_new.allocs_per_op > 0.01 ||
        r.fire_new.eventfn_heap_per_op > 0.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: event hot path allocates (%.4f heap, %.4f "
                   "SBO fallback per event)\n",
                   r.fire_new.allocs_per_op, r.fire_new.eventfn_heap_per_op);
      ok = false;
    }
    const double fire_speedup =
        r.fire_legacy.ns_per_op / r.fire_new.ns_per_op;
    if (fire_speedup < 1.3) {
      std::fprintf(stderr,
                   "SMOKE FAIL: schedule/fire speedup %.2fx < 1.3x floor\n",
                   fire_speedup);
      ok = false;
    }
    const double rt_speedup =
        b.roundtrip_legacy.ns_per_op / b.roundtrip_new.ns_per_op;
    if (rt_speedup < 1.3) {
      std::fprintf(stderr,
                   "SMOKE FAIL: byte-path round-trip speedup %.2fx < 1.3x "
                   "floor\n",
                   rt_speedup);
      ok = false;
    }
    if (b.engine_allocs_per_query < 0 ||
        b.engine_allocs_per_query > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: cached engine query allocates (%.4f heap "
                   "allocations per query; gate 0.01)\n",
                   b.engine_allocs_per_query);
      ok = false;
    }
    const double image_speedup =
        b.message_cached.ns_per_op / b.image_cached.ns_per_op;
    if (image_speedup < 2.0) {
      std::fprintf(stderr,
                   "SMOKE FAIL: image hit speedup %.2fx < 2.0x floor over "
                   "the Message cached path\n",
                   image_speedup);
      ok = false;
    }
    if (b.l1_insert_allocs < 0 || b.l1_insert_allocs > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: image L1 insert at capacity allocates (%.4f "
                   "heap allocations per insert; gate 0.01)\n",
                   b.l1_insert_allocs);
      ok = false;
    }
    if (b.inflight_churn_allocs < 0 || b.inflight_churn_allocs > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: in-flight table churn allocates (%.4f heap "
                   "allocations per step; gate 0.01)\n",
                   b.inflight_churn_allocs);
      ok = false;
    }
    if (b.image_cached.allocs_per_op > 0.01) {
      std::fprintf(stderr,
                   "SMOKE FAIL: image hit allocates (%.4f heap allocations "
                   "per hit; gate 0.01)\n",
                   b.image_cached.allocs_per_op);
      ok = false;
    }
    // DoQ's connection bookkeeping may cost no more allocations per query
    // than DoT's TCP and TLS record layers: the same resolver, names and
    // answers on both, so the DNS and resolver work cancels out.
    const CostGrowth& doq = long_conn[0];
    const CostGrowth& dot = long_conn[1];
    if (doq.allocs_per_query < 0 || dot.allocs_per_query < 0 ||
        doq.allocs_per_query > dot.allocs_per_query) {
      std::fprintf(stderr,
                   "SMOKE FAIL: a warm DoQ query makes %.1f heap allocations, "
                   "more than DoT's %.1f\n",
                   doq.allocs_per_query, dot.allocs_per_query);
      ok = false;
    }
    // Both windows come from the same run, so host speed cancels out.
    for (const CostGrowth& g : long_conn) {
      if (g.ratio() < 0 || g.ratio() > 1.5) {
        std::fprintf(stderr,
                     "SMOKE FAIL: %.*s per-query cost grows %.2fx from the "
                     "first to the last 1k queries on one connection "
                     "(gate 1.5x)\n",
                     static_cast<int>(g.protocol.size()), g.protocol.data(),
                     g.ratio());
        ok = false;
      }
    }
    std::printf("\nhot-path smoke: %s\n", ok ? "OK" : "REGRESSION");
    return ok ? 0 : 1;
  }

  benchmark::Initialize(&pass_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(pass_argc,
                                             passthrough.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  const SimCoreResults r = run_sim_core_suite(/*trials=*/2000);
  bench::JsonReporter json;
  report_sim_core(r, json);
  const BytePathResults b = run_byte_path_suite(/*trials=*/20000);
  bench::JsonReporter byte_json;
  report_byte_path(b, byte_json);
  if (write_json) {
    if (!json.write_file(json_path)) {
      std::fprintf(stderr, "failed to write %s\n", json_path.c_str());
      return 1;
    }
    std::printf("sim-core baseline -> %s\n", json_path.c_str());
    if (!byte_json.write_file("BENCH_byte_path.json")) {
      std::fprintf(stderr, "failed to write BENCH_byte_path.json\n");
      return 1;
    }
    std::printf("byte-path baseline -> BENCH_byte_path.json\n");
  }
  return 0;
}
