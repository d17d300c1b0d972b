// The traced run. Tracing here is outside-in: every span is recorded by the
// benchmark around a call into one layer's public functions, fed with the
// workload's own inputs (its name population and arrival stream). Nothing
// inside the program is instrumented. Counts come from the public result
// structs of the workload's own call.
#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>

#include "dns/cache.h"
#include "dns/message.h"
#include "dns/packet_cache.h"
#include "dox/transport.h"
#include "doxbench.h"
#include "engine/engine.h"
#include "net/network.h"
#include "net/udp.h"
#include "resolver/resolver.h"
#include "sim/simulator.h"
#include "stats/stats.h"
#include "tcp/tcp.h"
#include "web/page.h"

namespace doxbench {

using namespace doxlab;

namespace {

using Clock = std::chrono::steady_clock;

/// Spans kept in memory and written as CSV when the run ends. A span is
/// (name, parent span, request id, start, end); the request id numbers the
/// query or batch a span covers within its parent.
class Tracer {
 public:
  static constexpr std::int64_t kNoParent = -1;

  Tracer() { spans_.reserve(1 << 16); }

  std::int64_t open(std::string name, std::int64_t parent,
                    std::uint64_t request = 0) {
    spans_.push_back(Span{std::move(name), parent, request, 0, 0});
    spans_.back().start_ns = now_ns();
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  void close(std::int64_t span) {
    spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
  }
  double ns(std::int64_t span) const {
    const Span& s = spans_[static_cast<std::size_t>(span)];
    return static_cast<double>(s.end_ns - s.start_ns);
  }

  bool write_csv(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fprintf(f, "span,name,parent,request,start_ns,end_ns\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f, "%zu,%s,%lld,%llu,%lld,%lld\n", i, s.name.c_str(),
                   static_cast<long long>(s.parent),
                   static_cast<unsigned long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    std::int64_t parent = kNoParent;
    std::uint64_t request = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

double mean(const std::vector<double>& values, std::size_t begin,
            std::size_t end) {
  if (end <= begin) return 0.0;
  return std::accumulate(values.begin() + static_cast<std::ptrdiff_t>(begin),
                         values.begin() + static_cast<std::ptrdiff_t>(end),
                         0.0) /
         static_cast<double>(end - begin);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const auto mid = values.begin() + static_cast<std::ptrdiff_t>(values.size() / 2);
  std::nth_element(values.begin(), mid, values.end());
  return *mid;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double elapsed_ns(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::nano>(t1 - t0).count();
}

/// Cost of one steady_clock read pair, subtracted from per-operation
/// timings of operations only a few clock reads long.
double clock_overhead_ns() {
  std::vector<double> samples(1001);
  for (double& sample : samples) {
    const auto t0 = Clock::now();
    sample = elapsed_ns(t0, Clock::now());
  }
  return median(std::move(samples));
}

/// Runs events until `done()` holds; gives up after a minute of simulated
/// time or when the queue empties. Returns done().
template <typename Done>
bool await(sim::Simulator& sim, Done done) {
  const SimTime deadline = sim.now() + kMinute;
  while (!done() && sim.now() <= deadline) {
    if (!sim.step()) break;
  }
  return done();
}

/// True when `wire` is a NOERROR response whose answer chain (CNAMEs
/// followed in order) ends in the A record every resolver synthesizes for
/// the chain's last name.
bool answer_matches(std::span<const std::uint8_t> wire,
                    const dns::DnsName& name) {
  const auto message = dns::Message::decode(wire);
  if (!message || !message->qr || message->rcode != dns::RCode::kNoError) {
    return false;
  }
  dns::DnsName target = name;
  for (const dns::ResourceRecord& rr : message->answers) {
    if (rr.name != target) continue;
    if (rr.type == dns::RRType::kCNAME) {
      const auto next = dns::rdata_as_name(rr);
      if (!next) return false;
      target = *next;
    } else if (const auto ipv4 = dns::rdata_as_a(rr)) {
      return *ipv4 == resolver::authoritative_ipv4(target);
    }
  }
  return false;
}

/// The workload's own inputs for the layer probes.
struct Inputs {
  /// Name population: Zipf rank order (engine), page order (web).
  std::vector<std::string> texts;
  std::vector<dns::DnsName> names;  ///< parsed `texts`
  struct Event {
    SimTime at = 0;
    std::uint32_t name = 0;
  };
  std::vector<Event> stream;  ///< queries in arrival order (capped)
  /// Pending events the workload pre-schedules per shard.
  std::size_t depth = 0;

  /// Distinct name `i`; past the population, new names of the same shape.
  dns::DnsName name(std::size_t i) const {
    if (i < names.size()) return names[i];
    return dns::DnsName::parse("x" + std::to_string(i) + "." +
                               texts[i % texts.size()]);
  }
};

Inputs make_inputs(const Workload& w, std::uint64_t seed,
                   std::size_t max_events) {
  Inputs in;
  if (w.family == Family::kEngine) {
    for (std::size_t i = 0; i < w.names; ++i) {
      in.texts.push_back("name" + std::to_string(i) + ".load.example");
    }
    // The coordinator's arrival process, draw for draw: Poisson arrivals, a
    // uniform client, a Zipf-1.0 name rank.
    Rng rng(seed);
    std::vector<double> cdf;
    double total = 0.0;
    for (std::size_t rank = 1; rank <= w.names; ++rank) {
      total += 1.0 / static_cast<double>(rank);
      cdf.push_back(total);
    }
    const double mean_gap_us = static_cast<double>(kSecond) / w.qps;
    const auto end = static_cast<SimTime>(w.sim_seconds * kSecond);
    SimTime at = 0;
    while (in.stream.size() < max_events) {
      at += std::max<SimTime>(
          1, static_cast<SimTime>(rng.exponential(mean_gap_us)));
      if (at >= end) break;
      rng.uniform_int(0, 1'000'000 - 1);  // the client draw
      const double u = rng.uniform_real(0.0, cdf.back());
      const auto it = std::upper_bound(cdf.begin(), cdf.end(), u);
      in.stream.push_back(
          {at, static_cast<std::uint32_t>(std::min<std::size_t>(
                   static_cast<std::size_t>(it - cdf.begin()), w.names - 1))});
    }
    in.depth = static_cast<std::size_t>(w.qps * w.sim_seconds / w.shards);
  } else {
    // Every page's origins in page order. One load every 3 s (about the
    // study's median page-load time); a load asks for each of its page's
    // origins when discovery reaches that origin's depth.
    const auto& pages = web::tranco_top10();
    std::vector<std::vector<std::uint32_t>> page_names(pages.size());
    for (std::size_t p = 0; p < pages.size(); ++p) {
      for (const web::ResourceGroup& group : pages[p].groups) {
        const std::string text = group.domain.to_string();
        const auto it = std::find(in.texts.begin(), in.texts.end(), text);
        page_names[p].push_back(
            static_cast<std::uint32_t>(it - in.texts.begin()));
        if (it == in.texts.end()) in.texts.push_back(text);
      }
    }
    SimTime at = 0;
    for (std::size_t load = 0; in.stream.size() < max_events; ++load) {
      const std::size_t p = load % pages.size();
      for (std::size_t g = 0; g < pages[p].groups.size(); ++g) {
        in.stream.push_back(
            {at + pages[p].groups[g].depth * 100 * kMillisecond,
             page_names[p][g]});
      }
      at += 3 * kSecond;
    }
    in.depth = pages.size() * static_cast<std::size_t>(w.loads);
  }
  for (const std::string& text : in.texts) {
    in.names.push_back(dns::DnsName::parse(text));
  }
  return in;
}

/// One client host and one loss-free upstream resolver 25 ms away (the
/// engine workloads' nearest upstream).
class World {
 public:
  explicit World(std::uint64_t seed)
      : network_(sim_, Rng(splitmix64(seed, 1))),
        host_(network_.add_host("bench-client",
                                net::IpAddress::from_octets(10, 1, 0, 1),
                                {50.11, 8.68}, net::Continent::kEurope)),
        udp_(host_),
        tcp_(host_) {
    network_.set_loss_rate(0.0);
    resolver::ResolverProfile profile;
    profile.name = "upstream";
    profile.address = net::IpAddress::from_octets(10, 9, 0, 1);
    profile.location = {48.86, 2.35};
    profile.secret = 0xE0;
    profile.drop_probability = 0.0;
    upstream_ = std::make_unique<resolver::DoxResolver>(
        network_, profile, Rng(splitmix64(seed, 2)));
    network_.set_path_override(host_.address(), profile.address,
                               from_ms(25));
  }

  sim::Simulator& sim() { return sim_; }
  net::Host& host() { return host_; }
  net::UdpStack& udp() { return udp_; }
  net::IpAddress upstream_address() const {
    return upstream_->profile().address;
  }
  dox::TransportDeps deps() {
    dox::TransportDeps deps;
    deps.sim = &sim_;
    deps.udp = &udp_;
    deps.tcp = &tcp_;
    deps.tickets = &tickets_;
    deps.doq_cache = &doq_cache_;
    return deps;
  }

 private:
  sim::Simulator sim_;
  net::Network network_;
  net::Host& host_;
  net::UdpStack udp_;
  tcp::TcpStack tcp_;
  tls::TicketStore tickets_;
  dox::DoqSessionCache doq_cache_;
  std::unique_ptr<resolver::DoxResolver> upstream_;
};

/// A ForwarderEngine in the bench world with the engine workloads'
/// upstream fallback chain and default config, plus one stub socket.
class EngineRig {
 public:
  explicit EngineRig(std::uint64_t seed) : world_(seed) {
    engine::UpstreamConfig upstream;
    upstream.name = "upstream";
    upstream.address = world_.upstream_address();
    engine_ = std::make_unique<engine::ForwarderEngine>(
        world_.sim(), world_.udp(), world_.deps(),
        std::vector<engine::UpstreamConfig>{upstream},
        engine::EngineConfig{});
    target_ = net::Endpoint{world_.host().address(),
                            engine_->config().listen_port};
    stub_ = world_.udp().bind_ephemeral();
    stub_->on_datagram([this](const net::Endpoint&, util::Buffer payload) {
      ++answered_;
      last_ = std::move(payload);
    });
  }

  /// Sends one query and runs the world until its answer arrives.
  bool ask(const util::Buffer& wire) {
    const std::uint64_t before = answered_;
    stub_->send_to(target_, wire);
    return await(world_.sim(), [&] { return answered_ > before; });
  }
  const util::Buffer& last_answer() const { return last_; }

 private:
  World world_;
  std::unique_ptr<engine::ForwarderEngine> engine_;
  net::Endpoint target_;
  std::unique_ptr<net::UdpSocket> stub_;
  std::uint64_t answered_ = 0;
  util::Buffer last_;
};

/// "doq", "dot", ...: the protocol's name in lower case.
std::string protocol_key(dox::DnsProtocol p) {
  std::string key(dox::protocol_name(p));
  for (char& c : key) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return key;
}

/// Operations per probe, full or smoke.
struct Sizes {
  std::size_t stream_events;
  std::size_t cached_queries;
  std::size_t miss_queries;
  std::size_t hold_events;
  std::size_t datagrams;
  std::size_t codec_ops;
  std::size_t long_conn_queries;
  std::size_t fresh_conn_queries;
};
constexpr Sizes kFullSizes{.stream_events = 500'000,
                           .cached_queries = 200'000,
                           .miss_queries = 2'000,
                           .hold_events = 1'000'000,
                           .datagrams = 500'000,
                           .codec_ops = 1'000'000,
                           .long_conn_queries = 10'000,
                           .fresh_conn_queries = 2'000};
constexpr Sizes kSmokeSizes{.stream_events = 10'000,
                            .cached_queries = 2'000,
                            .miss_queries = 50,
                            .hold_events = 20'000,
                            .datagrams = 2'000,
                            .codec_ops = 5'000,
                            .long_conn_queries = 2'000,
                            .fresh_conn_queries = 20};
/// Hot names the cached-query probe cycles through (fits the 4096 L1).
constexpr std::size_t kHotNames = 200;
/// Operations per timed batch; probes report the median batch, which sheds
/// bursts of interference from other processes on the host.
constexpr std::size_t kBatch = 1000;
/// Width of the first/last windows of the long-connection probe.
constexpr std::size_t kWindow = 1000;

class TracedRun {
 public:
  TracedRun(const Workload& w, std::uint64_t seed, bool smoke)
      : w_(w),
        seed_(seed),
        sizes_(smoke ? kSmokeSizes : kFullSizes),
        in_(make_inputs(w, seed, sizes_.stream_events)) {}

  const Tracer& tracer() const { return tracer_; }
  const std::vector<std::string>& errors() const { return errors_; }

  /// The workload's call runs first, in a fresh process as in a
  /// repetition, so its coordinator timings describe the call the
  /// end-to-end metrics time.
  void run(std::vector<Metric>& metrics, RunResult& e2e) {
    out_ = &metrics;
    root_ = tracer_.open("doxbench.trace", Tracer::kNoParent);
    end_to_end(e2e);
    engine_probes();
    sim_probes();
    net_probe();
    dns_probes();
    transport_probes();
    trace_accounting();
    tracer_.close(root_);
  }

 private:
  void emit(std::string name, std::string unit, double value) {
    out_->push_back(Metric{std::move(name), std::move(unit), value});
  }
  void error(std::string what) { errors_.push_back(std::move(what)); }

  /// Runs `ops` operations `op(i)` in batches of kBatch, each batch a span
  /// named `name` under the root; returns the median batch's ns per
  /// operation.
  template <typename Op>
  double batched_ns(const std::string& name, std::size_t ops, Op op) {
    const std::int64_t span = tracer_.open(name, root_);
    std::vector<double> per_op;
    for (std::size_t b = 0, i = 0; b < std::max<std::size_t>(ops / kBatch, 1);
         ++b) {
      const std::int64_t batch = tracer_.open(name + ".batch", span, b);
      for (std::size_t k = 0; k < kBatch; ++k) op(i++);
      tracer_.close(batch);
      per_op.push_back(tracer_.ns(batch) / kBatch);
    }
    tracer_.close(span);
    return median(std::move(per_op));
  }

  /// Cached and missing queries through one ForwarderEngine.
  void engine_probes() {
    const std::size_t hot = std::min(kHotNames, in_.names.size());
    std::vector<util::Buffer> wires;
    for (std::size_t i = 0; i < hot; ++i) {
      wires.push_back(
          dns::make_query(static_cast<std::uint16_t>(i + 1), in_.names[i],
                          dns::RRType::kA)
              .encode_buffer());
    }
    // The hot names in the order the workload asks for them.
    std::vector<std::uint32_t> order;
    for (const Inputs::Event& ev : in_.stream) {
      if (ev.name < hot) order.push_back(ev.name);
    }
    if (order.empty()) {
      for (std::uint32_t i = 0; i < hot; ++i) order.push_back(i);
    }

    {
      EngineRig rig(seed_);
      for (std::size_t i = 0; i < hot; ++i) {
        if (!rig.ask(wires[i]) ||
            !answer_matches(rig.last_answer(), in_.names[i])) {
          error("engine: wrong or missing answer for " + in_.texts[i]);
          break;
        }
      }
      // Drive scratch storage and buffer pools to their high-water marks.
      for (std::size_t i = 0; i < 1024; ++i) {
        rig.ask(wires[order[i % order.size()]]);
      }
      std::size_t unanswered = 0;
      const std::uint64_t allocs0 = thread_allocations();
      cached_query_ns_ = batched_ns(
          "engine.cached_query", sizes_.cached_queries, [&](std::size_t i) {
            if (!rig.ask(wires[order[i % order.size()]])) ++unanswered;
          });
      const std::size_t asked =
          std::max<std::size_t>(sizes_.cached_queries / kBatch, 1) * kBatch;
      emit("engine.cached_query_ns", "ns", cached_query_ns_);
      emit("engine.cached_query_allocs", "allocs/query",
           static_cast<double>(thread_allocations() - allocs0) /
               static_cast<double>(asked));
      if (unanswered > 0) error("engine: cached queries went unanswered");
    }

    {
      EngineRig rig(seed_);
      const std::size_t n = sizes_.miss_queries;
      // The first query opens the upstream connection; time steady misses.
      if (!rig.ask(dns::make_query(1, in_.name(n), dns::RRType::kA)
                       .encode_buffer())) {
        error("engine: warm-up miss went unanswered");
      }
      const std::int64_t span = tracer_.open("engine.miss_query", root_);
      std::vector<double> us;
      for (std::size_t i = 0; i < n; ++i) {
        const dns::DnsName name = in_.name(i);
        const util::Buffer wire =
            dns::make_query(static_cast<std::uint16_t>(i + 2), name,
                            dns::RRType::kA)
                .encode_buffer();
        const std::int64_t query =
            tracer_.open("engine.miss_query.query", span, i);
        const bool ok = rig.ask(wire);
        tracer_.close(query);
        us.push_back(tracer_.ns(query) / 1e3);
        if (!ok || !answer_matches(rig.last_answer(), name)) {
          error("engine: wrong or missing answer for a missing name");
          break;
        }
      }
      tracer_.close(span);
      miss_query_us_ = mean(us, 0, us.size());
      emit("engine.miss_query_us", "us", miss_query_us_);
    }
  }

  /// Event-loop cost per event under the hold model: each fired event
  /// schedules one more, so the pending queue stays at `depth`.
  double hold_ns_per_event(const std::string& name, std::size_t depth) {
    struct Hold {
      sim::Simulator sim;
      std::vector<SimTime> gaps;
      std::size_t next = 0;
      void arm(SimTime at) {
        sim.at(at, [this] { arm(sim.now() + gaps[next++ % gaps.size()]); });
      }
    };
    Hold hold;
    Rng rng(splitmix64(seed_, depth));
    // Gaps average `depth` us, so one event falls due per simulated
    // microsecond, as in the workloads' arrival streams.
    for (std::size_t i = 0; i < 4096; ++i) {
      hold.gaps.push_back(1 + static_cast<SimTime>(
                                  rng.exponential(static_cast<double>(depth))));
    }
    for (std::size_t i = 0; i < depth; ++i) {
      hold.arm(static_cast<SimTime>(
          rng.uniform_real(0.0, static_cast<double>(depth))));
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(depth, 100'000); ++i) {
      hold.sim.step();
    }
    const double ns = batched_ns(name, sizes_.hold_events,
                                 [&](std::size_t) { hold.sim.step(); });
    if (hold.sim.pending() != depth) error("sim: hold queue changed depth");
    return ns;
  }

  void sim_probes() {
    emit("sim.event_ns.shallow", "ns",
         hold_ns_per_event("sim.hold.shallow", 256));
    emit("sim.event_ns.workload_depth", "ns",
         hold_ns_per_event("sim.hold.workload_depth",
                           std::max<std::size_t>(in_.depth, 1)));
  }

  /// UdpSocket::send_to on one host to delivery on another.
  void net_probe() {
    sim::Simulator sim;
    net::Network network(sim, Rng(splitmix64(seed_, 3)));
    network.set_loss_rate(0.0);
    net::Host& a = network.add_host(
        "bench-a", net::IpAddress::from_octets(10, 1, 0, 1), {50.11, 8.68},
        net::Continent::kEurope);
    net::Host& b = network.add_host(
        "bench-b", net::IpAddress::from_octets(10, 2, 0, 1), {48.86, 2.35},
        net::Continent::kEurope);
    network.set_path_override(a.address(), b.address(), from_ms(1));
    net::UdpStack udp_a(a);
    net::UdpStack udp_b(b);
    auto rx = udp_b.bind(53);
    auto tx = udp_a.bind_ephemeral();
    std::uint64_t delivered = 0;
    rx->on_datagram([&](const net::Endpoint&, util::Buffer) { ++delivered; });

    const std::size_t distinct = std::min<std::size_t>(in_.names.size(), 4096);
    std::vector<util::Buffer> wires;
    for (std::size_t i = 0; i < distinct; ++i) {
      wires.push_back(dns::make_query(1, in_.names[i], dns::RRType::kA)
                          .encode_buffer());
    }
    const net::Endpoint to{b.address(), 53};
    std::uint64_t sent = 0;
    const double ns =
        batched_ns("net.datagram", sizes_.datagrams, [&](std::size_t i) {
          const auto& ev = in_.stream[i % in_.stream.size()];
          tx->send_to(to, wires[ev.name % distinct]);
          ++sent;
          while (delivered < sent && sim.step()) {
          }
        });
    if (delivered != sent) error("net: datagrams lost on a loss-free path");
    emit("net.datagram_ns", "ns", ns);
  }

  void dns_probes() {
    // Query and response images for the names the stream asks for.
    std::vector<std::vector<std::uint8_t>> query_wire(in_.names.size());
    std::vector<dns::Message> response(in_.names.size());
    for (const Inputs::Event& ev : in_.stream) {
      if (!query_wire[ev.name].empty()) continue;
      const dns::DnsName& name = in_.names[ev.name];
      const dns::Message query = dns::make_query(
          static_cast<std::uint16_t>(ev.name), name, dns::RRType::kA);
      query_wire[ev.name] = query.encode();
      response[ev.name] = dns::make_response(query);
      response[ev.name].answers.push_back(
          dns::make_a(name, 300, resolver::authoritative_ipv4(name)));
    }
    const auto name_at = [this](std::size_t i) {
      return in_.stream[i % in_.stream.size()].name;
    };

    dns::Message scratch;
    std::size_t bad = 0;
    emit("dns.decode_query_ns", "ns",
         batched_ns("dns.decode_query", sizes_.codec_ops, [&](std::size_t i) {
           if (!dns::Message::decode_into(query_wire[name_at(i)], scratch)) {
             ++bad;
           }
         }));
    if (bad > 0) error("dns: encoded queries failed to decode");

    std::size_t bytes = 0;
    emit("dns.encode_response_ns", "ns",
         batched_ns("dns.encode_response", sizes_.codec_ops,
                    [&](std::size_t i) {
                      bytes += response[name_at(i)].encode_buffer().size();
                    }));
    if (bytes == 0) error("dns: responses encoded to nothing");

    l1_replay();
    l2_replay();
  }

  /// The stream replayed through the engine's L1 type at its default
  /// capacity: a lookup per arrival, an insert per miss. Each operation is
  /// timed alone, less the clock's own cost.
  void l1_replay() {
    const double overhead = clock_overhead_ns();
    dns::Cache cache;
    cache.set_capacity(4096);
    double lookup_ns = 0.0;
    double insert_ns = 0.0;
    std::uint64_t hits = 0;
    std::uint64_t inserts = 0;
    const std::int64_t span = tracer_.open("dns.l1.replay", root_);
    for (const Inputs::Event& ev : in_.stream) {
      const dns::DnsName& name = in_.names[ev.name];
      const auto t0 = Clock::now();
      const bool hit =
          cache.lookup_ref(name, dns::RRType::kA, ev.at).has_value();
      lookup_ns += elapsed_ns(t0, Clock::now()) - overhead;
      if (hit) {
        ++hits;
        continue;
      }
      std::vector<dns::ResourceRecord> records = {
          dns::make_a(name, 300, resolver::authoritative_ipv4(name))};
      const auto t1 = Clock::now();
      cache.insert(name, dns::RRType::kA, std::move(records), ev.at);
      insert_ns += elapsed_ns(t1, Clock::now()) - overhead;
      ++inserts;
    }
    tracer_.close(span);
    const double lookups = static_cast<double>(in_.stream.size());
    emit("dns.l1.lookup_ns", "ns", ratio(lookup_ns, lookups));
    emit("dns.l1.insert_ns", "ns",
         ratio(insert_ns, static_cast<double>(inserts)));
    emit("dns.l1.replay_hit_ratio", "ratio",
         ratio(static_cast<double>(hits), lookups));
  }

  /// The stream replayed through the shared L2 as one shard sees it: a
  /// lookup per arrival, a deferred insert per miss, and a sweep at the
  /// first arrival of every 100 ms epoch.
  void l2_replay() {
    const double overhead = clock_overhead_ns();
    dns::SharedPacketCache l2(1 << 16, 1);
    const SimTime epoch = 100 * kMillisecond;
    SimTime next_sweep = epoch;
    double lookup_ns = 0.0;
    double sweep_ns = 0.0;
    std::uint64_t sweeps = 0;
    const std::int64_t span = tracer_.open("dns.l2.replay", root_);
    for (const Inputs::Event& ev : in_.stream) {
      if (ev.at >= next_sweep) {
        const SimTime boundary = ev.at - ev.at % epoch;
        const auto t0 = Clock::now();
        l2.sweep(boundary);
        sweep_ns += elapsed_ns(t0, Clock::now()) - overhead;
        ++sweeps;
        next_sweep = boundary + epoch;
      }
      const dns::DnsName& name = in_.names[ev.name];
      dns::PacketCacheHit hit;
      const auto t0 = Clock::now();
      const bool found = l2.lookup(0, name, dns::RRType::kA, ev.at, hit);
      lookup_ns += elapsed_ns(t0, Clock::now()) - overhead;
      if (!found) {
        const dns::ResourceRecord record =
            dns::make_a(name, 300, resolver::authoritative_ipv4(name));
        l2.insert(0, name, dns::RRType::kA, {&record, 1}, ev.at);
      }
    }
    tracer_.close(span);
    emit("dns.l2.lookup_ns", "ns",
         ratio(lookup_ns, static_cast<double>(in_.stream.size())));
    emit("dns.l2.sweep_us_per_epoch", "us",
         ratio(sweep_ns / 1e3, static_cast<double>(sweeps)));
  }

  /// Resolves `count` distinct names over one transport against the bench
  /// resolver; returns wall us per query. `fresh` drops the connection
  /// after every query and lets the teardown finish, as the web study's
  /// proxy does between loads.
  std::vector<double> transport_queries(dox::DnsProtocol protocol,
                                        std::size_t count, bool fresh) {
    World world(seed_);
    dox::TransportOptions options;
    options.resolver = net::Endpoint{world.upstream_address(),
                                     dox::default_port(protocol)};
    auto transport = dox::make_transport(protocol, world.deps(), options);
    const std::string key = protocol_key(protocol);
    const std::int64_t span = tracer_.open(
        "dox." + key + (fresh ? ".fresh_conn" : ".long_conn"), root_);
    std::vector<double> us;
    us.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const dns::Question question{in_.name(i), dns::RRType::kA,
                                   dns::RRClass::kIN};
      bool done = false;
      dox::QueryResult result;
      const std::int64_t query =
          tracer_.open("dox." + key + ".query", span, i);
      transport->resolve(question, [&](dox::QueryResult r) {
        result = std::move(r);
        done = true;
      });
      await(world.sim(), [&] { return done; });
      if (fresh) {
        transport->reset_sessions();
        world.sim().run_until(world.sim().now() + kSecond);
      }
      tracer_.close(query);
      us.push_back(tracer_.ns(query) / 1e3);
      if (!done || !result.ok() ||
          !answer_matches(result.response.encode(), question.name)) {
        error("dox." + key + ": wrong or missing answer");
        break;
      }
    }
    tracer_.close(span);
    return us;
  }

  void transport_probes() {
    for (const dox::DnsProtocol p :
         {dox::DnsProtocol::kDoQ, dox::DnsProtocol::kDoT,
          dox::DnsProtocol::kDoUdp}) {
      const std::vector<double> us =
          transport_queries(p, sizes_.long_conn_queries, false);
      const std::size_t n = us.size();
      const double first = mean(us, 0, std::min(kWindow, n));
      const double last = mean(us, n - std::min(kWindow, n), n);
      const std::string prefix = "dox." + protocol_key(p);
      emit(prefix + ".long_conn_query_us.first1k", "us", first);
      emit(prefix + ".long_conn_query_us.last1k", "us", last);
      emit(prefix + ".cost_growth", "ratio", ratio(last, first));
    }
    for (const dox::DnsProtocol p : dox::kAllProtocols) {
      const std::vector<double> us =
          transport_queries(p, sizes_.fresh_conn_queries, true);
      emit("dox." + protocol_key(p) + ".fresh_conn_query_us",
           "us", mean(us, 0, us.size()));
    }
  }

  /// The workload's own call: its counters and coordinator timings, its
  /// DNS work per page load, and its speedup from one worker to the
  /// workload's worker count.
  void end_to_end(RunResult& e2e) {
    const int threads = default_threads(w_);
    const std::int64_t span = tracer_.open("e2e.call", root_);
    e2e = run_workload(w_, seed_, false, threads);
    tracer_.close(span);
    for (const std::string& v : e2e.violations) error(v);

    const engine::ShardedResult& r = e2e.sharded;
    const engine::EngineStats& e = r.engine;
    double busy_max = 0.0;
    std::uint64_t events = 0;
    for (const engine::ShardOutcome& shard : r.shards) {
      busy_sum_ms_ += shard.busy_ms;
      busy_max = std::max(busy_max, shard.busy_ms);
      events += shard.events;
    }
    const double shards = static_cast<double>(r.shards.size());
    const double outside =
        r.shards.empty() ? 0.0 : r.wall_ms - r.critical_path_ms;
    emit("sharded.critical_path_ms", "ms", r.critical_path_ms);
    emit("sharded.busy_sum_ms", "ms", busy_sum_ms_);
    emit("sharded.busy_max_over_mean", "ratio",
         ratio(busy_max * shards, busy_sum_ms_));
    emit("sharded.sweep_ms", "ms", r.sweep_ms);
    emit("sharded.epochs", "count", static_cast<double>(r.epochs));
    emit("sharded.outside_critical_ms", "ms", outside);
    emit("sharded.outside_critical_share", "ratio", ratio(outside, r.wall_ms));
    const auto share = [](std::uint64_t part, std::uint64_t whole) {
      return ratio(static_cast<double>(part), static_cast<double>(whole));
    };
    emit("engine.l1_hit_ratio", "ratio", share(e.cache_hits, e.queries));
    emit("engine.stale_ratio", "ratio", share(e.stale_hits, e.queries));
    emit("engine.l2_hit_ratio", "ratio", share(e.l2_hits, e.l2_lookups));
    emit("engine.coalesce_rate", "ratio", e.coalesce_rate());
    emit("engine.upstream_resolves", "count",
         static_cast<double>(e.upstream_resolves));
    emit("engine.attempts_per_resolve", "ratio",
         share(e.upstream_attempts, e.upstream_resolves));
    emit("sim.events", "count", static_cast<double>(events));
    emit("sim.events_per_query", "events/query", share(events, e.queries));

    // Simulated latency of the call's successful operations: stub queries
    // on the engine workloads, page loads on the web study.
    const stats::Cdf latency(e2e.latency_ms);
    emit("client.latency_p50_ms", "ms", latency.quantile(0.5).value_or(0.0));
    emit("client.latency_p99_ms", "ms", latency.quantile(0.99).value_or(0.0));
    emit("client.latency_p999_ms", "ms",
         latency.quantile(0.999).value_or(0.0));

    double queries = 0.0;
    double retransmissions = 0.0;
    for (const measure::WebRecord& record : e2e.records) {
      queries += record.dns_queries;
      retransmissions += record.dns_retransmissions;
    }
    const double loads = static_cast<double>(e2e.records.size());
    emit("web.dns_queries_per_load", "queries/load", ratio(queries, loads));
    emit("web.dns_retransmissions_per_load", "retransmits/load",
         ratio(retransmissions, loads));

    // Two further calls, one worker and then the workload's worker count,
    // both in the warm process the first call left behind. A one-thread
    // workload is its own one-worker call.
    double speedup = 1.0;
    if (threads > 1) {
      std::int64_t call = tracer_.open("e2e.one_worker", root_);
      const RunResult one = run_workload(w_, seed_, false, 1);
      tracer_.close(call);
      one_worker_ms_ = tracer_.ns(call) / 1e6;
      call = tracer_.open("e2e.all_workers", root_);
      const RunResult all = run_workload(w_, seed_, false, threads);
      tracer_.close(call);
      speedup = ratio(one_worker_ms_, tracer_.ns(call) / 1e6);
      if (one.outcome_digest != e2e.outcome_digest ||
          all.digest != e2e.digest) {
        error("outcomes depend on the worker count or the call");
      }
    }
    emit("pool.parallel_speedup", "ratio", speedup);
    queries_ = e.queries;
    misses_ = e.misses;
  }

  /// Busy time of the workload's call that the per-call probe costs, scaled
  /// by the call's own counts, do not account for. Engine: summed shard
  /// busy time less cached-query cost x non-missing queries and miss cost x
  /// misses. Web: no probe covers the browser or HTTP/2 path, so the whole
  /// one-worker wall time stays unexplained.
  void trace_accounting() {
    double unexplained = one_worker_ms_;
    if (w_.family == Family::kEngine) {
      unexplained =
          busy_sum_ms_ -
          (cached_query_ns_ * static_cast<double>(queries_ - misses_) +
           miss_query_us_ * 1e3 * static_cast<double>(misses_)) /
              1e6;
    }
    emit("trace.unexplained_ms", "ms", unexplained);
  }

  const Workload& w_;
  std::uint64_t seed_;
  Sizes sizes_;
  Inputs in_;
  Tracer tracer_;
  std::int64_t root_ = Tracer::kNoParent;
  std::vector<Metric>* out_ = nullptr;
  std::vector<std::string> errors_;

  double busy_sum_ms_ = 0.0;
  double one_worker_ms_ = 0.0;
  double cached_query_ns_ = 0.0;
  double miss_query_us_ = 0.0;
  std::uint64_t queries_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace

bool run_traced(const Workload& workload, std::uint64_t seed,
                const std::string& spans_csv, bool smoke,
                std::vector<Metric>& metrics, RunResult& e2e) {
  TracedRun run(workload, seed, smoke);
  run.run(metrics, e2e);
  bool ok = run.errors().empty();
  for (const std::string& e : run.errors()) {
    std::fprintf(stderr, "doxbench: %s: %s\n",
                 std::string(workload.name).c_str(), e.c_str());
  }
  if (!spans_csv.empty() && !run.tracer().write_csv(spans_csv)) {
    std::fprintf(stderr, "doxbench: cannot write %s\n", spans_csv.c_str());
    ok = false;
  }
  return ok;
}

}  // namespace doxbench
