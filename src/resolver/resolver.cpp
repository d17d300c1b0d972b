#include "resolver/resolver.h"

#include <algorithm>
#include <span>

#include "dox/framing.h"
#include "util/logging.h"

namespace doxlab::resolver {

namespace {

/// The reserved .invalid TLD (RFC 2606), whose names never resolve.
const dns::DnsName& invalid_tld() {
  static const dns::DnsName name = dns::DnsName::parse("invalid");
  return name;
}

/// FNV-1a over the presentation name: stable fake authoritative data.
std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001B3ull;
  }
  return h;
}

/// Parses "txtNNNN....": synthetic TXT payload size from the leftmost label
/// ("txt1800.example.com" -> a 1800-byte TXT record). Returns 0 when the
/// name does not request TXT data.
std::size_t txt_payload_size(const dns::DnsName& name) {
  if (name.is_root()) return 0;
  const std::string_view label = name.first_label();
  if (label.size() < 4 || label.substr(0, 3) != "txt") return 0;
  std::size_t n = 0;
  for (std::size_t i = 3; i < label.size(); ++i) {
    if (label[i] < '0' || label[i] > '9') return 0;
    n = n * 10 + static_cast<std::size_t>(label[i] - '0');
  }
  return std::min<std::size_t>(n, 16000);
}

/// Appends an EDNS0 option to the message's OPT record (no-op without OPT).
void append_edns_option(dns::Message& message, std::uint16_t code,
                        std::span<const std::uint8_t> value) {
  for (dns::ResourceRecord& rr : message.additionals) {
    if (rr.type != dns::RRType::kOPT) continue;
    ByteWriter w;
    w.bytes(rr.rdata);
    w.u16(code);
    w.u16(static_cast<std::uint16_t>(value.size()));
    w.bytes(value);
    rr.rdata = w.take();
    return;
  }
}

/// True if the query carries an RFC 7830 padding option (the client asked
/// for padded responses).
bool wants_padding(const dns::Message& query) {
  const dns::ResourceRecord* opt = query.opt();
  if (opt == nullptr) return false;
  auto options = dns::rdata_as_options(*opt);
  if (!options) return false;
  for (const auto& option : *options) {
    if (option.code == dns::kEdnsPaddingOption) return true;
  }
  return false;
}

}  // namespace

std::uint32_t authoritative_ipv4(const dns::DnsName& name) {
  // 198.18.0.0/15 (benchmarking range) + hash.
  return 0xC6120000u | static_cast<std::uint32_t>(fnv1a(name.to_string()) &
                                                  0x0001FFFFu);
}

// --------------------------------------------------------- connection state

/// One accepted DoT or DoH connection: TLS over TCP, then the RFC 1035
/// framing (DoT) or an H2 session (DoH) on the decrypted stream.
struct DoxResolver::TlsConn {
  std::shared_ptr<tcp::TcpConnection> tcp;
  std::unique_ptr<tls::TlsSession> tls;
  dox::StreamMessageReader reader;
  std::unique_ptr<h2::H2Connection> h2;
  std::map<std::uint32_t, std::vector<std::uint8_t>> bodies;
  bool closed = false;
};

// ------------------------------------------------------------- construction

DoxResolver::DoxResolver(net::Network& network, const ResolverProfile& profile,
                         Rng rng)
    : network_(network), profile_(profile), rng_(std::move(rng)) {
  host_ = &network.add_host(profile_.name, profile_.address,
                            profile_.location, profile_.continent,
                            /*access_delay=*/from_ms(0.5));
  udp_ = std::make_unique<net::UdpStack>(*host_);
  tcp_ = std::make_unique<tcp::TcpStack>(*host_);
  open_listeners();
}

DoxResolver::~DoxResolver() = default;

void DoxResolver::open_listeners() {
  if (profile_.supports_doudp) serve_doudp();
  if (profile_.supports_dotcp) serve_dotcp();
  if (profile_.supports_dot) serve_tls(dox::DnsProtocol::kDoT);
  if (profile_.supports_doh) serve_tls(dox::DnsProtocol::kDoH);
  if (profile_.supports_doq) serve_doq();
  if (profile_.supports_doh3) serve_doh3();
}

tls::TlsConfig DoxResolver::server_tls_config(const std::string& alpn) const {
  tls::TlsConfig config;
  config.is_server = true;
  config.max_version = profile_.max_tls;
  config.alpn = {alpn};
  config.certificate_chain_size = profile_.certificate_chain_size;
  config.enable_session_tickets = profile_.session_tickets;
  config.enable_0rtt = profile_.supports_0rtt;
  config.ticket_secret = profile_.secret;
  return config;
}

quic::QuicConfig DoxResolver::server_quic_config(
    const std::string& alpn) const {
  quic::QuicConfig config;
  config.version = profile_.quic_version;
  config.supported = {profile_.quic_version};
  config.tls = server_tls_config(alpn);
  config.require_retry = profile_.validate_with_retry;
  return config;
}

// ----------------------------------------------------------- core resolution

dns::Message DoxResolver::build_response(
    dox::DnsProtocol protocol, const dns::Message& query,
    std::vector<dns::ResourceRecord> records, dns::RCode rcode) const {
  dns::Message response = dns::make_response(query, rcode);
  response.answers = std::move(records);

  const bool encrypted = protocol != dox::DnsProtocol::kDoUdp &&
                         protocol != dox::DnsProtocol::kDoTcp;
  if (protocol == dox::DnsProtocol::kDoTcp && profile_.supports_keepalive) {
    // RFC 7828: advertise an idle timeout (units of 100 ms) so clients
    // keep the connection for further queries.
    const std::uint8_t timeout[2] = {0, 100};  // 10 s
    append_edns_option(response, dns::kEdnsTcpKeepaliveOption, timeout);
  }
  if (encrypted && wants_padding(query)) {
    // RFC 8467: servers pad responses to 468-byte blocks.
    dns::pad_to_block(response, 468);
  }
  if (protocol == dox::DnsProtocol::kDoUdp) {
    const std::size_t limit =
        std::min<std::size_t>(dns::advertised_udp_size(query), 1232);
    dns::truncate_for_udp(response, limit);
  }
  return response;
}

template <typename Respond>
void DoxResolver::handle_query(dox::DnsProtocol protocol, dns::Message query,
                               Respond respond) {
  if (query.qr || query.questions.empty()) return;
  if (rng_.chance(profile_.drop_probability)) return;  // unresponsive sample
  ++served_[static_cast<int>(protocol)];

  auto& sim = network_.simulator();
  const dns::Question& asked = query.questions.front();
  auto cached = cache_.lookup(asked.name, asked.type, sim.now());
  if (cached) {
    // NXDOMAIN entries are cached as empty record sets for .invalid names.
    const dns::RCode rcode = asked.name.is_subdomain_of(invalid_tld())
                                 ? dns::RCode::kNXDomain
                                 : dns::RCode::kNoError;
    sim.schedule(profile_.processing_delay,
                 [this, protocol, rcode, records = std::move(*cached),
                  query = std::move(query),
                  respond = std::move(respond)]() mutable {
                   respond(build_response(protocol, query, std::move(records),
                                          rcode));
                 });
    return;
  }

  // Simulated upstream recursion: log-normal around the profile mean.
  const double mean_ms = to_ms(profile_.recursive_latency_mean);
  const double mu = std::log(mean_ms) - 0.125;  // sigma^2/2 with sigma=0.5
  const SimTime recursion =
      from_ms(std::min(rng_.lognormal(mu, 0.5), 10 * mean_ms));
  sim.schedule(
      profile_.processing_delay + recursion,
      [this, protocol, query = std::move(query),
       respond = std::move(respond)]() mutable {
        // The query moved into this event whole; the question is read from
        // it, not copied.
        const dns::Question& question = query.questions.front();
        std::vector<dns::ResourceRecord> records;
        dns::RCode rcode = dns::RCode::kNoError;
        if (question.name.is_subdomain_of(invalid_tld())) {
          // The reserved .invalid TLD never resolves (RFC 2606).
          rcode = dns::RCode::kNXDomain;
        } else if (question.type == dns::RRType::kA ||
                   question.type == dns::RRType::kAAAA) {
          if (!question.name.is_root() &&
              question.name.first_label() == "www" &&
              question.name.label_count() > 2) {
            // Recursive resolvers return the full chain: the www alias plus
            // the canonical name's address record.
            const dns::DnsName canonical = question.name.parent();
            records.push_back(
                dns::make_cname(question.name, /*ttl=*/300, canonical));
            records.push_back(dns::make_a(canonical, /*ttl=*/300,
                                          authoritative_ipv4(canonical)));
          } else {
            records.push_back(dns::make_a(question.name, /*ttl=*/300,
                                          authoritative_ipv4(question.name)));
          }
        } else if (question.type == dns::RRType::kTXT) {
          // Synthetic large records ("txtNNNN.example") exercise UDP
          // truncation and the TCP fallback.
          if (const std::size_t n = txt_payload_size(question.name); n > 0) {
            records.push_back(dns::make_txt(question.name, /*ttl=*/300,
                                            std::string(n, 'x')));
          }
        }
        cache_.insert(question.name, question.type, records,
                      network_.simulator().now());
        respond(build_response(protocol, query, std::move(records), rcode));
      });
}

// ------------------------------------------------------------------- DoUDP

void DoxResolver::serve_doudp() {
  udp53_ = udp_->bind(53);
  udp53_->on_datagram([this](const net::Endpoint& from,
                             util::Buffer payload) {
    auto query = dns::Message::decode(payload);
    if (!query) return;
    handle_query(dox::DnsProtocol::kDoUdp, std::move(*query),
                 [this, from](dns::Message response) {
                   udp53_->send_to(from, response.encode());
                 });
  });
}

// ------------------------------------------------------------------- DoTCP

void DoxResolver::serve_dotcp() {
  auto& listener = tcp_->listen(53);
  listener.set_tfo_enabled(profile_.supports_tfo);
  listener.on_accept([this](const std::shared_ptr<tcp::TcpConnection>& conn) {
    // Handlers owned by the connection must capture it weakly, or the
    // connection keeps itself alive as a reference cycle until close.
    std::weak_ptr<tcp::TcpConnection> weak_conn = conn;
    conn->on_remote_fin([weak_conn] {
      if (auto conn = weak_conn.lock()) conn->close();
    });
    auto reader = std::make_shared<dox::StreamMessageReader>();
    conn->on_data([this, weak_conn,
                   reader](std::span<const std::uint8_t> data) {
      auto payloads = reader->feed(data);
      if (reader->failed()) {
        // Garbage framing: drop the stream rather than resynchronise.
        if (auto conn = weak_conn.lock()) conn->abort();
        return;
      }
      for (auto& payload : payloads) {
        auto query = dns::Message::decode(payload);
        if (!query) continue;
        handle_query(dox::DnsProtocol::kDoTcp, std::move(*query),
                     [weak_conn](dns::Message response) {
                       // kSynReceived is legal too: a TFO query is answered
                       // together with the SYN-ACK (0.5-RTT data).
                       auto conn = weak_conn.lock();
                       if (conn && conn->state() != tcp::TcpState::kClosed) {
                         conn->send(dox::length_prefixed(
                             response.encode_buffer(/*headroom=*/2)));
                       }
                     });
      }
    });
  });
}

// -------------------------------------------------------------- DoT / DoH

void DoxResolver::serve_tls(dox::DnsProtocol protocol) {
  auto& listener = tcp_->listen(dox::default_port(protocol));
  listener.on_accept([this, protocol](
                         const std::shared_ptr<tcp::TcpConnection>& conn) {
    // The TlsConn owns the TLS session, the H2 session and (a reference to)
    // the TCP connection, so every callback stored inside any of them must
    // capture the state weakly or the whole stack leaks as a reference
    // cycle.
    std::weak_ptr<tcp::TcpConnection> weak_conn = conn;
    conn->on_remote_fin([weak_conn] {
      if (auto conn = weak_conn.lock()) conn->close();
    });
    auto state = std::make_shared<TlsConn>();
    std::weak_ptr<TlsConn> weak_state = state;
    state->tcp = conn;
    if (protocol == dox::DnsProtocol::kDoH) {
      state->h2 = make_doh_session(weak_state);
    }

    tls::TlsSession::Callbacks callbacks;
    callbacks.now = [this] { return network_.simulator().now(); };
    callbacks.send_transport = [weak_state](util::Buffer bytes) {
      auto state = weak_state.lock();
      if (!state) return;
      if (!state->closed) state->tcp->send(std::move(bytes));
    };
    callbacks.on_application_data = [this, weak_state](
                                        std::span<const std::uint8_t> data) {
      auto state = weak_state.lock();
      if (!state) return;
      if (state->h2) {
        state->h2->on_transport_data(data);
      } else {
        on_dot_stream(state, data);
      }
    };
    callbacks.on_error = [weak_state](const util::Error&) {
      if (auto state = weak_state.lock()) state->closed = true;
    };
    state->tls = std::make_unique<tls::TlsSession>(
        server_tls_config(state->h2 ? "h2" : "dot"), std::move(callbacks));
    conn->on_data([weak_state](std::span<const std::uint8_t> data) {
      auto state = weak_state.lock();
      if (!state) return;
      state->tls->on_transport_data(data);
    });
    conn->on_closed([this, weak_state](const util::Error&) {
      auto state = weak_state.lock();
      if (!state) return;
      state->closed = true;
      std::erase(tls_conns_, state);
    });
    tls_conns_.push_back(state);
  });
}

void DoxResolver::on_dot_stream(const std::shared_ptr<TlsConn>& state,
                                std::span<const std::uint8_t> data) {
  auto payloads = state->reader.feed(data);
  if (state->reader.failed()) {
    // Garbage framing: drop the stream rather than resynchronise.
    state->tcp->abort();
    return;
  }
  std::weak_ptr<TlsConn> weak_state = state;
  for (auto& payload : payloads) {
    auto query = dns::Message::decode(payload);
    if (!query) continue;
    handle_query(dox::DnsProtocol::kDoT, std::move(*query),
                 [weak_state](dns::Message response) {
                   auto state = weak_state.lock();
                   if (state && !state->closed) {
                     state->tls->send_application_data(dox::length_prefixed(
                         response.encode_buffer(dox::kDotHeadroom)));
                   }
                 });
  }
}

std::unique_ptr<h2::H2Connection> DoxResolver::make_doh_session(
    const std::weak_ptr<TlsConn>& weak_state) {
  h2::H2Connection::Callbacks callbacks;
  callbacks.send_transport = [weak_state](util::Buffer bytes) {
    auto state = weak_state.lock();
    if (!state) return;
    if (!state->closed) state->tls->send_application_data(std::move(bytes));
  };
  callbacks.on_headers = [](std::uint32_t id, const std::vector<h2::Header>& h,
                            bool end) {
    DOXLAB_DEBUG("DoH server headers stream=" << id << " n=" << h.size()
                                              << " end=" << end);
  };
  callbacks.on_error = [](const util::Error& error) {
    DOXLAB_DEBUG("DoH server h2 error: " << error);
  };
  callbacks.on_data = [this, weak_state](std::uint32_t stream_id,
                                         std::span<const std::uint8_t> data,
                                         bool end_stream) {
    auto state = weak_state.lock();
    if (!state) return;
    auto& body = state->bodies[stream_id];
    body.insert(body.end(), data.begin(), data.end());
    DOXLAB_DEBUG("DoH server data stream=" << stream_id << " total="
                                           << body.size() << " end="
                                           << end_stream);
    if (!end_stream) return;
    auto query = dns::Message::decode(body);
    state->bodies.erase(stream_id);
    if (!query) return;
    handle_query(
        dox::DnsProtocol::kDoH, std::move(*query),
        [weak_state, stream_id](dns::Message response) {
          auto state = weak_state.lock();
          if (!state || state->closed) return;
          util::Buffer body = response.encode_buffer(dox::kDohHeadroom);
          const std::vector<h2::Header> headers =
              dox::doh_response_headers(body.size());
          state->h2->send_response(stream_id, headers, std::move(body));
        });
  };
  return std::make_unique<h2::H2Connection>(/*is_client=*/false,
                                            std::move(callbacks));
}

// --------------------------------------------------------------------- DoQ

void DoxResolver::serve_doq() {
  // RFC 9250 port 853 plus the earlier draft ports the paper scanned.
  for (std::uint16_t port : {std::uint16_t(853), std::uint16_t(784),
                             std::uint16_t(8853)}) {
    auto server = std::make_unique<quic::QuicServer>(
        network_.simulator(), *udp_, port,
        server_quic_config(profile_.doq_alpn));
    server->on_accept([this](const std::shared_ptr<quic::QuicConnection>& conn,
                             const net::Endpoint&) {
      const bool prefix = dox::alpn_uses_length_prefix(profile_.doq_alpn);
      // Queries that arrive in pieces, by stream; a whole one is decoded
      // from the datagram itself.
      auto buffers =
          std::make_shared<std::map<std::uint64_t,
                                    std::vector<std::uint8_t>>>();
      // Weak capture: the connection owns this callback, so a shared
      // capture would pin the connection alive forever (cycle). The
      // QuicServer's connection map is the owner.
      std::weak_ptr<quic::QuicConnection> weak_conn = conn;
      conn->set_on_stream_data([this, weak_conn, buffers, prefix](
                                   std::uint64_t stream_id,
                                   std::span<const std::uint8_t> data,
                                   bool fin) {
        std::vector<std::uint8_t> pieces;
        auto held = buffers->find(stream_id);
        if (!fin || held != buffers->end()) {
          if (held == buffers->end()) held = buffers->try_emplace(stream_id).first;
          held->second.insert(held->second.end(), data.begin(), data.end());
          if (!fin) return;
          pieces = std::move(held->second);
          buffers->erase(held);
          data = pieces;
        }
        const auto payload = dox::doq_stream_message(data, prefix);
        if (!payload) return;
        auto query = dns::Message::decode(*payload);
        if (!query) return;
        handle_query(dox::DnsProtocol::kDoQ, std::move(*query),
                     [weak_conn, stream_id, prefix](dns::Message response) {
                       auto conn = weak_conn.lock();
                       if (!conn || conn->closed()) return;
                       util::Buffer wire =
                           response.encode_buffer(/*headroom=*/2);
                       if (prefix) wire = dox::length_prefixed(std::move(wire));
                       conn->send_stream(stream_id, std::move(wire), true);
                     });
      });
    });
    quic_servers_.push_back(std::move(server));
  }
}

// -------------------------------------------------------------------- DoH3

void DoxResolver::serve_doh3() {
  // HTTP/3 on UDP 443 (alpn "h3"); shares the QUIC substrate with DoQ.
  auto server = std::make_unique<quic::QuicServer>(
      network_.simulator(), *udp_, 443, server_quic_config("h3"));
  server->on_accept([this](const std::shared_ptr<quic::QuicConnection>& conn,
                           const net::Endpoint&) {
    auto h3 = std::make_shared<std::unique_ptr<h3::H3Connection>>();
    auto bodies = std::make_shared<
        std::map<std::uint64_t, std::vector<std::uint8_t>>>();
    // The H3 session owns the connection and the connection's stream
    // callback reaches the session — both captures must be weak or the
    // pair leaks as a cycle. The resolver (doh3_conns_) is the owner.
    std::weak_ptr<quic::QuicConnection> weak_conn = conn;
    std::weak_ptr<std::unique_ptr<h3::H3Connection>> weak_h3 = h3;

    h3::H3Connection::Callbacks callbacks;
    callbacks.on_headers = [](std::uint64_t, const std::vector<h2::Header>&,
                              bool) {
      // POST /dns-query implied; the DATA frame carries the query.
    };
    callbacks.on_data = [this, weak_conn, weak_h3, bodies](
                            std::uint64_t stream_id,
                            std::span<const std::uint8_t> data,
                            bool end_stream) {
      auto& body = (*bodies)[stream_id];
      body.insert(body.end(), data.begin(), data.end());
      if (!end_stream) return;
      auto query = dns::Message::decode(body);
      bodies->erase(stream_id);
      if (!query) return;
      handle_query(
          dox::DnsProtocol::kDoH3, std::move(*query),
          [weak_conn, weak_h3, stream_id](dns::Message response) {
            auto conn = weak_conn.lock();
            auto h3 = weak_h3.lock();
            if (!conn || conn->closed() || !h3 || !*h3) return;
            auto body = response.encode();
            const std::vector<h2::Header> headers =
                dox::doh_response_headers(body.size());
            (*h3)->send_response(stream_id, headers, std::move(body));
          });
    };
    *h3 = std::make_unique<h3::H3Connection>(conn, /*is_client=*/false,
                                             std::move(callbacks));
    conn->set_on_stream_data([weak_h3](std::uint64_t id,
                                       std::span<const std::uint8_t> data,
                                       bool fin) {
      auto h3 = weak_h3.lock();
      if (!h3 || !*h3) return;
      (*h3)->on_stream_data(id, data, fin);
    });
    // Drop the session once its connection closes, one event-loop turn
    // later: the close may run inside the session's own call stack.
    conn->set_on_closed([this, weak_h3](const util::Error&) {
      network_.simulator().schedule(0, [this, weak_h3] {
        if (auto h3 = weak_h3.lock()) std::erase(doh3_conns_, h3);
      });
    });
    (*h3)->start();
    doh3_conns_.push_back(std::move(h3));
  });
  quic_servers_.push_back(std::move(server));
}

}  // namespace doxlab::resolver
