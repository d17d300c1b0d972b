// DoTCP: DNS over plain TCP with RFC 1035 2-byte length framing.
//
// Default behaviour matches what the paper measured: since no resolver
// supports edns-tcp-keepalive or TFO, every query pays a fresh 3-way
// handshake and teardown (2 round trips per query in total). A connection
// on which the server advertises edns-tcp-keepalive (RFC 7828) is kept for
// later queries, as RFC 9210 recommends; TFO is an option for the ablation
// benches.
#include "dox/transport_base.h"

namespace doxlab::dox {

namespace {

class TcpTransport final : public TransportBase {
 public:
  TcpTransport(const TransportDeps& deps, const TransportOptions& options)
      : TransportBase(DnsProtocol::kDoTcp, deps, options) {}

  ~TcpTransport() override { reset_sessions(); }

  void resolve(const dns::Question& question, ResultHandler handler) override {
    auto pending = make_pending(question, std::move(handler));
    // Reuse the connection on which the server advertised
    // edns-tcp-keepalive.
    if (persistent_) {
      send_query(persistent_, pending);
      return;
    }
    open_connection(pending);
  }

  void reset_sessions() override {
    persistent_.reset();
    // Connections without keep-alive close themselves after the response,
    // but an in-flight one must not survive a session reset. Closing
    // triggers on_closed, which erases the state from open_.
    auto open = open_;
    for (auto& state : open) state->conn->close();
    open_.clear();
  }

  WireStats wire_stats() const override {
    WireStats stats = stats_;
    if (auto state = last_.lock()) {
      // Connection still alive: report live totals.
      stats.total_c2r = state->conn->bytes_sent();
      stats.total_r2c = state->conn->bytes_received();
    }
    return stats;
  }

 private:
  struct ConnState {
    std::shared_ptr<tcp::TcpConnection> conn;
    StreamMessageReader reader;
    std::vector<PendingPtr> in_flight;
    std::vector<PendingPtr> queued;
    bool connected = false;
    bool keepalive = false;  // server sent edns-tcp-keepalive
  };
  using StatePtr = std::shared_ptr<ConnState>;

  void open_connection(const PendingPtr& first) {
    auto state = std::make_shared<ConnState>();
    tcp::TcpOptions tcp_options;
    tcp_options.enable_tfo = options_.tcp_use_tfo;
    tcp_options.congestion_algorithm = options_.tcp_congestion;
    state->conn = deps_.tcp->connect(options_.resolver, tcp_options);
    first->result.new_session = true;
    mark(first, QueryPhase::kConnect);
    state->in_flight.push_back(first);
    state->queued.push_back(first);
    stats_ = WireStats{};  // fresh connection, fresh accounting
    last_ = state;
    // open_ is the state's owner until on_closed fires (the connection's
    // callbacks deliberately hold it only weakly).
    open_.push_back(state);

    // The state owns the connection, so handlers the connection stores must
    // capture it weakly or the pair leaks as a reference cycle.
    std::weak_ptr<ConnState> weak_state = state;
    state->conn->on_connected([this, weak_state, guard = alive_guard()] {
      if (guard.expired()) return;
      auto state = weak_state.lock();
      if (!state) return;
      state->connected = true;
      stats_.handshake_c2r = state->conn->bytes_sent();
      stats_.handshake_r2c = state->conn->bytes_received();
      for (auto& p : state->in_flight) {
        if (p->result.new_session) mark(p, QueryPhase::kSecure);
      }
      flush_queued(state);
    });
    state->conn->on_data([this, weak_state, guard = alive_guard()](
                             std::span<const std::uint8_t> data) {
      if (guard.expired()) return;
      auto state = weak_state.lock();
      if (!state) return;
      on_stream_data(state, data);
    });
    state->conn->on_closed([this, weak_state,
                            guard = alive_guard()](const util::Error& error) {
      if (guard.expired()) return;
      auto state = weak_state.lock();
      if (!state) return;
      stats_.total_c2r = state->conn->bytes_sent();
      stats_.total_r2c = state->conn->bytes_received();
      last_.reset();
      if (!error.ok()) {
        for (auto& p : state->in_flight) {
          finish_error(p, error);
        }
      }
      state->in_flight.clear();
      if (persistent_ == state) persistent_.reset();
      std::erase(open_, state);
    });

    // With TFO the query rides the SYN: the SYN is deferred one event-loop
    // turn, so sending now puts the data in the fast-open payload.
    if (options_.tcp_use_tfo) flush_queued(state);
  }

  void flush_queued(const StatePtr& state) {
    for (auto& pending : state->queued) {
      if (pending->done) continue;
      dns::Message query = build_query(pending, /*encrypted=*/false);
      state->conn->send(length_prefixed(query.encode()));
      mark(pending, QueryPhase::kRequestSent);
    }
    state->queued.clear();
  }

  void send_query(const StatePtr& state, const PendingPtr& pending) {
    state->in_flight.push_back(pending);
    dns::Message query = build_query(pending, /*encrypted=*/false);
    state->conn->send(length_prefixed(query.encode()));
    mark(pending, QueryPhase::kRequestSent);
  }

  void on_stream_data(const StatePtr& state,
                      std::span<const std::uint8_t> data) {
    auto payloads = state->reader.feed(data);
    if (state->reader.failed()) {
      fail_stream(state);
      return;
    }
    for (auto& payload : payloads) {
      auto message = dns::Message::decode(payload);
      if (!message) continue;
      if (server_advertises_keepalive(*message)) {
        // RFC 7828: the server invites connection reuse — follow RFC 9210
        // and keep this connection for subsequent queries.
        state->keepalive = true;
        persistent_ = state;
      }
      for (auto it = state->in_flight.begin(); it != state->in_flight.end();
           ++it) {
        if (matches(*message, **it)) {
          auto pending = *it;
          state->in_flight.erase(it);
          finish_success(pending, std::move(*message));
          break;
        }
      }
    }
    if (!state->keepalive && state->in_flight.empty()) {
      // Single-shot mode: tear the connection down after the response.
      state->conn->close();
    }
  }

  /// Garbage length framing on the stream: the channel is unusable, so
  /// every in-flight query fails kProtocolError and the connection aborts.
  void fail_stream(const StatePtr& state) {
    auto in_flight = std::move(state->in_flight);
    state->in_flight.clear();
    for (auto& p : in_flight) {
      finish_error(p, util::Error::protocol("garbage DNS message framing"));
    }
    state->conn->abort();
  }

  static bool server_advertises_keepalive(const dns::Message& response) {
    const dns::ResourceRecord* opt = response.opt();
    if (opt == nullptr) return false;
    auto options = dns::rdata_as_options(*opt);
    if (!options) return false;
    for (const auto& option : *options) {
      if (option.code == dns::kEdnsTcpKeepaliveOption) return true;
    }
    return false;
  }

  /// The connected keep-alive connection, if any.
  StatePtr persistent_;
  /// Owns every not-yet-closed connection state (connections without
  /// keep-alive have no other owner).
  std::vector<StatePtr> open_;
  std::weak_ptr<ConnState> last_;
  WireStats stats_;
};

}  // namespace

std::unique_ptr<DnsTransport> make_tcp_transport(
    const TransportDeps& deps, const TransportOptions& options) {
  return std::make_unique<TcpTransport>(deps, options);
}

}  // namespace doxlab::dox
