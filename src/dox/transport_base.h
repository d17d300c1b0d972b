// Shared machinery for the six transport implementations (internal header).
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dox/framing.h"
#include "dox/transport.h"
#include "util/buffer.h"
#include "util/logging.h"

namespace doxlab::dox {

/// One resolve() call in flight.
struct PendingQuery {
  dns::Question question;
  DnsTransport::ResultHandler handler;
  QueryResult result;
  std::uint16_t dns_id = 0;
  sim::Timer timeout;
  bool done = false;
  /// Its slot in the InFlightList that holds it.
  std::size_t in_flight_slot = 0;
};
using PendingPtr = std::shared_ptr<PendingQuery>;

/// The queries sent on one connection, in send order. Each query knows its
/// slot, so removing an answered one is O(1): the slot goes dead, and the
/// list compacts (keeping the order) once more than half of it is dead.
class InFlightList {
 public:
  void push_back(PendingPtr pending) {
    pending->in_flight_slot = slots_.size();
    slots_.push_back(std::move(pending));
    ++live_;
  }

  /// Removes `pending`; a query this list does not hold is left alone.
  void erase(const PendingQuery& pending) {
    const std::size_t slot = pending.in_flight_slot;
    if (slot >= slots_.size() || slots_[slot].get() != &pending) return;
    slots_[slot] = nullptr;
    --live_;
    if (2 * live_ < slots_.size()) {
      std::erase(slots_, nullptr);
      for (std::size_t i = 0; i < slots_.size(); ++i) {
        slots_[i]->in_flight_slot = i;
      }
    }
  }

  bool empty() const { return live_ == 0; }

  /// Calls `visit(pending)` for each held query in send order.
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (const PendingPtr& pending : slots_) {
      if (pending != nullptr) visit(pending);
    }
  }

  /// The first held query, in send order, that `pred` accepts, or null.
  template <typename Pred>
  PendingPtr find_if(Pred&& pred) const {
    for (const PendingPtr& pending : slots_) {
      if (pending != nullptr && pred(*pending)) return pending;
    }
    return nullptr;
  }

  /// Empties the list, returning its queries in send order.
  std::vector<PendingPtr> take() {
    std::erase(slots_, nullptr);
    live_ = 0;
    return std::exchange(slots_, {});
  }

 private:
  std::vector<PendingPtr> slots_;
  std::size_t live_ = 0;
};

/// DoH (RFC 8484) over HTTP/2 or HTTP/3, per connection: the query each
/// request stream carries and the response body received so far.
struct DohStreams {
  std::map<std::uint64_t, PendingPtr> by_stream;
  std::map<std::uint64_t, std::vector<std::uint8_t>> bodies;
};

/// Common bookkeeping: pending-query lifecycle, ids, timeouts.
class TransportBase : public DnsTransport {
 public:
  DnsProtocol protocol() const override { return protocol_; }

 protected:
  TransportBase(DnsProtocol protocol, TransportDeps deps,
                TransportOptions options)
      : protocol_(protocol), deps_(deps), options_(std::move(options)) {}

  sim::Simulator& sim() { return *deps_.sim; }

  /// Records a phase transition on the pending query's timeline (first
  /// mark wins — a retransmission never moves kRequestSent).
  void mark(const PendingPtr& pending, QueryPhase phase) {
    pending->result.timeline.mark(phase, sim().now());
  }

  /// Creates a pending entry with a fresh DNS id and an armed timeout.
  PendingPtr make_pending(const dns::Question& question,
                          ResultHandler handler) {
    auto pending = std::make_shared<PendingQuery>();
    pending->question = question;
    pending->handler = std::move(handler);
    pending->dns_id = next_id_++;
    mark(pending, QueryPhase::kSubmit);
    std::weak_ptr<PendingQuery> weak = pending;
    pending->timeout = sim().schedule(
        options_.query_timeout, [this, weak, guard = alive_guard()] {
          if (guard.expired()) return;
          if (auto p = weak.lock()) {
            finish_error(p, util::Error::timeout(
                                std::string(util::kQueryDeadlineDetail)));
          }
        });
    return pending;
  }

  /// Completes a query successfully with `response`.
  void finish_success(const PendingPtr& pending, dns::Message response) {
    if (pending->done) return;
    pending->done = true;
    pending->timeout.cancel();
    pending->result.outcome = util::Outcome::success();
    pending->result.response = std::move(response);
    mark(pending, QueryPhase::kResponse);
    // Move the handler out: it often captures the caller's object graph,
    // and the pending entry may linger in per-connection lists.
    auto handler = std::move(pending->handler);
    pending->handler = nullptr;
    if (handler) handler(std::move(pending->result));
  }

  /// Completes a query with a typed error.
  void finish_error(const PendingPtr& pending, util::Error error) {
    if (pending->done) return;
    pending->done = true;
    pending->timeout.cancel();
    pending->result.outcome = util::Outcome::failure(std::move(error));
    mark(pending, QueryPhase::kError);
    auto handler = std::move(pending->handler);
    pending->handler = nullptr;
    if (handler) handler(std::move(pending->result));
  }

  /// Builds the wire query for a pending entry, advertising the default
  /// 1232-byte EDNS0 UDP payload size and, on encrypted transports when
  /// configured, applying RFC 8467 padding.
  dns::Message build_query(const PendingPtr& pending,
                           bool encrypted_channel) const {
    dns::Message query = dns::make_query(
        pending->dns_id, pending->question.name, pending->question.type);
    if (encrypted_channel && options_.pad_encrypted) {
      dns::pad_to_block(query, 128);
    }
    return query;
  }

  /// True if `message` is a well-formed response to `pending`.
  static bool matches(const dns::Message& message,
                      const PendingQuery& pending) {
    return message.qr && message.id == pending.dns_id &&
           message.question() != nullptr &&
           *message.question() == pending.question;
  }

  /// The resolver's TLS SNI and HTTP authority.
  std::string server_name() const {
    return "resolver-" + options_.resolver.address.to_string();
  }

  /// The stored ticket for `key` when resumption is on.
  std::optional<tls::SessionTicket> session_ticket(const std::string& key) {
    if (!options_.use_session_resumption || deps_.tickets == nullptr) {
      return std::nullopt;
    }
    return deps_.tickets->get(key, sim().now());
  }

  /// DoH response HEADERS: a non-200 status, or a response that ends
  /// without a body, fails the query.
  void on_doh_headers(DohStreams& streams, InFlightList& in_flight,
                      std::uint64_t stream_id,
                      const std::vector<h2::Header>& headers,
                      bool end_stream);

  /// DoH response DATA: reassembles the body, then decodes and matches it.
  void on_doh_data(DohStreams& streams, InFlightList& in_flight,
                   std::uint64_t stream_id,
                   std::span<const std::uint8_t> data, bool end_stream);

  /// Destruction guard: connection/session callbacks outlive the transport
  /// (they sit inside TCP/QUIC objects that tear down asynchronously), so
  /// every callback capturing `this` must also capture
  /// `guard = alive_guard()` and bail out when it has expired.
  std::weak_ptr<const bool> alive_guard() const { return alive_; }

  DnsProtocol protocol_;
  TransportDeps deps_;
  TransportOptions options_;
  std::uint16_t next_id_ = 0x1000;

 private:
  std::shared_ptr<const bool> alive_ = std::make_shared<bool>(true);
};

}  // namespace doxlab::dox
