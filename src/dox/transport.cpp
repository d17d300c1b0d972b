#include "dox/transport.h"

#include <stdexcept>

#include "dox/transport_base.h"

namespace doxlab::dox {

// Defined in the per-protocol translation units.
std::unique_ptr<DnsTransport> make_udp_transport(const TransportDeps&,
                                                 const TransportOptions&);
std::unique_ptr<DnsTransport> make_tcp_transport(const TransportDeps&,
                                                 const TransportOptions&);
std::unique_ptr<DnsTransport> make_dot_transport(const TransportDeps&,
                                                 const TransportOptions&);
std::unique_ptr<DnsTransport> make_doh_transport(const TransportDeps&,
                                                 const TransportOptions&);
std::unique_ptr<DnsTransport> make_doq_transport(const TransportDeps&,
                                                 const TransportOptions&);
std::unique_ptr<DnsTransport> make_doh3_transport(const TransportDeps&,
                                                  const TransportOptions&);

std::unique_ptr<DnsTransport> make_transport(DnsProtocol protocol,
                                             const TransportDeps& deps,
                                             const TransportOptions& options) {
  if (deps.sim == nullptr) {
    throw std::invalid_argument("TransportDeps.sim is required");
  }
  switch (protocol) {
    case DnsProtocol::kDoUdp:
      if (deps.udp == nullptr) {
        throw std::invalid_argument("DoUDP requires a UDP stack");
      }
      return make_udp_transport(deps, options);
    case DnsProtocol::kDoTcp:
      if (deps.tcp == nullptr) {
        throw std::invalid_argument("DoTCP requires a TCP stack");
      }
      return make_tcp_transport(deps, options);
    case DnsProtocol::kDoT:
      if (deps.tcp == nullptr) {
        throw std::invalid_argument("DoT requires a TCP stack");
      }
      return make_dot_transport(deps, options);
    case DnsProtocol::kDoH:
      if (deps.tcp == nullptr) {
        throw std::invalid_argument("DoH requires a TCP stack");
      }
      return make_doh_transport(deps, options);
    case DnsProtocol::kDoQ:
      if (deps.udp == nullptr) {
        throw std::invalid_argument("DoQ requires a UDP stack");
      }
      return make_doq_transport(deps, options);
    case DnsProtocol::kDoH3:
      if (deps.udp == nullptr) {
        throw std::invalid_argument("DoH3 requires a UDP stack");
      }
      return make_doh3_transport(deps, options);
  }
  throw std::invalid_argument("unknown protocol");
}

namespace {

/// Takes the query off a finished request stream and its connection.
PendingPtr take_stream(DohStreams& streams, InFlightList& in_flight,
                       std::map<std::uint64_t, PendingPtr>::iterator it) {
  PendingPtr pending = std::move(it->second);
  streams.by_stream.erase(it);
  in_flight.erase(*pending);
  return pending;
}

}  // namespace

void TransportBase::on_doh_headers(DohStreams& streams,
                                   InFlightList& in_flight,
                                   std::uint64_t stream_id,
                                   const std::vector<h2::Header>& headers,
                                   bool end_stream) {
  auto it = streams.by_stream.find(stream_id);
  if (it == streams.by_stream.end()) return;
  for (const auto& h : headers) {
    if (h.name == ":status" && h.value != "200") {
      finish_error(take_stream(streams, in_flight, it),
                   util::Error::protocol("HTTP status " + h.value));
      return;
    }
  }
  if (end_stream) {
    finish_error(take_stream(streams, in_flight, it),
                 util::Error::truncated("empty " +
                                        std::string(protocol_name(protocol_)) +
                                        " response"));
  }
}

void TransportBase::on_doh_data(DohStreams& streams,
                                InFlightList& in_flight,
                                std::uint64_t stream_id,
                                std::span<const std::uint8_t> data,
                                bool end_stream) {
  auto it = streams.by_stream.find(stream_id);
  if (it == streams.by_stream.end()) return;
  auto& body = streams.bodies[stream_id];
  body.insert(body.end(), data.begin(), data.end());
  if (!end_stream) return;

  PendingPtr pending = take_stream(streams, in_flight, it);
  auto message = dns::Message::decode(body);
  streams.bodies.erase(stream_id);
  if (!message || !matches(*message, *pending)) {
    finish_error(pending, util::Error::protocol(
                              "malformed " +
                              std::string(protocol_name(protocol_)) +
                              " response body"));
    return;
  }
  finish_success(pending, std::move(*message));
}

}  // namespace doxlab::dox
