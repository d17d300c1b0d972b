#include "proxy/proxy.h"

#include "util/logging.h"

namespace doxlab::proxy {

DnsProxy::DnsProxy(net::UdpStack& stub_udp,
                   const dox::TransportDeps& upstream_deps,
                   ProxyConfig config)
    : config_(std::move(config)) {
  dox::TransportOptions options = config_.transport_options;
  options.resolver = config_.upstream;
  transport_ = dox::make_transport(config_.upstream_protocol, upstream_deps,
                                   options);
  listener_ = stub_udp.bind(config_.listen_port);
  listener_->on_datagram([this](const net::Endpoint& from,
                                util::Buffer payload) {
    on_stub_query(from, std::move(payload));
  });
}

void DnsProxy::reset_sessions() { transport_->reset_sessions(); }

void DnsProxy::on_stub_query(const net::Endpoint& from,
                             util::Buffer payload) {
  auto query = dns::Message::decode(payload);
  if (!query || query->qr || query->questions.empty()) return;
  const dns::Question question = query->questions.front();
  const std::uint16_t stub_id = query->id;

  ++forwarded_;
  transport_->resolve(
      question, [this, from, stub_id, question](dox::QueryResult result) {
        if (!result.ok()) {
          DOXLAB_DEBUG("proxy upstream failure: " << result.error());
          // Real dnsproxy would eventually SERVFAIL; the stub's own
          // timeout/retry handles it either way. Send SERVFAIL for
          // determinism.
          ++servfails_sent_;
          dns::Message servfail;
          servfail.id = stub_id;
          servfail.qr = true;
          servfail.ra = true;
          servfail.rcode = dns::RCode::kServFail;
          servfail.questions = {question};
          listener_->send_to(from, servfail.encode());
          return;
        }
        dns::Message response = result.response;
        response.id = stub_id;  // restore the stub's transaction id
        listener_->send_to(from, response.encode());
      });
}

}  // namespace doxlab::proxy
