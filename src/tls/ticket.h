// TLS session tickets (RFC 8446 §4.6.1) and the client-side ticket store.
//
// Resolvers in the paper all support Session Resumption with the maximum
// 7-day ticket lifetime; no resolver supports 0-RTT. Both behaviours are
// per-ticket flags here so the ablation benches can flip them.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "util/types.h"

namespace doxlab::tls {

enum class TlsVersion : std::uint16_t {
  kTls12 = 0x0303,
  kTls13 = 0x0304,
};

/// The lifetime of every ticket a server issues: RFC 8446's 7-day maximum,
/// which all resolvers in the paper's population use.
inline constexpr SimTime kTicketLifetime = 7 * kDay;

/// A resumption ticket as stored by the client. `server_secret` stands in
/// for the server's session-ticket encryption key: the server accepts a
/// ticket iff the secret matches and the ticket is within its lifetime.
struct SessionTicket {
  std::uint64_t server_secret = 0;
  std::uint64_t ticket_id = 0;
  SimTime issued_at = 0;
  SimTime lifetime = kTicketLifetime;
  bool allow_early_data = false;
  TlsVersion version = TlsVersion::kTls13;
  std::string alpn;

  bool valid_at(SimTime now) const {
    return now >= issued_at && (now - issued_at) < lifetime;
  }
};

/// Client-side ticket cache, keyed by an opaque server key (the DoX clients
/// use "<ip>:<port>/<protocol>"). Holds the most recent ticket per server.
class TicketStore {
 public:
  void put(const std::string& server_key, const SessionTicket& ticket) {
    tickets_[server_key] = ticket;
  }

  /// Returns a ticket that is still valid at `now`, erasing expired ones.
  std::optional<SessionTicket> get(const std::string& server_key, SimTime now);

  void erase(const std::string& server_key) { tickets_.erase(server_key); }
  void clear() { tickets_.clear(); }
  std::size_t size() const { return tickets_.size(); }

 private:
  std::map<std::string, SessionTicket> tickets_;
};

}  // namespace doxlab::tls
