// HTTP/3 connection model (RFC 9114) over the QUIC stack — the transport
// behind DoH3, the paper's future-work protocol.
//
// Modelled pieces:
//   * unidirectional control streams (stream type 0x00) carrying SETTINGS,
//   * request streams on client-initiated bidirectional streams, carrying
//     HEADERS (0x01) and DATA (0x00) frames with varint type/length,
//   * QPACK-shaped field compression: a 2-byte encoded-field-section prefix
//     plus the same static/dynamic-table size model as the HPACK module
//     (QPACK's static table differs from HPACK's, but the byte-cost
//     behaviour — literals once, 1-byte references after — is what matters
//     for DoH3's size accounting).
//
// Unlike DoH-over-H2 there is no TCP and no TLS record layer: the QUIC
// handshake IS the session setup, so DoH3's connection establishment costs
// the same single round trip as DoQ.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "h2/hpack.h"
#include "quic/connection.h"

namespace doxlab::h3 {

/// HTTP/3 frame types (RFC 9114 §7.2).
enum class H3FrameType : std::uint64_t {
  kData = 0x00,
  kHeaders = 0x01,
  kSettings = 0x04,
  kGoaway = 0x07,
};

/// Unidirectional stream ids used for the control streams: the first
/// client- and server-initiated unidirectional streams (RFC 9000 §2.1).
inline constexpr std::uint64_t kClientControlStream = 2;
inline constexpr std::uint64_t kServerControlStream = 3;

class H3Connection {
 public:
  struct Callbacks {
    std::function<void(std::uint64_t stream_id,
                       const std::vector<h2::Header>& headers,
                       bool end_stream)>
        on_headers;
    std::function<void(std::uint64_t stream_id,
                       std::span<const std::uint8_t> data, bool end_stream)>
        on_data;
    /// Fatal framing/compression failure (always kProtocolError).
    std::function<void(const util::Error&)> on_error;
  };

  /// Binds to an established (or establishing) QUIC connection. The owner
  /// must forward QUIC stream data via `on_stream_data`.
  H3Connection(std::shared_ptr<quic::QuicConnection> conn, bool is_client,
               Callbacks callbacks);

  /// Opens the control stream and sends SETTINGS. Clients call this once
  /// (before or after the handshake; QUIC queues as needed); servers call
  /// it from their accept hook.
  void start();

  /// Client: sends a request (HEADERS [+ DATA]) on a new bidirectional
  /// stream; returns the stream id.
  std::uint64_t send_request(const std::vector<h2::Header>& headers,
                             std::vector<std::uint8_t> body);

  /// Server: sends the response on the request's stream.
  void send_response(std::uint64_t stream_id,
                     const std::vector<h2::Header>& headers,
                     std::vector<std::uint8_t> body);

  /// Feed for QUIC stream data (request/response and control streams).
  void on_stream_data(std::uint64_t stream_id,
                      std::span<const std::uint8_t> data, bool fin);

  bool settings_received() const { return settings_received_; }

 private:
  std::vector<std::uint8_t> encode_frame(H3FrameType type,
                                         std::span<const std::uint8_t> body);
  std::vector<std::uint8_t> headers_frame(
      const std::vector<h2::Header>& headers);
  /// A request or response stream: HEADERS, then DATA when `body` is not
  /// empty.
  util::Buffer message_stream(const std::vector<h2::Header>& headers,
                              std::span<const std::uint8_t> body);
  void process_request_stream(std::uint64_t stream_id, bool fin);
  void fail(const std::string& reason);

  std::shared_ptr<quic::QuicConnection> conn_;
  bool is_client_;
  Callbacks cb_;
  h2::HpackEncoder encoder_;
  h2::HpackDecoder decoder_;
  bool started_ = false;
  bool failed_ = false;
  bool settings_received_ = false;
  std::map<std::uint64_t, std::vector<std::uint8_t>> stream_buffers_;
  /// Unidirectional streams whose stream-type byte has been consumed, with
  /// the type value (frames keep arriving across multiple deliveries).
  std::map<std::uint64_t, std::uint8_t> uni_stream_types_;
};

}  // namespace doxlab::h3
