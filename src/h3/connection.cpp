#include "h3/connection.h"

#include "util/bytes.h"

namespace doxlab::h3 {

namespace {
/// Unidirectional stream type for control streams (RFC 9114 §6.2.1).
constexpr std::uint8_t kControlStreamType = 0x00;
}  // namespace

H3Connection::H3Connection(std::shared_ptr<quic::QuicConnection> conn,
                           bool is_client, Callbacks callbacks)
    : conn_(std::move(conn)), is_client_(is_client), cb_(std::move(callbacks)) {}

void H3Connection::fail(const std::string& reason) {
  if (failed_) return;
  failed_ = true;
  if (cb_.on_error) cb_.on_error(util::Error::protocol(reason));
}

std::vector<std::uint8_t> H3Connection::encode_frame(
    H3FrameType type, std::span<const std::uint8_t> body) {
  ByteWriter w(body.size() + 4);
  w.varint(static_cast<std::uint64_t>(type));
  w.varint(body.size());
  w.bytes(body);
  return w.take();
}

void H3Connection::start() {
  if (started_ || failed_) return;
  started_ = true;
  // Control stream: stream type byte, then SETTINGS (three entries:
  // QPACK_MAX_TABLE_CAPACITY, QPACK_BLOCKED_STREAMS, MAX_FIELD_SECTION_SIZE).
  ByteWriter settings;
  settings.varint(0x01);
  settings.varint(4096);
  settings.varint(0x07);
  settings.varint(16);
  settings.varint(0x06);
  settings.varint(16384);
  ByteWriter stream = ByteWriter::pooled(settings.size() + 8,
                                         /*headroom=*/0);
  stream.u8(kControlStreamType);
  stream.bytes(encode_frame(H3FrameType::kSettings, settings.view()));
  conn_->send_stream(is_client_ ? kClientControlStream : kServerControlStream,
                     stream.take_buffer(), /*fin=*/false);
}

std::vector<std::uint8_t> H3Connection::headers_frame(
    const std::vector<h2::Header>& headers) {
  // QPACK encoded field section: 2-byte prefix (required insert count +
  // delta base) followed by the compressed fields.
  ByteWriter block;
  block.u16(0);  // prefix: static-table-only / in-order dynamic references
  auto fields = encoder_.encode(headers);
  block.bytes(fields);
  return encode_frame(H3FrameType::kHeaders, block.view());
}

util::Buffer H3Connection::message_stream(
    const std::vector<h2::Header>& headers,
    std::span<const std::uint8_t> body) {
  const std::vector<std::uint8_t> header_frame = headers_frame(headers);
  ByteWriter w = ByteWriter::pooled(header_frame.size() + body.size() + 16,
                                    /*headroom=*/0);
  w.bytes(header_frame);
  if (!body.empty()) {
    w.varint(static_cast<std::uint64_t>(H3FrameType::kData));
    w.varint(body.size());
    w.bytes(body);
  }
  return w.take_buffer();
}

std::uint64_t H3Connection::send_request(
    const std::vector<h2::Header>& headers, std::vector<std::uint8_t> body) {
  return conn_->open_stream(message_stream(headers, body), /*fin=*/true);
}

void H3Connection::send_response(std::uint64_t stream_id,
                                 const std::vector<h2::Header>& headers,
                                 std::vector<std::uint8_t> body) {
  conn_->send_stream(stream_id, message_stream(headers, body), /*fin=*/true);
}

void H3Connection::on_stream_data(std::uint64_t stream_id,
                                  std::span<const std::uint8_t> data,
                                  bool fin) {
  if (failed_) return;
  auto& buffer = stream_buffers_[stream_id];
  buffer.insert(buffer.end(), data.begin(), data.end());

  const bool unidirectional = (stream_id & 0x2) != 0;
  if (unidirectional) {
    // The stream-type byte arrives once per stream; remember it so later
    // deliveries on the same stream parse as frames, not as a new type.
    auto type_it = uni_stream_types_.find(stream_id);
    if (type_it == uni_stream_types_.end()) {
      if (buffer.empty()) return;
      type_it =
          uni_stream_types_.emplace(stream_id, buffer.front()).first;
      buffer.erase(buffer.begin());
    }
    if (type_it->second != kControlStreamType) {
      // QPACK encoder/decoder streams etc. — absorbed silently.
      buffer.clear();
      return;
    }
    ByteReader r(buffer);
    while (true) {
      const std::size_t mark = r.position();
      auto frame_type = r.varint();
      auto length = r.varint();
      if (!frame_type || !length || r.remaining() < *length) {
        buffer.erase(buffer.begin(), buffer.begin() + static_cast<long>(mark));
        return;
      }
      auto body = r.bytes(*length);
      if (static_cast<H3FrameType>(*frame_type) == H3FrameType::kSettings) {
        settings_received_ = true;
      }
      (void)body;
    }
  }

  process_request_stream(stream_id, fin);
}

void H3Connection::process_request_stream(std::uint64_t stream_id, bool fin) {
  // Request/response streams: frames are delivered to the application once
  // complete; HEADERS may arrive before the DATA frame is complete.
  auto& buffer = stream_buffers_[stream_id];
  while (true) {
    ByteReader r(buffer);
    auto frame_type = r.varint();
    auto length = r.varint();
    if (!frame_type || !length || r.remaining() < *length) break;
    auto body = r.bytes(*length);
    const std::size_t consumed = r.position();
    const bool last_frame = fin && r.at_end();

    switch (static_cast<H3FrameType>(*frame_type)) {
      case H3FrameType::kHeaders: {
        ByteReader block(*body);
        block.u16();  // QPACK field-section prefix
        auto rest = block.bytes(block.remaining());
        auto headers = decoder_.decode(*rest);
        if (!headers) {
          fail("QPACK decode error");
          return;
        }
        if (cb_.on_headers) cb_.on_headers(stream_id, *headers, last_frame);
        break;
      }
      case H3FrameType::kData:
        if (cb_.on_data) cb_.on_data(stream_id, *body, last_frame);
        break;
      case H3FrameType::kSettings:
        fail("SETTINGS on request stream");
        return;
      case H3FrameType::kGoaway:
        break;
    }
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<long>(consumed));
    if (failed_) return;
  }
  if (fin && buffer.empty()) stream_buffers_.erase(stream_id);
}

}  // namespace doxlab::h3
