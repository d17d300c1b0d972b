#include "dox/framing.h"

#include <algorithm>
#include <cstdlib>

namespace doxlab::dox {

std::vector<std::uint8_t> length_prefixed(const std::vector<std::uint8_t>& m) {
  std::vector<std::uint8_t> out;
  out.reserve(m.size() + 2);
  out.push_back(static_cast<std::uint8_t>(m.size() >> 8));
  out.push_back(static_cast<std::uint8_t>(m.size() & 0xFF));
  out.insert(out.end(), m.begin(), m.end());
  return out;
}

util::Buffer length_prefixed(util::Buffer m) {
  const std::size_t len = m.size();
  std::uint8_t* prefix = m.prepend(2);
  prefix[0] = static_cast<std::uint8_t>(len >> 8);
  prefix[1] = static_cast<std::uint8_t>(len & 0xFF);
  return m;
}

std::vector<std::vector<std::uint8_t>> StreamMessageReader::feed(
    std::span<const std::uint8_t> data) {
  std::vector<std::vector<std::uint8_t>> out;
  if (failed_) return out;
  buffer_.insert(buffer_.end(), data.begin(), data.end());
  while (buffer_.size() >= 2) {
    const std::size_t len = (std::size_t(buffer_[0]) << 8) | buffer_[1];
    // A prefix announcing less than a DNS header is not a DNS stream:
    // poison the reader rather than resynchronising on garbage.
    if (len < kMinMessageBytes) {
      failed_ = true;
      buffer_.clear();
      return out;
    }
    if (buffer_.size() < 2 + len) break;
    out.emplace_back(buffer_.begin() + 2, buffer_.begin() + 2 + len);
    buffer_.erase(buffer_.begin(), buffer_.begin() + 2 + len);
  }
  // The extraction loop drains every complete message, so leftover bytes
  // are at most one partial message; anything larger is a framing bug.
  if (buffer_.size() > kMaxBufferedBytes) {
    failed_ = true;
    buffer_.clear();
  }
  return out;
}

bool alpn_uses_length_prefix(std::string_view alpn) {
  if (alpn == "doq") return true;
  if (alpn.starts_with("doq-i")) {
    const int draft = std::atoi(std::string(alpn.substr(5)).c_str());
    return draft >= 3;
  }
  return false;
}

std::optional<std::span<const std::uint8_t>> doq_stream_message(
    std::span<const std::uint8_t> stream, bool length_prefix) {
  if (!length_prefix) return stream;
  if (stream.size() < 2) return std::nullopt;
  const std::size_t len = (std::size_t(stream[0]) << 8) | stream[1];
  return stream.subspan(2, std::min(len, stream.size() - 2));
}

std::vector<h2::Header> doh_request_headers(std::string authority,
                                            std::size_t content_length) {
  return {
      {":method", "POST"},
      {":scheme", "https"},
      {":authority", std::move(authority)},
      {":path", "/dns-query"},
      {"accept", "application/dns-message"},
      {"content-type", "application/dns-message"},
      {"content-length", std::to_string(content_length)},
      {"user-agent", "doxlab-dnsperf/1.0"},
  };
}

std::vector<h2::Header> doh_response_headers(std::size_t content_length) {
  return {
      {":status", "200"},
      {"content-type", "application/dns-message"},
      {"content-length", std::to_string(content_length)},
      {"cache-control", "no-cache"},
  };
}

}  // namespace doxlab::dox
