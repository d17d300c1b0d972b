#include "dns/message.h"

#include <algorithm>

namespace doxlab::dns {

std::string_view rrtype_name(RRType t) {
  switch (t) {
    case RRType::kA: return "A";
    case RRType::kNS: return "NS";
    case RRType::kCNAME: return "CNAME";
    case RRType::kSOA: return "SOA";
    case RRType::kPTR: return "PTR";
    case RRType::kMX: return "MX";
    case RRType::kTXT: return "TXT";
    case RRType::kAAAA: return "AAAA";
    case RRType::kSVCB: return "SVCB";
    case RRType::kHTTPS: return "HTTPS";
    case RRType::kOPT: return "OPT";
  }
  return "?";
}

std::string_view rcode_name(RCode r) {
  switch (r) {
    case RCode::kNoError: return "NOERROR";
    case RCode::kFormErr: return "FORMERR";
    case RCode::kServFail: return "SERVFAIL";
    case RCode::kNXDomain: return "NXDOMAIN";
    case RCode::kNotImp: return "NOTIMP";
    case RCode::kRefused: return "REFUSED";
  }
  return "?";
}

ResourceRecord make_a(DnsName name, std::uint32_t ttl, std::uint32_t ipv4) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = RRType::kA;
  rr.ttl = ttl;
  ByteWriter w;
  w.u32(ipv4);
  rr.rdata = w.take();
  return rr;
}

ResourceRecord make_aaaa(DnsName name, std::uint32_t ttl,
                         std::array<std::uint8_t, 16> ipv6) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = RRType::kAAAA;
  rr.ttl = ttl;
  rr.rdata.assign(ipv6.begin(), ipv6.end());
  return rr;
}

ResourceRecord make_cname(DnsName name, std::uint32_t ttl, DnsName target) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = RRType::kCNAME;
  rr.ttl = ttl;
  ByteWriter w;
  NameCompressor nc;  // Fresh compressor: rdata stored uncompressed.
  nc.write(w, target);
  rr.rdata = w.take();
  return rr;
}

ResourceRecord make_txt(DnsName name, std::uint32_t ttl, std::string text) {
  ResourceRecord rr;
  rr.name = std::move(name);
  rr.type = RRType::kTXT;
  rr.ttl = ttl;
  ByteWriter w;
  std::string_view rest = text;
  do {
    const std::size_t chunk = std::min<std::size_t>(rest.size(), 255);
    w.u8(static_cast<std::uint8_t>(chunk));
    w.bytes(rest.substr(0, chunk));
    rest.remove_prefix(chunk);
  } while (!rest.empty());
  rr.rdata = w.take();
  return rr;
}

ResourceRecord make_opt(std::uint16_t udp_payload_size,
                        std::span<const EdnsOption> options) {
  ResourceRecord rr;
  rr.name = DnsName::root();
  rr.type = RRType::kOPT;
  rr.klass_or_udpsize = udp_payload_size;
  rr.ttl = 0;  // extended rcode 0, version 0, flags 0
  ByteWriter w;
  for (const EdnsOption& opt : options) {
    w.u16(opt.code);
    w.u16(static_cast<std::uint16_t>(opt.value.size()));
    w.bytes(opt.value);
  }
  rr.rdata = w.take();
  return rr;
}

std::optional<std::uint32_t> rdata_as_a(const ResourceRecord& rr) {
  if (rr.type != RRType::kA || rr.rdata.size() != 4) return std::nullopt;
  ByteReader r(rr.rdata);
  return r.u32();
}

std::optional<DnsName> rdata_as_name(const ResourceRecord& rr) {
  if (rr.type != RRType::kCNAME && rr.type != RRType::kNS &&
      rr.type != RRType::kPTR) {
    return std::nullopt;
  }
  ByteReader r(rr.rdata);
  return read_name(r);
}

std::optional<std::vector<EdnsOption>> rdata_as_options(
    const ResourceRecord& rr) {
  if (rr.type != RRType::kOPT) return std::nullopt;
  std::vector<EdnsOption> out;
  ByteReader r(rr.rdata);
  while (!r.at_end()) {
    auto code = r.u16();
    auto len = r.u16();
    if (!code || !len) return std::nullopt;
    auto value = r.bytes(*len);
    if (!value) return std::nullopt;
    out.push_back(EdnsOption{*code, {value->begin(), value->end()}});
  }
  return out;
}

namespace {

void write_record(ByteWriter& w, NameCompressor& nc,
                  const ResourceRecord& rr) {
  nc.write(w, rr.name);
  w.u16(static_cast<std::uint16_t>(rr.type));
  w.u16(rr.klass_or_udpsize);
  w.u32(rr.ttl);
  // RDATA with embedded names could be compressed against the message, but
  // storing and emitting it uncompressed is always legal and keeps records
  // self-contained.
  w.u16(static_cast<std::uint16_t>(rr.rdata.size()));
  w.bytes(rr.rdata);
}

/// RR types whose RDATA is a single domain name, which may be compressed
/// against the message.
bool rdata_is_name(RRType type) {
  return type == RRType::kCNAME || type == RRType::kNS ||
         type == RRType::kPTR;
}

bool read_record_into(ByteReader& r, ResourceRecord& rr) {
  if (!read_name_into(r, rr.name)) return false;
  auto type = r.u16();
  auto klass = r.u16();
  auto ttl = r.u32();
  auto rdlen = r.u16();
  if (!type || !klass || !ttl || !rdlen) return false;
  rr.type = static_cast<RRType>(*type);
  rr.klass_or_udpsize = *klass;
  rr.ttl = *ttl;

  // Name-bearing RDATA may be compressed against the message; decode and
  // re-encode it uncompressed so the record stands alone.
  if (rdata_is_name(rr.type)) {
    const std::size_t end = r.position() + *rdlen;
    DnsName target;
    if (!read_name_into(r, target) || r.position() > end) return false;
    if (!r.seek(end)) return false;
    // Uncompressed name wire form: flat label bytes + terminating zero.
    const std::string_view labels = target.wire_labels();
    rr.rdata.clear();
    rr.rdata.reserve(labels.size() + 1);
    rr.rdata.insert(rr.rdata.end(), labels.begin(), labels.end());
    rr.rdata.push_back(0);
    return true;
  }

  auto rdata = r.bytes(*rdlen);
  if (!rdata) return false;
  rr.rdata.assign(rdata->begin(), rdata->end());
  return true;
}

/// read_record_into's checks without the copies (see scan_message).
bool skip_record(ByteReader& r) {
  if (!skip_name(r)) return false;
  const auto fixed = r.bytes(10);  // type, class, ttl, rdlength
  if (!fixed) return false;
  const std::uint8_t* f = fixed->data();
  const auto type = static_cast<RRType>((f[0] << 8) | f[1]);
  const std::size_t rdlen = (std::size_t{f[8]} << 8) | f[9];
  if (rdata_is_name(type)) {
    const std::size_t end = r.position() + rdlen;
    if (!skip_name(r) || r.position() > end) return false;
    return r.seek(end);
  }
  return r.bytes(rdlen).has_value();
}

}  // namespace

const ResourceRecord* Message::opt() const {
  for (const ResourceRecord& rr : additionals) {
    if (rr.type == RRType::kOPT) return &rr;
  }
  return nullptr;
}

std::size_t Message::encoded_size_estimate() const {
  // Uncompressed-size upper bound so writers never regrow: 12-byte header,
  // name + type/class per question, name + fixed 10 bytes (type, class,
  // ttl, rdlength) + rdata per record.
  std::size_t estimate = 12;
  for (const Question& q : questions) estimate += q.name.wire_length() + 4;
  for (const auto* section : {&answers, &authorities, &additionals}) {
    for (const ResourceRecord& rr : *section) {
      estimate += rr.name.wire_length() + 10 + rr.rdata.size();
    }
  }
  return estimate;
}

void Message::encode_to(ByteWriter& w) const {
  NameCompressor nc;

  w.u16(id);
  std::uint16_t flags = 0;
  if (qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(opcode) << 11;
  if (aa) flags |= 0x0400;
  if (tc) flags |= 0x0200;
  if (rd) flags |= 0x0100;
  if (ra) flags |= 0x0080;
  if (ad) flags |= 0x0020;
  if (cd) flags |= 0x0010;
  flags |= static_cast<std::uint16_t>(rcode) & 0x0F;
  w.u16(flags);
  w.u16(static_cast<std::uint16_t>(questions.size()));
  w.u16(static_cast<std::uint16_t>(answers.size()));
  w.u16(static_cast<std::uint16_t>(authorities.size()));
  w.u16(static_cast<std::uint16_t>(additionals.size()));

  for (const Question& q : questions) {
    nc.write(w, q.name);
    w.u16(static_cast<std::uint16_t>(q.type));
    w.u16(static_cast<std::uint16_t>(q.klass));
  }
  for (const ResourceRecord& rr : answers) write_record(w, nc, rr);
  for (const ResourceRecord& rr : authorities) write_record(w, nc, rr);
  for (const ResourceRecord& rr : additionals) write_record(w, nc, rr);
}

std::vector<std::uint8_t> Message::encode() const {
  ByteWriter w(encoded_size_estimate());
  encode_to(w);
  return w.take();
}

util::Buffer Message::encode_buffer(std::size_t headroom) const {
  ByteWriter w = ByteWriter::pooled(encoded_size_estimate(), headroom);
  encode_to(w);
  return w.take_buffer();
}

bool Message::decode_into(std::span<const std::uint8_t> wire, Message& out) {
  ByteReader r(wire);
  auto id = r.u16();
  auto flags = r.u16();
  auto qd = r.u16();
  auto an = r.u16();
  auto ns = r.u16();
  auto ar = r.u16();
  if (!id || !flags || !qd || !an || !ns || !ar) return false;

  out.id = *id;
  out.qr = (*flags & 0x8000) != 0;
  out.opcode = static_cast<Opcode>((*flags >> 11) & 0x0F);
  out.aa = (*flags & 0x0400) != 0;
  out.tc = (*flags & 0x0200) != 0;
  out.rd = (*flags & 0x0100) != 0;
  out.ra = (*flags & 0x0080) != 0;
  out.ad = (*flags & 0x0020) != 0;
  out.cd = (*flags & 0x0010) != 0;
  out.rcode = static_cast<RCode>(*flags & 0x0F);

  // resize + element-wise overwrite reuses each element's name and rdata
  // capacity across decodes — no allocations once the message is warm.
  out.questions.resize(*qd);
  for (Question& q : out.questions) {
    if (!read_name_into(r, q.name)) return false;
    auto type = r.u16();
    auto klass = r.u16();
    if (!type || !klass) return false;
    q.type = static_cast<RRType>(*type);
    q.klass = static_cast<RRClass>(*klass);
  }
  out.answers.resize(*an);
  for (ResourceRecord& rr : out.answers) {
    if (!read_record_into(r, rr)) return false;
  }
  out.authorities.resize(*ns);
  for (ResourceRecord& rr : out.authorities) {
    if (!read_record_into(r, rr)) return false;
  }
  out.additionals.resize(*ar);
  for (ResourceRecord& rr : out.additionals) {
    if (!read_record_into(r, rr)) return false;
  }
  return true;
}

std::optional<Message> Message::decode(std::span<const std::uint8_t> wire) {
  Message m;
  if (!decode_into(wire, m)) return std::nullopt;
  return m;
}

bool scan_message(std::span<const std::uint8_t> wire, MessageHead& out) {
  if (wire.size() < 12) return false;
  const auto be16 = [&wire](std::size_t at) {
    return static_cast<std::uint16_t>((wire[at] << 8) | wire[at + 1]);
  };
  out.id = be16(0);
  out.flags = be16(2);
  out.qdcount = be16(4);
  const std::uint32_t records =
      std::uint32_t{be16(6)} + be16(8) + be16(10);
  ByteReader r(wire);
  (void)r.seek(12);
  for (std::uint16_t i = 0; i < out.qdcount; ++i) {
    if (!skip_name(r)) return false;
    const auto fixed = r.bytes(4);  // type, class
    if (!fixed) return false;
    if (i == 0) {
      const std::uint8_t* f = fixed->data();
      out.qtype = static_cast<RRType>((f[0] << 8) | f[1]);
      out.qclass = static_cast<RRClass>((f[2] << 8) | f[3]);
    }
  }
  for (std::uint32_t i = 0; i < records; ++i) {
    if (!skip_record(r)) return false;
  }
  return true;
}

bool read_question_name(std::span<const std::uint8_t> wire, DnsName& out) {
  ByteReader r(wire);
  return r.seek(12) && read_name_into(r, out);
}

Message make_query(std::uint16_t id, const DnsName& name, RRType type,
                   std::uint16_t udp_payload_size, bool with_cookie) {
  Message m;
  m.id = id;
  m.rd = true;
  m.questions.push_back(Question{name, type, RRClass::kIN});
  if (with_cookie) {
    // 8-byte client cookie (RFC 7873). Contents are irrelevant to sizing.
    EdnsOption cookie{kEdnsCookieOption,
                      {0xde, 0xad, 0xbe, 0xef, 0x13, 0x37, 0x42, 0x77}};
    m.additionals.push_back(
        make_opt(udp_payload_size, std::span(&cookie, 1)));
  } else {
    m.additionals.push_back(make_opt(udp_payload_size));
  }
  return m;
}

void pad_to_block(Message& message, std::size_t block_size) {
  if (block_size == 0) return;
  // Ensure an OPT record exists.
  if (message.opt() == nullptr) {
    message.additionals.push_back(make_opt(1232));
  }
  const std::size_t unpadded = message.encode().size();
  // The option itself costs 4 bytes of header; zero-length padding is legal.
  const std::size_t with_empty = unpadded + 4;
  std::size_t target = ((with_empty + block_size - 1) / block_size) *
                       block_size;
  if (unpadded % block_size == 0) return;  // already aligned
  const std::size_t pad_len = target - with_empty;
  for (ResourceRecord& rr : message.additionals) {
    if (rr.type != RRType::kOPT) continue;
    ByteWriter w;
    w.bytes(rr.rdata);
    w.u16(kEdnsPaddingOption);
    w.u16(static_cast<std::uint16_t>(pad_len));
    w.pad(pad_len);
    rr.rdata = w.take();
    return;
  }
}

std::uint16_t advertised_udp_size(const Message& query) {
  const ResourceRecord* opt = query.opt();
  if (opt == nullptr) return 512;
  return std::max<std::uint16_t>(opt->klass_or_udpsize, 512);
}

bool truncate_for_udp(Message& response, std::size_t limit) {
  if (response.encode().size() <= limit) return false;
  response.tc = true;
  response.answers.clear();
  response.authorities.clear();
  return true;
}

Message make_response(const Message& query, RCode rcode) {
  Message m;
  m.id = query.id;
  m.qr = true;
  m.rd = query.rd;
  m.ra = true;
  m.rcode = rcode;
  m.questions = query.questions;
  if (query.opt() != nullptr) {
    // Respond with a plain OPT advertising our UDP size (no options echoes
    // what large public resolvers do for unsolicited cookies).
    m.additionals.push_back(make_opt(1232));
  }
  return m;
}

}  // namespace doxlab::dns
