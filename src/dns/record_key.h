// The (qname, qtype) key every cache tier and the engine's in-flight table
// index by. Hash and equality are transparent, so lookups probe with a
// borrowed `RecordKeyView` and never copy a DnsName; only inserts store an
// owning `RecordKey`. Class is deliberately not part of the key: answers are
// shared across classes, and a hit patches the asking query's class in.
#pragma once

#include <cstddef>
#include <functional>
#include <unordered_map>

#include "dns/name.h"
#include "dns/types.h"

namespace doxlab::dns {

struct RecordKey {
  DnsName name;
  RRType type = RRType::kA;
  bool operator==(const RecordKey&) const = default;
};

/// Borrowed key for heterogeneous find(): no DnsName copy per lookup.
struct RecordKeyView {
  const DnsName& name;
  RRType type;
};

struct RecordKeyHash {
  using is_transparent = void;
  static std::size_t mix(const DnsName& name, RRType type) noexcept {
    return std::hash<DnsName>()(name) ^
           (static_cast<std::size_t>(type) * 0x9E3779B97F4A7C15ull);
  }
  std::size_t operator()(const RecordKey& k) const noexcept {
    return mix(k.name, k.type);
  }
  std::size_t operator()(const RecordKeyView& k) const noexcept {
    return mix(k.name, k.type);
  }
};

struct RecordKeyEq {
  using is_transparent = void;
  template <typename A, typename B>
  bool operator()(const A& a, const B& b) const noexcept {
    return a.type == b.type && a.name == b.name;
  }
};

/// Hash map keyed by (qname, qtype) with transparent lookups.
template <typename Value>
using RecordMap =
    std::unordered_map<RecordKey, Value, RecordKeyHash, RecordKeyEq>;

}  // namespace doxlab::dns
