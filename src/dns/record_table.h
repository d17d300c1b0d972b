// The (qname, qtype) table behind every cache tier and the engine's
// in-flight resolves. Class is deliberately not part of the key: answers
// are shared across classes, and a hit patches the asking query's class in.
//
//   * Slots: a power-of-two array of (64-bit hash, node index) pairs on
//     the shared open-addressing core (util/probe_table.h): at most half
//     full, linear probing, backward-shift erase. A probe compares the
//     stored hash before it touches a node, so a miss rarely leaves the
//     slot array.
//   * Nodes: one index-addressed pool (a vector) holding each key and its
//     value. An erased node goes on a free list with its name's storage
//     kept, so a later insert of a name that fits reuses it; only growing
//     the pool or the slots allocates.
//   * Hash (`record_hash`): one pass over the name's flat label bytes,
//     which DnsName stores lower-cased, eight bytes at a time, seeded with
//     the type and length and finished with the splitmix64 avalanche, so
//     names one digit apart land far apart.
//
// A reference or pointer into a node stays valid until the next insert
// that grows the pool (or until that node is erased); a NodeIndex stays
// valid until its node is erased. Single-threaded, like every owner of one
// except the shared L2, which mutates its table only while no reader runs.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string_view>
#include <utility>
#include <vector>

#include "dns/name.h"
#include "dns/types.h"
#include "util/probe_table.h"
#include "util/rng.h"

namespace doxlab::dns {

struct RecordKey {
  DnsName name;
  RRType type = RRType::kA;
};

/// The tables' hash of (name, type). Equal names hash alike in any input
/// case: names are stored lower-cased.
inline std::uint64_t record_hash(const DnsName& name, RRType type) {
  const std::string_view labels = name.wire_labels();
  const char* p = labels.data();
  const std::size_t n = labels.size();
  std::uint64_t h =
      (std::uint64_t{static_cast<std::uint16_t>(type)} << 32) | n;
  // Each step is a bijection of the state for a fixed word and injective
  // in the word for a fixed state, so two names of one length whose words
  // differ in only one place never collide before the avalanche.
  const auto mix = [&h](std::uint64_t word) {
    h = (std::rotl(h, 5) ^ word) * 0x9E3779B97F4A7C15ull;
  };
  const auto load = [](const char* at, auto word) {
    std::memcpy(&word, at, sizeof(word));
    return std::uint64_t{word};
  };
  if (n >= 8) {
    // Whole words, then the last eight bytes as one load (overlapping the
    // previous word): no partial word is assembled byte by byte.
    const char* const last = p + n - 8;
    for (; p < last; p += 8) mix(load(p, std::uint64_t{}));
    mix(load(last, std::uint64_t{}));
  } else if (n > 0) {
    // Shorter than a word: at most three loads, assembled in registers.
    std::uint64_t word = 0;
    std::size_t at = 0;
    if (n >= 4) {
      word = load(p, std::uint32_t{});
      at = 4;
    }
    if (n - at >= 2) {
      word |= load(p + at, std::uint16_t{}) << (8 * at);
      at += 2;
    }
    if (n > at) word |= load(p + at, std::uint8_t{}) << (8 * at);
    mix(word);
  }
  return splitmix64(h, 0);
}

/// A node's position in a RecordTable's pool, or kNoNode.
using NodeIndex = std::uint32_t;
inline constexpr NodeIndex kNoNode = std::numeric_limits<NodeIndex>::max();

template <typename Value>
class RecordTable {
 public:
  /// The node holding (name, type), or kNoNode.
  NodeIndex find(const DnsName& name, RRType type) const {
    const Slot* slot = find_slot(record_hash(name, type), name, type);
    return slot == nullptr ? kNoNode : slot->node;
  }

  /// The node for (name, type) and false, or a new node for it, with a
  /// default value, and true. `name` must not refer into this table: a new
  /// node may grow the pool.
  std::pair<NodeIndex, bool> try_emplace(const DnsName& name, RRType type) {
    return emplace(name, type, kNoNode);
  }
  /// As above, moving `name` into the node when one is made.
  std::pair<NodeIndex, bool> try_emplace(DnsName&& name, RRType type) {
    return emplace(std::move(name), type, kNoNode);
  }

  /// As try_emplace, except that a new key takes over the live node
  /// `victim` (re-keyed in place, its value untouched) instead of a pool
  /// node: how an LRU at capacity replaces its oldest entry without
  /// allocating when the new name fits the old one's storage.
  std::pair<NodeIndex, bool> try_emplace_over(NodeIndex victim,
                                              const DnsName& name,
                                              RRType type) {
    return emplace(name, type, victim);
  }

  /// Removes live node `node`: its value is reset, releasing what it held,
  /// and the node returns to the pool.
  void erase(NodeIndex node) {
    unslot(node);
    Node& n = nodes_[node];
    n.value = Value{};
    n.live = false;
    n.next_free = free_;
    free_ = node;
  }

  Value& value(NodeIndex node) { return nodes_[node].value; }
  const Value& value(NodeIndex node) const { return nodes_[node].value; }
  const RecordKey& key(NodeIndex node) const { return nodes_[node].key; }

  /// Calls `visit(index)` for every live node in pool order, which is
  /// insertion order except where erased nodes were reused. `visit` may
  /// erase the node it is given.
  template <typename Visit>
  void for_each(Visit&& visit) {
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].live) visit(i);
    }
  }
  template <typename Visit>
  void for_each(Visit&& visit) const {
    for (NodeIndex i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].live) visit(i);
    }
  }

  std::size_t size() const { return slots_.size(); }
  /// Slots allocated: zero or a power of two, at least twice size().
  std::size_t slot_capacity() const { return slots_.capacity(); }

 private:
  struct Node {
    RecordKey key;
    Value value{};
    NodeIndex next_free = kNoNode;  ///< the free list's link while not live
    bool live = false;
  };

  struct Slot {
    std::uint64_t hash_ = 0;
    NodeIndex node = kNoNode;
    bool empty() const { return node == kNoNode; }
    std::uint64_t hash() const { return hash_; }
  };

  const Slot* find_slot(std::uint64_t hash, const DnsName& name,
                        RRType type) const {
    return slots_.find(hash, [&](const Slot& slot) {
      if (slot.hash_ != hash) return false;
      const RecordKey& key = nodes_[slot.node].key;
      return key.type == type && key.name == name;
    });
  }

  /// Removes `node`'s slot.
  void unslot(NodeIndex node) {
    const RecordKey& key = nodes_[node].key;
    slots_.erase(record_hash(key.name, key.type),
                 [node](const Slot& slot) { return slot.node == node; });
  }

  template <typename Name>
  std::pair<NodeIndex, bool> emplace(Name&& name, RRType type,
                                     NodeIndex victim) {
    const std::uint64_t hash = record_hash(name, type);
    if (const Slot* slot = find_slot(hash, name, type)) {
      return {slot->node, false};
    }
    NodeIndex node = victim;
    if (node != kNoNode) {
      unslot(node);
    } else {
      if (free_ != kNoNode) {
        node = free_;
        free_ = nodes_[node].next_free;
      } else {
        node = static_cast<NodeIndex>(nodes_.size());
        nodes_.emplace_back();
      }
      nodes_[node].live = true;
    }
    Node& n = nodes_[node];
    n.key.name = std::forward<Name>(name);
    n.key.type = type;
    slots_.insert(Slot{hash, node});
    return {node, true};
  }

  util::ProbeTable<Slot> slots_;
  std::vector<Node> nodes_;
  NodeIndex free_ = kNoNode;
};

}  // namespace doxlab::dns
