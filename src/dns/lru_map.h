// The LRU map behind the bounded caches (`dns::Cache`, `dns::WireCache`):
// one hash map keyed by (qname, qtype) whose nodes also form the recency
// list.
//
//   * Each key is stored once, in its map node. The recency links are two
//     pointers in the node, so finding and touching an entry is O(1) and
//     allocates nothing.
//   * A new key inserted into a full map takes over the least recently
//     used node: `extract` hands the node back, its key takes the new name
//     in place (reusing the string's storage), and the node goes back in.
//     At capacity, an insert allocates nothing when the new name fits the
//     victim's key storage.
//   * Unbounded (capacity 0) maps skip the touches. New keys are still
//     linked in, so a bound set later evicts the oldest inserts first.
//
// Single-threaded, like the caches built on it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

#include "dns/record_key.h"

namespace doxlab::dns {

template <typename Value>
class LruMap {
 public:
  /// One stored entry: the caller's value plus the map's recency links.
  class Node {
   public:
    Value value{};

   private:
    friend class LruMap;
    const RecordKey* key_ = nullptr;
    Node* newer_ = nullptr;
    Node* older_ = nullptr;
  };

  /// `capacity` bounds the entry count (0 = unbounded).
  explicit LruMap(std::size_t capacity = 0) : capacity_(capacity) {}

  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  /// The entry for (name, type), or null. Finding does not touch.
  Node* find(const DnsName& name, RRType type) {
    const auto it = map_.find(RecordKeyView{name, type});
    return it == map_.end() ? nullptr : &it->second;
  }

  /// Marks `node` most recently used.
  void touch(Node& node) {
    if (capacity_ == 0 || newest_ == &node) return;
    unlink(node);
    link_newest(node);
  }

  /// The value for (name, type), touched, for the caller to overwrite. A
  /// new key gets a default value, or at capacity the least recently used
  /// entry's node with its old value still in place, so the caller can
  /// account for what it replaces.
  Value& slot(const DnsName& name, RRType type) {
    if (Node* node = find(name, type)) {
      touch(*node);
      return node->value;
    }
    Node* node = nullptr;
    if (capacity_ != 0 && map_.size() >= capacity_) {
      node = oldest_;
      unlink(*node);
      auto handle = map_.extract(*node->key_);
      handle.key().name = name;
      handle.key().type = type;
      map_.insert(std::move(handle));
      ++evictions_;
    } else {
      auto [it, inserted] = map_.try_emplace(RecordKey{name, type});
      node = &it->second;
      node->key_ = &it->first;
    }
    link_newest(*node);
    return node->value;
  }

  /// Rebounds the map; shrinking evicts least recently used entries.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (capacity_ != 0 && map_.size() > capacity_) {
      Node* victim = oldest_;
      unlink(*victim);
      map_.erase(map_.find(*victim->key_));
      ++evictions_;
    }
  }

  std::size_t size() const { return map_.size(); }
  /// Entries evicted by the capacity bound.
  std::uint64_t evictions() const { return evictions_; }

 private:
  void unlink(Node& node) {
    (node.newer_ != nullptr ? node.newer_->older_ : newest_) = node.older_;
    (node.older_ != nullptr ? node.older_->newer_ : oldest_) = node.newer_;
  }

  void link_newest(Node& node) {
    node.newer_ = nullptr;
    node.older_ = newest_;
    (newest_ != nullptr ? newest_->newer_ : oldest_) = &node;
    newest_ = &node;
  }

  RecordMap<Node> map_;
  Node* newest_ = nullptr;
  Node* oldest_ = nullptr;
  std::size_t capacity_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace doxlab::dns
