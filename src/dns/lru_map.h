// The LRU map behind the bounded caches (`dns::Cache`, `dns::WireCache`):
// one (qname, qtype) table (dns/record_table.h) whose nodes also form the
// recency list.
//
//   * Each key is stored once, in its table node. The recency links are
//     two node indices beside the value, so finding and touching an entry
//     is O(1) and allocates nothing.
//   * A new key inserted into a full map takes over the least recently
//     used node: the node is re-keyed in place (its name reusing the old
//     name's storage) and moves to the newest end. At capacity, an insert
//     allocates nothing when the new name fits the victim's name storage.
//   * Unbounded (capacity 0) maps skip the touches. New keys are still
//     linked in, so a bound set later evicts the oldest inserts first.
//
// Single-threaded, like the caches built on it.
#pragma once

#include <cstddef>
#include <cstdint>

#include "dns/record_table.h"

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
    NodeIndex self_ = kNoNode;
    NodeIndex newer_ = kNoNode;
    NodeIndex older_ = kNoNode;
  };

  /// `capacity` bounds the entry count (0 = unbounded).
  explicit LruMap(std::size_t capacity = 0) : capacity_(capacity) {}

  LruMap(const LruMap&) = delete;
  LruMap& operator=(const LruMap&) = delete;

  /// The entry for (name, type), or null; valid until the next insert.
  /// Finding does not touch.
  Node* find(const DnsName& name, RRType type) {
    const NodeIndex index = table_.find(name, type);
    return index == kNoNode ? nullptr : &table_.value(index);
  }

  /// Marks `node` most recently used.
  void touch(Node& node) {
    if (capacity_ == 0 || newest_ == node.self_) return;
    unlink(node);
    link_newest(node);
  }

  /// The value for (name, type), touched, for the caller to overwrite. A
  /// new key gets a default value, or at capacity the least recently used
  /// entry's node with its old value still in place, so the caller can
  /// account for what it replaces.
  Value& slot(const DnsName& name, RRType type) {
    const bool full = capacity_ != 0 && table_.size() >= capacity_;
    const auto [index, inserted] =
        full ? table_.try_emplace_over(oldest_, name, type)
             : table_.try_emplace(name, type);
    Node& node = table_.value(index);
    if (!inserted) {
      touch(node);
      return node.value;
    }
    if (full) {
      unlink(node);
      ++evictions_;
    }
    node.self_ = index;
    link_newest(node);
    return node.value;
  }

  /// Rebounds the map; shrinking evicts least recently used entries.
  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (capacity_ != 0 && table_.size() > capacity_) {
      const NodeIndex victim = oldest_;
      unlink(table_.value(victim));
      table_.erase(victim);
      ++evictions_;
    }
  }

  std::size_t size() const { return table_.size(); }
  /// Entries evicted by the capacity bound.
  std::uint64_t evictions() const { return evictions_; }

 private:
  Node& at(NodeIndex index) { return table_.value(index); }

  void unlink(Node& node) {
    (node.newer_ != kNoNode ? at(node.newer_).older_ : newest_) = node.older_;
    (node.older_ != kNoNode ? at(node.older_).newer_ : oldest_) = node.newer_;
  }

  void link_newest(Node& node) {
    node.newer_ = kNoNode;
    node.older_ = newest_;
    (newest_ != kNoNode ? at(newest_).newer_ : oldest_) = node.self_;
    newest_ = node.self_;
  }

  RecordTable<Node> table_;
  NodeIndex newest_ = kNoNode;
  NodeIndex oldest_ = kNoNode;
  std::size_t capacity_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace doxlab::dns
