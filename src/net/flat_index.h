// A flat hash index from 32-bit keys (IPv4 addresses, ports) to non-owning
// pointers — the fabric's per-packet lookups (host by address, socket by
// port).
//
// The slots are (key, pointer) pairs on the shared open-addressing core
// (util/probe_table.h), homed by a multiplicative hash of the key, so a
// lookup is one multiply, one mask and usually one cache line. A null
// pointer marks an empty slot.
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/probe_table.h"

namespace doxlab::net {

template <typename T>
class FlatIndex {
 public:
  /// The value mapped to `key`, or nullptr.
  T* find(std::uint32_t key) const {
    const Slot* slot = slots_.find(hash(key), Is{key});
    return slot == nullptr ? nullptr : slot->value;
  }

  /// Maps `key` to `value` (non-null). Returns false, changing nothing, if
  /// `key` is already mapped.
  bool insert(std::uint32_t key, T* value) {
    if (find(key) != nullptr) return false;
    slots_.insert(Slot{key, value});
    return true;
  }

  /// Unmaps `key`. Returns false if it was not mapped.
  bool erase(std::uint32_t key) { return slots_.erase(hash(key), Is{key}); }

  std::size_t size() const { return slots_.size(); }
  /// Table slots: zero or a power of two, at least twice size().
  std::size_t capacity() const { return slots_.capacity(); }

  /// The slot `key` hashes to in a table of `capacity` slots (a power of
  /// two); public so that tests can pick colliding keys.
  static std::size_t home(std::uint32_t key, std::size_t capacity) {
    return util::ProbeTable<Slot>::home(hash(key), capacity);
  }

 private:
  static std::uint64_t hash(std::uint32_t key) {
    return (std::uint64_t{key} * 0x9E3779B97F4A7C15ull) >> 32;
  }

  struct Slot {
    std::uint32_t key = 0;
    T* value = nullptr;
    bool empty() const { return value == nullptr; }
    std::uint64_t hash() const { return FlatIndex::hash(key); }
  };

  struct Is {
    std::uint32_t key;
    bool operator()(const Slot& slot) const { return slot.key == key; }
  };

  util::ProbeTable<Slot> slots_;
};

}  // namespace doxlab::net
