// A flat hash index from 32-bit keys (IPv4 addresses, ports) to non-owning
// pointers — the fabric's per-packet lookups (host by address, socket by
// port).
//
// Open addressing over a power-of-two table of (key, pointer) pairs, kept
// at most half full and probed linearly from a multiplicative hash, so a
// lookup is one multiply, one mask and usually one cache line. A null
// pointer marks an empty slot. Erase shifts the rest of the probe run back
// into the hole (no tombstones), so lookups never slow down with churn.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace doxlab::net {

template <typename T>
class FlatIndex {
 public:
  /// The value mapped to `key`, or nullptr.
  T* find(std::uint32_t key) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(key, slots_.size());; i = next(i)) {
      const Slot& slot = slots_[i];
      if (slot.value == nullptr) return nullptr;
      if (slot.key == key) return slot.value;
    }
  }

  /// Maps `key` to `value` (non-null). Returns false, changing nothing, if
  /// `key` is already mapped.
  bool insert(std::uint32_t key, T* value) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    std::size_t i = home(key, slots_.size());
    for (; slots_[i].value != nullptr; i = next(i)) {
      if (slots_[i].key == key) return false;
    }
    slots_[i] = Slot{key, value};
    ++size_;
    return true;
  }

  /// Unmaps `key`. Returns false if it was not mapped.
  bool erase(std::uint32_t key) {
    if (size_ == 0) return false;
    std::size_t hole = home(key, slots_.size());
    while (slots_[hole].value != nullptr && slots_[hole].key != key) {
      hole = next(hole);
    }
    if (slots_[hole].value == nullptr) return false;
    // Every later entry of the run whose home does not lie cyclically in
    // (hole, i] would become unreachable past an empty slot: move it into
    // the hole, which then moves to i.
    for (std::size_t i = next(hole); slots_[i].value != nullptr; i = next(i)) {
      const std::size_t h = home(slots_[i].key, slots_.size());
      const bool stays = hole < i ? (hole < h && h <= i) : (hole < h || h <= i);
      if (!stays) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
    return true;
  }

  std::size_t size() const { return size_; }
  /// Table slots: zero or a power of two, at least twice size().
  std::size_t capacity() const { return slots_.size(); }

  /// The slot `key` hashes to in a table of `capacity` slots (a power of
  /// two); public so that tests can pick colliding keys.
  static std::size_t home(std::uint32_t key, std::size_t capacity) {
    const std::uint64_t h = std::uint64_t{key} * 0x9E3779B97F4A7C15ull;
    return static_cast<std::size_t>(h >> 32) & (capacity - 1);
  }

 private:
  struct Slot {
    std::uint32_t key = 0;
    T* value = nullptr;
  };

  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.value == nullptr) continue;
      std::size_t i = home(slot.key, slots_.size());
      while (slots_[i].value != nullptr) i = next(i);
      slots_[i] = slot;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace doxlab::net
