// The open-addressing core of the flat hash tables (`net::FlatIndex`,
// `dns::RecordTable`): a power-of-two array of slots kept at most half
// full, probed linearly from the home slot a hash's low bits pick. Erase
// shifts the rest of the probe run back into the hole (no tombstones), so
// lookups never slow down with churn.
//
// Each table brings its own slot type: a small trivially copyable struct
// whose value-initialised state is empty, with
//
//   bool empty() const;          // true for the value-initialised slot
//   std::uint64_t hash() const;  // its low bits pick the home slot
//
// Keys are compared only through the `match` predicate each probe takes,
// so the core never sees them; `match` is never called on an empty slot.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace doxlab::util {

template <typename Slot>
class ProbeTable {
 public:
  /// The slot of `hash`'s probe run that `match` accepts, or null.
  template <typename Match>
  const Slot* find(std::uint64_t hash, Match&& match) const {
    if (size_ == 0) return nullptr;
    for (std::size_t i = home(hash, slots_.size());; i = next(i)) {
      const Slot& slot = slots_[i];
      if (slot.empty()) return nullptr;
      if (match(slot)) return &slot;
    }
  }

  /// Adds `slot`, whose key must be absent. Grows (doubling, rehashing
  /// every slot) first when the table would pass half full; that is the
  /// only call that allocates.
  void insert(const Slot& slot) {
    if (2 * (size_ + 1) > slots_.size()) grow();
    place(slot);
    ++size_;
  }

  /// Removes the slot of `hash`'s run that `match` accepts. Returns false,
  /// changing nothing, when there is none.
  template <typename Match>
  bool erase(std::uint64_t hash, Match&& match) {
    if (size_ == 0) return false;
    std::size_t hole = home(hash, slots_.size());
    for (;; hole = next(hole)) {
      if (slots_[hole].empty()) return false;
      if (match(slots_[hole])) break;
    }
    // Every later entry of the run whose home does not lie cyclically in
    // (hole, i] would become unreachable past an empty slot: move it into
    // the hole, which then moves to i.
    for (std::size_t i = next(hole); !slots_[i].empty(); i = next(i)) {
      const std::size_t h = home(slots_[i].hash(), slots_.size());
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

  /// The slot `hash` probes first in a table of `capacity` slots (a power
  /// of two).
  static std::size_t home(std::uint64_t hash, std::size_t capacity) {
    return static_cast<std::size_t>(hash) & (capacity - 1);
  }

 private:
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  void place(const Slot& slot) {
    std::size_t i = home(slot.hash(), slots_.size());
    while (!slots_[i].empty()) i = next(i);
    slots_[i] = slot;
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? 8 : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (!slot.empty()) place(slot);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace doxlab::util
