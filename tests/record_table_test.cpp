// The flat (qname, qtype) table (dns/record_table.h) and the LRU map built
// on it (dns/lru_map.h), driven by seeded operation streams against
// reference models: std::unordered_map for the table, and std::unordered_map
// plus a recency std::list for the LRU. Keys are drawn from a pool in which
// most names share a few home slots around the end of the slot array, so
// probe runs collide, grow with the table and wrap past its end.
#include <gtest/gtest.h>

#include <cstdint>
#include <list>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dns/lru_map.h"
#include "dns/record_table.h"
#include "util/rng.h"

namespace doxlab::dns {
namespace {

/// The name "<prefix><i><suffix>".
DnsName numbered(const char* prefix, int i, const std::string& suffix) {
  std::string text = prefix;
  text += std::to_string(i);
  text += suffix;
  return DnsName::parse(text);
}

/// A reference-model key: the flat labels plus the type.
std::string ref_key(const DnsName& name, RRType type) {
  return std::string(name.wire_labels()) + '/' +
         std::to_string(static_cast<int>(type));
}

/// The slot (qname, qtype) probes first in a table of `capacity` slots.
std::size_t home(const DnsName& name, RRType type, std::size_t capacity) {
  return util::ProbeTable<int>::home(record_hash(name, type), capacity);
}

struct PoolKey {
  DnsName name;
  RRType type;
};

/// `count` keys of which three in four home, in a 64-slot table, to the
/// five slots 62, 63, 0, 1 and 2 (and so, in any larger table, to the
/// slots just below a multiple of 64 and from one), the rest anywhere.
std::vector<PoolKey> colliding_pool(std::size_t count) {
  std::vector<PoolKey> pool;
  for (int i = 0; pool.size() < count; ++i) {
    const DnsName name = numbered("k", i, ".collide.example");
    const RRType type = i % 3 == 0 ? RRType::kAAAA : RRType::kA;
    const std::size_t h = home(name, type, 64);
    if (h >= 62 || h <= 2 || pool.size() % 4 == 3) {
      pool.push_back(PoolKey{name, type});
    }
  }
  return pool;
}

TEST(RecordTable, HashSpreadsNamesOneDigitApart) {
  // Names that differ in one digit differ in about half their hash bits.
  for (int i = 0; i < 9; ++i) {
    const std::uint64_t a =
        record_hash(numbered("host", i, ".example"), RRType::kA);
    const std::uint64_t b =
        record_hash(numbered("host", i + 1, ".example"), RRType::kA);
    EXPECT_GE(__builtin_popcountll(a ^ b), 16) << i;
  }
  const DnsName name = DnsName::parse("Example.COM");
  EXPECT_EQ(record_hash(name, RRType::kA),
            record_hash(DnsName::parse("example.com"), RRType::kA));
  EXPECT_NE(record_hash(name, RRType::kA), record_hash(name, RRType::kAAAA));
}

TEST(RecordTable, MatchesUnorderedMapUnderRandomOps) {
  const std::vector<PoolKey> pool = colliding_pool(300);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    RecordTable<int> table;
    std::unordered_map<std::string, int> reference;
    std::size_t peak_slots = 0;
    for (int op = 0; op < 20000; ++op) {
      // Grow for the first half, then shrink.
      const bool grow = op < 10000;
      const PoolKey& key = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const std::string rk = ref_key(key.name, key.type);
      switch (rng.uniform_int(0, 3)) {
        case 0:
        case 1: {
          if (!grow && rng.chance(0.7)) break;
          const auto [node, inserted] = table.try_emplace(key.name, key.type);
          const auto [it, fresh] = reference.try_emplace(rk, op);
          ASSERT_EQ(inserted, fresh);
          if (inserted) {
            EXPECT_EQ(table.value(node), 0);  // a default value
            table.value(node) = op;
          }
          EXPECT_EQ(table.value(node), it->second);
          EXPECT_EQ(table.key(node).name, key.name);
          EXPECT_EQ(table.key(node).type, key.type);
          break;
        }
        case 2: {
          if (grow && rng.chance(0.7)) break;
          const NodeIndex node = table.find(key.name, key.type);
          ASSERT_EQ(node != kNoNode, reference.erase(rk) == 1);
          if (node != kNoNode) table.erase(node);
          break;
        }
        default:
          break;
      }
      const NodeIndex node = table.find(key.name, key.type);
      const auto it = reference.find(rk);
      ASSERT_EQ(node != kNoNode, it != reference.end());
      if (node != kNoNode) {
        EXPECT_EQ(table.value(node), it->second);
      }
      ASSERT_EQ(table.size(), reference.size());
      EXPECT_GE(table.slot_capacity(), 2 * table.size());
      peak_slots = std::max(peak_slots, table.slot_capacity());
    }
    EXPECT_GE(peak_slots, 256u);  // the table grew through several doublings
    // Every key agrees, and iteration visits exactly the live entries.
    for (const PoolKey& key : pool) {
      const NodeIndex node = table.find(key.name, key.type);
      const auto it = reference.find(ref_key(key.name, key.type));
      ASSERT_EQ(node != kNoNode, it != reference.end());
      if (node != kNoNode) {
        EXPECT_EQ(table.value(node), it->second);
      }
    }
    std::size_t visited = 0;
    table.for_each([&](NodeIndex node) {
      const RecordKey& key = table.key(node);
      const auto it = reference.find(ref_key(key.name, key.type));
      ASSERT_NE(it, reference.end());
      EXPECT_EQ(table.value(node), it->second);
      ++visited;
    });
    EXPECT_EQ(visited, reference.size());
  }
}

TEST(RecordTable, EraseRepairsRunsThatWrap) {
  // At 64 slots, two keys homed at slot 62, two at slot 0 and one at slot
  // 1 form one probe run that wraps around the table's end: 62, 63, 0, 1,
  // 2. Erasing any one of them must leave every other findable, its value
  // intact.
  constexpr std::size_t kCapacity = 64;
  const auto keys_homed_at = [](std::size_t slot, std::size_t count,
                                const std::string& zone) {
    std::vector<DnsName> names;
    for (int i = 0; names.size() < count; ++i) {
      DnsName name = numbered("n", i, "." + zone);
      if (home(name, RRType::kA, kCapacity) == slot) names.push_back(name);
    }
    return names;
  };
  std::vector<DnsName> run = keys_homed_at(62, 2, "a.example");
  for (const DnsName& name : keys_homed_at(0, 2, "b.example")) {
    run.push_back(name);
  }
  run.push_back(keys_homed_at(1, 1, "c.example").front());
  // Fillers homed well away from the run.
  std::vector<DnsName> fillers;
  for (int i = 0; fillers.size() < 12; ++i) {
    DnsName name = numbered("f", i, ".example");
    const std::size_t h = home(name, RRType::kA, kCapacity);
    if (h >= 10 && h <= 50) fillers.push_back(name);
  }

  for (std::size_t victim = 0; victim < run.size(); ++victim) {
    SCOPED_TRACE("victim " + std::to_string(victim));
    RecordTable<int> table;
    for (const DnsName& name : fillers) {
      ASSERT_TRUE(table.try_emplace(name, RRType::kA).second);
    }
    for (std::size_t i = 0; i < run.size(); ++i) {
      const auto [node, inserted] = table.try_emplace(run[i], RRType::kA);
      ASSERT_TRUE(inserted);
      table.value(node) = static_cast<int>(i) + 1;
    }
    // 12 fillers and the run's 5 keys size the table at 64 slots.
    ASSERT_EQ(table.slot_capacity(), kCapacity);
    table.erase(table.find(run[victim], RRType::kA));
    EXPECT_EQ(table.find(run[victim], RRType::kA), kNoNode);
    for (std::size_t i = 0; i < run.size(); ++i) {
      if (i == victim) continue;
      const NodeIndex node = table.find(run[i], RRType::kA);
      ASSERT_NE(node, kNoNode) << "key " << i;
      EXPECT_EQ(table.value(node), static_cast<int>(i) + 1);
    }
    for (const DnsName& name : fillers) {
      EXPECT_NE(table.find(name, RRType::kA), kNoNode);
    }
    EXPECT_EQ(table.size(), fillers.size() + run.size() - 1);
  }
}

/// The LRU reference: values by key plus a recency list, newest first.
class ReferenceLru {
 public:
  explicit ReferenceLru(std::size_t capacity) : capacity_(capacity) {}

  /// LruMap::slot's contract: the value a new key's slot holds before the
  /// caller overwrites it — 0 below capacity, the victim's at capacity.
  int slot(const std::string& key, int value) {
    if (auto it = entries_.find(key); it != entries_.end()) {
      touch(key);
      const int old = it->second.value;
      it->second.value = value;
      return old;
    }
    int old = 0;
    if (capacity_ != 0 && entries_.size() >= capacity_) {
      old = entries_.at(recency_.back()).value;
      evict();
    }
    recency_.push_front(key);
    entries_[key] = Entry{value, recency_.begin()};
    return old;
  }

  const int* find(const std::string& key) const {
    const auto it = entries_.find(key);
    return it == entries_.end() ? nullptr : &it->second.value;
  }

  void touch(const std::string& key) {
    if (capacity_ == 0) return;  // unbounded maps keep insertion order
    Entry& entry = entries_.at(key);
    recency_.splice(recency_.begin(), recency_, entry.where);
  }

  void set_capacity(std::size_t capacity) {
    capacity_ = capacity;
    while (capacity_ != 0 && entries_.size() > capacity_) evict();
  }

  std::size_t size() const { return entries_.size(); }
  std::uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    int value = 0;
    std::list<std::string>::iterator where;
  };

  void evict() {
    entries_.erase(recency_.back());
    recency_.pop_back();
    ++evictions_;
  }

  std::unordered_map<std::string, Entry> entries_;
  std::list<std::string> recency_;
  std::size_t capacity_;
  std::uint64_t evictions_ = 0;
};

TEST(LruMap, MatchesReferenceUnderRandomOps) {
  const std::vector<PoolKey> pool = colliding_pool(160);
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::size_t capacity = 48;
    LruMap<int> lru(capacity);
    ReferenceLru reference(capacity);
    for (int op = 1; op <= 20000; ++op) {
      const PoolKey& key = pool[static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(pool.size()) - 1))];
      const std::string rk = ref_key(key.name, key.type);
      switch (rng.uniform_int(0, 9)) {
        case 0:
        case 1:
        case 2:
        case 3: {  // insert or replace: the slot shows what it replaces
          int& value = lru.slot(key.name, key.type);
          ASSERT_EQ(value, reference.slot(rk, op));
          value = op;
          break;
        }
        case 4:
        case 5:
        case 6: {  // find, then touch what was found
          auto* node = lru.find(key.name, key.type);
          const int* expected = reference.find(rk);
          ASSERT_EQ(node != nullptr, expected != nullptr);
          if (node == nullptr) break;
          EXPECT_EQ(node->value, *expected);
          lru.touch(*node);
          reference.touch(rk);
          break;
        }
        case 7:
        case 8: {  // find only: no recency change
          auto* node = lru.find(key.name, key.type);
          ASSERT_EQ(node != nullptr, reference.find(rk) != nullptr);
          break;
        }
        default: {  // rebound: shrink (evicting), grow, or unbound
          const auto roll = rng.uniform_int(0, 9);
          capacity = roll == 0   ? 0
                     : roll < 6  ? static_cast<std::size_t>(
                                      rng.uniform_int(1, 40))
                                 : static_cast<std::size_t>(
                                      rng.uniform_int(40, 120));
          if (capacity == 0 && rng.chance(0.5)) capacity = 64;
          lru.set_capacity(capacity);
          reference.set_capacity(capacity);
          break;
        }
      }
      ASSERT_EQ(lru.size(), reference.size());
      ASSERT_EQ(lru.evictions(), reference.evictions());
      if (op % 16 == 0) {
        // Full contents: every pool key present exactly when the
        // reference holds it, with its value.
        for (const PoolKey& k : pool) {
          auto* node = lru.find(k.name, k.type);
          const int* expected = reference.find(ref_key(k.name, k.type));
          ASSERT_EQ(node != nullptr, expected != nullptr);
          if (node != nullptr) {
            ASSERT_EQ(node->value, *expected);
          }
        }
      }
    }
    EXPECT_GT(lru.evictions(), 1000u);
  }
}

}  // namespace
}  // namespace doxlab::dns
