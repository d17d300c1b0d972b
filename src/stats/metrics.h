// Metrics as data. A counter struct lists each scalar counter once, as an
// X(name, merge rule) row of an X-macro, and DOXLAB_METRICS expands that
// list into both the struct's u64 members and its `metrics()` table of
// {name, rule, member pointer}. Adding a counter is a one-row edit; merges
// and exports are loops over the table.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <string_view>

namespace doxlab::stats {

/// How two values of one metric combine.
enum class Merge : std::uint8_t {
  kSum,    ///< events: adds across shards and across a restart
  kGauge,  ///< a level: adds across shards; across a restart the later
           ///< world's value replaces the earlier one
  kMax,    ///< a high-water mark: the larger value wins
};

/// What a merge combines: sibling shards (or a cache's lanes) of one world,
/// or a restart's earlier world (`into`) with its later one (`from`).
enum class Across : std::uint8_t { kShards, kRestart };

template <typename T>
struct Metric {
  std::string_view name;
  Merge rule;
  std::uint64_t T::*field;
};

/// The field of T's metric `name`, or null when T has none by that name.
template <typename T>
constexpr std::uint64_t T::*find(std::string_view name) {
  for (const Metric<T>& metric : T::metrics()) {
    if (metric.name == name) return metric.field;
  }
  return nullptr;
}

/// Merges every metric of `from` into `into` by its rule. The struct's
/// non-scalar parts are the caller's to merge.
template <typename T>
void merge(T& into, const T& from, Across across) {
  for (const Metric<T>& metric : T::metrics()) {
    std::uint64_t& value = into.*metric.field;
    const std::uint64_t other = from.*metric.field;
    switch (metric.rule) {
      case Merge::kSum:
        value += other;
        break;
      case Merge::kGauge:
        value = across == Across::kShards ? value + other : other;
        break;
      case Merge::kMax:
        value = std::max(value, other);
        break;
    }
  }
}

}  // namespace doxlab::stats

/// One X-macro row as a zero-initialised member, and as a table row of the
/// struct `Self` names.
#define DOXLAB_METRIC_FIELD(name, rule) std::uint64_t name = 0;
#define DOXLAB_METRIC_ROW(name, rule)                                      \
  ::doxlab::stats::Metric<Self>{#name, ::doxlab::stats::Merge::rule,       \
                                &Self::name},
/// Declares `Struct`'s members and its `metrics()` table from the X-macro
/// list `LIST`.
#define DOXLAB_METRICS(Struct, LIST)                                       \
  LIST(DOXLAB_METRIC_FIELD)                                                \
  static constexpr auto metrics() {                                        \
    using Self = Struct;                                                   \
    return std::to_array({LIST(DOXLAB_METRIC_ROW)});                       \
  }
