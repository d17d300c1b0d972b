// Shared declarations of the doxlab benchmark program: the workload table,
// the end-to-end call each workload makes, and the per-layer probes of the
// traced run. README.md documents every workload and metric.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/sharded.h"
#include "measure/web_study.h"

namespace doxbench {

enum class Family { kEngine, kWeb };

/// One workload: a fixed configuration of one public entry point
/// (engine::run_sharded or runner::run_web_campaign). The seed is not part
/// of the workload; it is an argument of every run.
struct Workload {
  std::string_view name;
  Family family = Family::kEngine;
  // Engine workloads.
  std::uint32_t shards = 1;
  double qps = 0.0;             ///< offered Poisson rate, simulated time
  double sim_seconds = 0.0;     ///< arrival window, simulated time
  std::size_t names = 0;        ///< Zipf-1.0 name population
  // Web workload.
  int resolvers = 0;
  int loads = 0;                ///< measured loads per combination
};

/// The four workloads, in the order BENCHMARK.json lists them.
const std::vector<Workload>& workloads();
/// Null when `name` is not a workload.
const Workload* find_workload(std::string_view name);
/// The same workload shrunk for the smoke pass (seconds, not minutes).
Workload smoke_size(const Workload& workload);

/// Threads or jobs a parallel call may use: min(4, CPUs this process may
/// run on).
int worker_threads();
/// The thread/job count the workload's own call uses.
int default_threads(const Workload& workload);

/// What one call of a workload's entry point produced.
struct RunResult {
  std::uint64_t attempted = 0;  ///< stub-query arrivals, or page loads run
  std::uint64_t failed = 0;     ///< servfail + timeout + shed, or failed loads
  double wall_s = 0.0;          ///< wall time of the entry-point call
  double cpu_s = 0.0;           ///< process CPU time (all threads) of it
  /// Simulated latency of each successful operation: stub latency for the
  /// engine, page-load time for the web study.
  std::vector<double> latency_ms;
  /// Engine: merged simulator event-stream digest. Web: record digest.
  std::uint64_t digest = 0;
  /// Engine: commutative per-query outcome digest. Web: equal to digest.
  std::uint64_t outcome_digest = 0;
  /// Broken invariants; a run with any is not correct.
  std::vector<std::string> violations;
  doxlab::engine::ShardedResult sharded;          ///< engine only
  std::vector<doxlab::measure::WebRecord> records;  ///< web only
};

/// Makes the workload's call once. `zero_work` offers no work (engine:
/// an empty arrival window; web: zero loads per combination), which times
/// the call's set-up alone.
RunResult run_workload(const Workload& workload, std::uint64_t seed,
                       bool zero_work, int threads);

/// Heap allocations the calling thread has made so far.
std::uint64_t thread_allocations();

/// One named measurement with its unit.
struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// The traced run: makes the workload's call, then times each layer's
/// public functions from outside with the workload's own inputs. Spans go
/// to `spans_csv` (skipped when empty). `smoke` shrinks every probe.
/// Returns false (after printing why) when an output check failed.
bool run_traced(const Workload& workload, std::uint64_t seed,
                const std::string& spans_csv, bool smoke,
                std::vector<Metric>& metrics, RunResult& e2e);

}  // namespace doxbench
