// doxbench: one repetition or one traced run of a doxlab benchmark
// workload, printed as one JSON line. run.py drives it; README.md has the
// workloads, the metrics and the span CSV format.
//
//   doxbench --workload=W --seed=N             one repetition (end to end)
//   doxbench --workload=W --seed=N --trace [--spans=PATH]
//                                              the traced run (per layer)
//   doxbench [--smoke]                         reduced workloads, twice each
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "doxbench.h"
#include "stats/stats.h"

namespace {

using namespace doxbench;

constexpr const char* kUsage =
    "usage: doxbench --workload=NAME --seed=N [--trace [--spans=PATH]]\n"
    "       doxbench [--smoke]\n"
    "workloads: engine-hot-n1 engine-hot-n4 engine-miss-n1 paper-web\n";

/// Zero-work calls per repetition; their median is the set-up time. Kept
/// few: every call starts and stops a thread pool, and util::ThreadPool's
/// shutdown race (README.md) fires on some of those.
constexpr int kSetupCalls = 3;

[[noreturn]] void usage_error(const std::string& message) {
  std::fprintf(stderr, "doxbench: %s\n%s", message.c_str(), kUsage);
  std::exit(2);
}

/// Strict unsigned 64-bit parse: digits only, no sign, no overflow.
std::optional<std::uint64_t> parse_u64(std::string_view text) {
  if (text.empty() || text.size() > 20) return std::nullopt;
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string hex64(std::uint64_t value) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// One record: a repetition or a traced run, with exact counts, digests as
/// hex strings, and every metric with its unit.
struct Record {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t digest = 0;
  std::uint64_t outcome_digest = 0;
  std::vector<std::string> violations;
  std::vector<Metric> metrics;

  bool correct() const { return violations.empty(); }

  std::string to_json() const {
    std::string out = "{\"workload\": " + json_string(workload) +
                      ", \"seed\": " + std::to_string(seed) +
                      ", \"trace\": " + (traced ? "1" : "0") +
                      ", \"correct\": " + (correct() ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"digest\": " + json_string(hex64(digest)) +
                      ", \"outcome_digest\": " +
                      json_string(hex64(outcome_digest)) +
                      ", \"violations\": [";
    for (std::size_t i = 0; i < violations.size(); ++i) {
      out += (i ? ", " : "") + json_string(violations[i]);
    }
    out += "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out += (i ? ", " : "") + json_string(metrics[i].name) +
             ": {\"value\": " + json_number(metrics[i].value) +
             ", \"unit\": " + json_string(metrics[i].unit) + "}";
    }
    return out + "}}";
  }

  void take(const RunResult& run) {
    attempted = run.attempted;
    failed = run.failed;
    digest = run.digest;
    outcome_digest = run.outcome_digest;
    violations.insert(violations.end(), run.violations.begin(),
                      run.violations.end());
  }

  void check_finite() {
    for (const Metric& m : metrics) {
      if (!std::isfinite(m.value)) {
        violations.push_back(m.name + " is not a finite number");
      }
    }
  }
};

/// One repetition: the set-up time (median of zero-work calls), then one
/// measured call of the workload.
Record repetition(const Workload& w, std::uint64_t seed) {
  Record record;
  record.workload = std::string(w.name);
  record.seed = seed;
  const int threads = default_threads(w);

  std::vector<double> setup;
  for (int i = 0; i < kSetupCalls; ++i) {
    const RunResult zero = run_workload(w, seed, true, threads);
    record.violations.insert(record.violations.end(), zero.violations.begin(),
                             zero.violations.end());
    setup.push_back(zero.wall_s);
  }
  std::sort(setup.begin(), setup.end());

  const RunResult run = run_workload(w, seed, false, threads);
  record.take(run);
  const auto latency = doxlab::stats::Summary::of(run.latency_ms);
  const double ok = static_cast<double>(run.attempted - run.failed);
  record.metrics = {
      {"throughput_per_s", "1/s", ok / run.wall_s},
      {"cpu_us_per_op", "us/op",
       run.cpu_s * 1e6 / static_cast<double>(std::max<std::uint64_t>(
                             run.attempted, 1))},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"setup_s", "s", setup[setup.size() / 2]},
      {"sim_latency_mean_ms", "ms", latency.mean},
  };
  if (run.attempted == 0) record.violations.push_back("no work was offered");
  record.check_finite();
  return record;
}

Record traced(const Workload& w, std::uint64_t seed, const std::string& spans,
              bool smoke) {
  Record record;
  record.workload = std::string(w.name);
  record.seed = seed;
  record.traced = true;
  RunResult e2e;
  if (!run_traced(w, seed, spans, smoke, record.metrics, e2e)) {
    record.violations.push_back("a layer probe's output check failed");
  }
  record.take(e2e);
  record.check_finite();
  return record;
}

/// Reduced workloads, each run twice: the digests must agree, every
/// invariant must hold, and the traced run must produce every metric.
int smoke() {
  const std::uint64_t seed = 42;
  bool ok = true;
  for (const Workload& full : workloads()) {
    const Workload w = smoke_size(full);
    const Record a = repetition(w, seed);
    const Record b = repetition(w, seed);
    const Record t = traced(w, seed, "", true);
    for (const Record* r : {&a, &b, &t}) {
      std::printf("%s\n", r->to_json().c_str());
      for (const std::string& v : r->violations) {
        std::fprintf(stderr, "doxbench: %s: %s\n", r->workload.c_str(),
                     v.c_str());
        ok = false;
      }
    }
    if (a.digest != b.digest || a.outcome_digest != b.outcome_digest ||
        a.digest != t.digest) {
      std::fprintf(stderr, "doxbench: %s: digests differ across runs\n",
                   a.workload.c_str());
      ok = false;
    }
    if (a.failed != 0) {
      std::fprintf(stderr, "doxbench: %s: %llu operations failed\n",
                   a.workload.c_str(),
                   static_cast<unsigned long long>(a.failed));
      ok = false;
    }
  }
  std::printf("doxbench smoke: %s\n", ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<std::string> workload_name;
  std::optional<std::uint64_t> seed;
  std::string spans;
  bool trace = false;
  bool smoke_pass = argc == 1;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view flag)
        -> std::optional<std::string_view> {
      if (arg.substr(0, flag.size()) == flag && arg.size() > flag.size() &&
          arg[flag.size()] == '=') {
        return arg.substr(flag.size() + 1);
      }
      return std::nullopt;
    };
    if (arg == "--smoke") {
      smoke_pass = true;
    } else if (arg == "--trace") {
      trace = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf("%s", kUsage);
      return 0;
    } else if (const auto v = value("--workload")) {
      workload_name = std::string(*v);
    } else if (const auto v = value("--seed")) {
      seed = parse_u64(*v);
      if (!seed) usage_error("--seed needs an unsigned 64-bit integer, got '" +
                             std::string(*v) + "'");
    } else if (const auto v = value("--spans")) {
      spans = std::string(*v);
    } else {
      usage_error("unknown argument '" + std::string(arg) + "'");
    }
  }

  if (smoke_pass) {
    if (workload_name || seed || trace) {
      usage_error("--smoke takes no other arguments");
    }
    return smoke();
  }
  if (!workload_name) usage_error("--workload is required");
  if (!seed) usage_error("--seed is required");
  const Workload* w = find_workload(*workload_name);
  if (w == nullptr) usage_error("unknown workload '" + *workload_name + "'");
  if (!spans.empty() && !trace) usage_error("--spans needs --trace");

  const Record record =
      trace ? traced(*w, *seed, spans, false) : repetition(*w, *seed);
  std::printf("%s\n", record.to_json().c_str());
  for (const std::string& v : record.violations) {
    std::fprintf(stderr, "doxbench: %s: %s\n", record.workload.c_str(),
                 v.c_str());
  }
  return record.correct() ? 0 : 1;
}
