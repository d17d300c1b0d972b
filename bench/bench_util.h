// Shared helpers for the experiment-reproduction binaries: tiny flag
// parsing and paper-vs-measured table helpers.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

namespace doxlab::bench {

/// Parses "--name=value" integer flags; returns `fallback` if absent. A
/// value that is not wholly an integer in range exits with status 2.
inline int flag_int(int argc, char** argv, const char* name, int fallback) {
  const std::string prefix = std::string(name) + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      const char* value = argv[i] + prefix.size();
      const char* end = value + std::strlen(value);
      int out = 0;
      const auto [ptr, ec] = std::from_chars(value, end, out);
      if (ec != std::errc() || ptr != end) {
        std::fprintf(stderr, "%s=%s is not an integer in range\n", name,
                     value);
        std::exit(2);
      }
      return out;
    }
  }
  return fallback;
}

/// Presence flag ("--full").
inline bool flag_set(int argc, char** argv, const char* name) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

inline void banner(const char* title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("================================================================\n");
}

/// Collects named metrics grouped by benchmark and serializes them as JSON
/// (sorted keys, so reruns of identical results are byte-identical). Used
/// by the microbenches to commit machine-readable baselines like
/// BENCH_sim_core.json alongside the textual report.
class JsonReporter {
 public:
  void metric(const std::string& bench, const std::string& name,
              double value) {
    benches_[bench][name] = value;
  }

  std::string to_json() const {
    std::string out = "{\n";
    bool first_bench = true;
    for (const auto& [bench, metrics] : benches_) {
      if (!first_bench) out += ",\n";
      first_bench = false;
      out += "  \"" + bench + "\": {\n";
      bool first_metric = true;
      for (const auto& [name, value] : metrics) {
        if (!first_metric) out += ",\n";
        first_metric = false;
        // Counts print exactly; %.6g would round 1737790 to 1.73779e+06.
        char buf[64];
        if (value == std::trunc(value) && std::fabs(value) < 0x1p53) {
          std::snprintf(buf, sizeof(buf), "%.0f", value);
        } else {
          std::snprintf(buf, sizeof(buf), "%.6g", value);
        }
        out += "    \"" + name + "\": " + buf;
      }
      out += "\n  }";
    }
    out += "\n}\n";
    return out;
  }

  /// Returns false on I/O failure.
  bool write_file(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::string json = to_json();
    const bool ok = std::fwrite(json.data(), 1, json.size(), f) ==
                    json.size();
    return std::fclose(f) == 0 && ok;
  }

 private:
  std::map<std::string, std::map<std::string, double>> benches_;
};

}  // namespace doxlab::bench
