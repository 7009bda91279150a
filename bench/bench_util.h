// Shared reporting helpers for the benchmark binaries. bench_paper
// regenerates the paper's whole evaluation; the others measure the engine.
// Each prints a human-readable table and emits a machine-readable
// BENCH_<name>.json next to it so repeated runs accumulate a perf
// trajectory (see README "Benchmarking").

#ifndef GRIDQP_BENCH_BENCH_UTIL_H_
#define GRIDQP_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"

#include "chaos/runner.h"

namespace gqp::bench {

/// True when this translation unit was compiled without optimization.
/// Benchmark numbers from such builds are meaningless; every entry point
/// below shouts about it (silently benchmarking -O0 is a footgun).
constexpr bool kUnoptimizedBuild =
#ifdef __OPTIMIZE__
    false;
#else
    true;
#endif

/// Prints the -O0 warning (once per call site that cares).
inline void WarnIfUnoptimized() {
  if (!kUnoptimizedBuild) return;
  std::fprintf(stderr,
               "**************************************************************\n"
               "** WARNING: this benchmark binary was built WITHOUT         **\n"
               "** optimization (-O0). Wall-clock numbers are meaningless.  **\n"
               "** Configure with -DCMAKE_BUILD_TYPE=Release and rebuild.   **\n"
               "**************************************************************\n");
}

/// Prints a banner naming the experiment being reproduced.
inline void Banner(const std::string& title, const std::string& detail) {
  WarnIfUnoptimized();
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", detail.c_str());
  std::printf("==============================================================\n");
}

/// Runs a paper cell through RunExperiment (chaos/runner.h: each
/// repetition is a zero-fault chaos scenario held to the runner's
/// invariants), printing the error and aborting the binary on failure (a
/// bench that cannot execute its workload, or returns a wrong result, must
/// not report).
inline ExperimentResult MustRun(const ExperimentParams& params) {
  ExperimentResult result = RunExperiment(params);
  if (!result.ok) {
    std::fprintf(stderr, "FATAL: experiment '%s' failed: %s\n",
                 params.name.c_str(), result.error.c_str());
    std::exit(1);
  }
  return result;
}

/// Quick environment flag for shorter runs (REPS=1 in CI loops).
inline int Repetitions(int fallback = 3) {
  const char* reps = std::getenv("GRIDQP_BENCH_REPS");
  if (reps == nullptr) return fallback;
  const int value = std::atoi(reps);
  return value > 0 ? value : fallback;
}

/// Flat metric set accumulated by a bench binary and flushed to
/// BENCH_<name>.json. Keys are inserted in order; values render with %.6g
/// so the files diff cleanly between runs.
class Metrics {
 public:
  explicit Metrics(std::string bench_name)
      : bench_name_(std::move(bench_name)) {}

  void Set(const std::string& key, double value) {
    for (auto& [k, v] : values_) {
      if (k == key) {
        v = value;
        return;
      }
    }
    values_.emplace_back(key, value);
  }

  const std::string& bench_name() const { return bench_name_; }
  const std::vector<std::pair<std::string, double>>& values() const {
    return values_;
  }

  /// Writes BENCH_<name>.json into the current directory (or `dir` when
  /// given) and reports the path on stdout. Returns false on I/O failure.
  bool WriteJson(const std::string& dir = ".") const {
    const std::string path =
        StrCat(dir, "/BENCH_", bench_name_, ".json");
    return WriteJsonTo(path);
  }

  bool WriteJsonTo(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "WARNING: cannot write %s\n", path.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n", bench_name_.c_str());
    std::fprintf(f, "  \"optimized_build\": %s,\n",
                 kUnoptimizedBuild ? "false" : "true");
    std::fprintf(f, "  \"metrics\": {\n");
    for (size_t i = 0; i < values_.size(); ++i) {
      std::fprintf(f, "    \"%s\": %.6g%s\n", values_[i].first.c_str(),
                   values_[i].second, i + 1 < values_.size() ? "," : "");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return true;
  }

 private:
  std::string bench_name_;
  std::vector<std::pair<std::string, double>> values_;
};

/// Reads one numeric metric back out of a BENCH_*.json file written by
/// Metrics::WriteJson (used by bench_hotpath --check; not a general JSON
/// parser). Returns false when the file or key is absent.
inline bool ReadJsonMetric(const std::string& path, const std::string& key,
                           double* out) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) return false;
  std::string contents;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    contents.append(buf, n);
  }
  std::fclose(f);
  const std::string needle = StrCat("\"", key, "\":");
  const size_t pos = contents.find(needle);
  if (pos == std::string::npos) return false;
  *out = std::strtod(contents.c_str() + pos + needle.size(), nullptr);
  return true;
}

}  // namespace gqp::bench

#endif  // GRIDQP_BENCH_BENCH_UTIL_H_
