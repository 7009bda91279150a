// In-memory span recorder and small statistics helpers of the benchmark.
//
// A span brackets one call into a GridQP layer (GenerateProteinSequences,
// GridSetup::Initialize, Gdqs::SubmitQuery, Simulator::Run, ...). Spans
// are kept in memory while the benchmark runs and written out as JSON
// lines when it ends. A disabled tracer records nothing and reads no
// clock, so untraced passes pay only for the handful of clock reads the
// end-to-end metrics need.

#ifndef GRIDQP_PERFBENCH_TRACE_H_
#define GRIDQP_PERFBENCH_TRACE_H_

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in nanoseconds since an arbitrary origin.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  /// Static string: "<layer>.<call>", e.g. "sim.run".
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span in Tracer::spans(), -1 for a root.
  int parent = -1;
  /// The simulation run (one grid, one drain) the span belongs to.
  int run_id = 0;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  void set_run_id(int run_id) { run_id_ = run_id; }

  /// Opens a span nested in the innermost open one. Returns -1 (and
  /// records nothing) when disabled.
  int Begin(const char* name);
  /// Closes the innermost open span, which must be `span`.
  void End(int span);
  /// Records an already-timed span under `parent` (used for calls that
  /// run inside simulator events, timed from the trace-sink callbacks).
  void Add(const char* name, int64_t start_ns, int64_t end_ns, int parent);
  const std::vector<Span>& spans() const { return spans_; }

  /// Self time (duration minus the time covered by direct children) in
  /// ms, summed per span name, over spans [first, last).
  std::map<std::string, double> SelfTimeMs(size_t first, size_t last) const;

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_ = false;
  int run_id_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer->Begin(name)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Log-bucketed histogram of non-negative nanosecond values: 32 buckets
/// per power of two (about 2% resolution), no per-sample storage.
class LogHistogram {
 public:
  void Add(int64_t ns);
  void Merge(const LogHistogram& other);
  /// Nearest-rank percentile (bucket midpoint), 0 when empty.
  double Percentile(double p) const;

 private:
  static constexpr int kSub = 32;
  static constexpr int kBuckets = 64 * kSub;
  std::array<uint64_t, kBuckets> counts_{};
  uint64_t count_ = 0;
};

/// Nearest-rank percentile (p in [0, 100]) of an unsorted sample; 0 when
/// the sample is empty.
double Percentile(std::vector<double> sample, double p);

/// Median of an unsorted sample (nearest-rank p50).
inline double Median(std::vector<double> sample) {
  return Percentile(std::move(sample), 50.0);
}

/// FNV-1a accumulator for result and behaviour fingerprints.
class Fingerprint {
 public:
  void Mix(const void* data, size_t len);
  void Mix(uint64_t v) { Mix(&v, sizeof(v)); }
  void Mix(double v) { Mix(&v, sizeof(v)); }
  void Mix(const std::string& s) {
    Mix(s.data(), s.size());
    Mix(static_cast<uint64_t>(s.size()));
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 1469598103934665603ULL;
};

}  // namespace perfbench

#endif  // GRIDQP_PERFBENCH_TRACE_H_
