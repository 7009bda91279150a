// The benchmark's three workloads. Each one is a fixed, seeded list of
// simulation runs (one fresh grid, one drain each), called a pass. The
// benchmark repeats the pass until its time budget is spent; every
// repetition must reproduce the first one's behaviour fingerprint.
//
// The benchmark assembles every run itself from public GridQP calls and
// times each call as the boundary of a layer (see README.md). It never
// calls RunExperiment or chaos::RunScenario.

#ifndef GRIDQP_PERFBENCH_WORKLOADS_H_
#define GRIDQP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.h"

namespace perfbench {

enum class Workload { kPaperAdapt, kTenantOverload, kLossyFailover };

/// "paper_adapt", "tenant_overload", "lossy_failover".
const char* WorkloadName(Workload workload);
bool ParseWorkload(const std::string& name, Workload* workload);

/// What one pass measured.
struct PassResult {
  // --- wall clock (end-to-end metrics) ---------------------------------
  /// Building grids, generating and registering tables, services and
  /// perturbations, summed over the pass's simulation runs.
  double setup_s = 0.0;
  /// Submission through drain to results collected and checked, summed.
  double measured_s = 0.0;
  /// Measured phase of each simulation run.
  std::vector<double> run_wall_ms;

  // --- query outcomes ----------------------------------------------------
  uint64_t attempted = 0;
  /// Reached Complete and passed every oracle and invariant check.
  uint64_t completed = 0;
  /// Wrong rows, aborted with an error, never terminal, or an invariant
  /// broken.
  uint64_t failed = 0;
  /// Rejected or shed by admission control.
  uint64_t refused = 0;
  /// Virtual response time of every completed query.
  std::vector<double> virt_resp_ms;
  /// Simulated seconds the completed work took: summed response times for
  /// the closed-loop client, summed arrival horizons for the open loop.
  double virt_s = 0.0;
  /// One line per failed check (printed, never hidden).
  std::vector<std::string> failures;
  /// One line per simulation run: what the seed drew and what happened.
  std::vector<std::string> run_notes;

  // --- deterministic behaviour --------------------------------------------
  /// Per-layer counts from the stats accessors, summed over the pass.
  std::map<std::string, double> counts;
  /// Hash of result rows, virtual times and counts.
  uint64_t fingerprint = 0;

  // --- traced passes only -------------------------------------------------
  /// Durations (us) of individual layer calls, keyed by span name.
  std::map<std::string, std::vector<double>> call_us;
  /// Wall gaps between successive simulator events.
  LogHistogram event_gaps;
  /// The pass's spans are Tracer::spans()[span_begin, span_end).
  size_t span_begin = 0;
  size_t span_end = 0;
};

class WorkloadRunner {
 public:
  WorkloadRunner(Workload workload, uint64_t seed);
  ~WorkloadRunner();
  WorkloadRunner(const WorkloadRunner&) = delete;
  WorkloadRunner& operator=(const WorkloadRunner&) = delete;

  /// Simulation runs in one pass.
  size_t runs_per_pass() const;
  /// Runs one pass. Spans go to `tracer` when it is enabled.
  PassResult RunPass(Tracer* tracer);

  struct Impl;

 private:
  std::unique_ptr<Impl> impl_;
};

}  // namespace perfbench

#endif  // GRIDQP_PERFBENCH_WORKLOADS_H_
