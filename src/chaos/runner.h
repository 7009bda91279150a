// Chaos runner: executes one seeded scenario through the full GDQS/GQES
// pipeline (grid construction, datasets, query compilation, adaptive
// execution under the scenario's perturbation/failure/network schedule)
// and checks the system invariants of invariants.h. Any violation carries
// the one-line repro command, so a red sweep entry is immediately
// replayable: `chaos_repro --seed=N`.

#ifndef GRIDQP_CHAOS_RUNNER_H_
#define GRIDQP_CHAOS_RUNNER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "detect/heartbeat.h"
#include "dqp/admission.h"
#include "dqp/gdqs.h"
#include "dqp/standby.h"
#include "rpc/reliable.h"
#include "workload/driver.h"

namespace gqp {
namespace chaos {

struct ChaosRunOptions {
  /// Keep the full serialized event trace (determinism tests); the FNV
  /// hash is always recorded.
  bool keep_trace = false;
  /// Per-scenario event budget: a runaway loop becomes a termination
  /// violation instead of a hung test.
  uint64_t max_events = 30'000'000ULL;
};

/// Outcome of one query of a chaos run (every run has at least the base
/// query; kMultiQuery scenarios add the concurrent ones).
struct QueryOutcome {
  int query_id = 0;
  QueryKind kind = QueryKind::kQ1;
  bool completed = false;
  size_t rows = 0;
  double response_ms = 0.0;
  uint64_t queued_bytes_peak = 0;
  uint64_t rounds_applied = 0;
};

struct ChaosRunResult {
  /// Infrastructure failures (grid setup, submission); invariant
  /// violations are reported in `violations`, not here.
  Status status = Status::OK();
  bool completed = false;
  std::vector<std::string> violations;

  /// Result rows in arrival order (rendered), for determinism comparison.
  /// Base query only; concurrent queries are summarized in `per_query`.
  std::vector<std::string> result_rows;
  double response_ms = 0.0;
  double final_time_ms = 0.0;
  QueryStatsSnapshot stats;
  /// One entry per submitted query, base query first.
  std::vector<QueryOutcome> per_query;

  /// Control-plane diagnostics (chaos_repro --verbose): failure-detector,
  /// reliable-transport and network-loss counters of the run.
  DetectStats detect;
  ReliableStats transport;
  NetworkStats net;
  uint64_t heartbeats_sent = 0;
  /// Heartbeats swallowed by injected stall windows.
  uint64_t heartbeats_suppressed = 0;

  /// Coordinator failover (D14) diagnostics; all zero unless the scenario
  /// enabled the standby.
  TakeoverStats takeover;
  /// Entries the primary appended to / had acknowledged from its mirror
  /// log (`mirror_entries - mirror_acked` is the final replication lag).
  uint64_t mirror_entries = 0;
  uint64_t mirror_acked = 0;
  /// Fenced commands dropped grid-wide: GQES-level deploy/release drops
  /// plus per-executor stale producer/consumer/state-move drops.
  uint64_t stale_epoch_dropped = 0;
  /// GQES endpoints that advanced to the takeover epoch.
  uint64_t epoch_updates = 0;

  /// Multi-tenant storm (D16): the open-loop workload's full report and
  /// the admission controller's counters. Only populated when the
  /// scenario set tenant_storm; `workload.queries` then replaces the
  /// single-base-query fields above (result_rows stays empty).
  DriverReport workload;
  AdmissionStats admission;

  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;
  /// Only populated with ChaosRunOptions::keep_trace.
  std::string trace;

  bool ok() const { return status.ok() && violations.empty(); }
  /// Violations joined into one report, repro command included.
  std::string Report() const;
};

/// Runs one scenario and checks invariants (a), (b) and (d). Invariant (c)
/// is checked by running the same scenario twice and comparing
/// trace/results (see tests/chaos/determinism_test.cc).
ChaosRunResult RunScenario(const ChaosScenario& scenario,
                           const ChaosRunOptions& options = {});

}  // namespace chaos
}  // namespace gqp

#endif  // GRIDQP_CHAOS_RUNNER_H_
