// Chaos runner: executes one seeded scenario through the full GDQS/GQES
// pipeline (grid construction, datasets, query compilation, adaptive
// execution under the scenario's perturbation/failure/network schedule)
// and checks the system invariants of invariants.h. The workload is the
// base query plus any concurrent ones, or a tenant storm's open-loop
// arrivals under admission control; every profile runs through the same
// code and the same checks. A red run's report ends with the one-line
// repro command, so a red sweep entry is immediately replayable:
// `chaos_repro --seed=N`.
//
// The paper's evaluation cells (ExperimentParams) run through the same
// runner: RunExperiment turns each repetition into a zero-fault scenario,
// so every paper cell is held to the same invariants.

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

/// Outcome of one query of a chaos run.
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
  /// Every submitted query reached a terminal state it may reach:
  /// complete, or — under admission control only — rejected or aborted.
  bool completed = false;
  std::vector<std::string> violations;

  /// Result rows in arrival order (rendered), for determinism comparison.
  /// Base query only (a storm has none); the other queries are summarized
  /// in `per_query`.
  std::vector<std::string> result_rows;
  double response_ms = 0.0;
  double final_time_ms = 0.0;
  QueryStatsSnapshot stats;
  /// One entry per submitted query in submission order, base query first,
  /// except the ones admission control rejected or aborted (`workload`
  /// accounts for those).
  std::vector<QueryOutcome> per_query;

  /// Control-plane diagnostics (printed by chaos_repro): failure-detector,
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
  /// scenario has storm tenants.
  DriverReport workload;
  AdmissionStats admission;

  uint64_t trace_hash = 0;
  uint64_t trace_events = 0;
  /// Only populated with ChaosRunOptions::keep_trace.
  std::string trace;

  /// The command that replays the scenario (`chaos_repro --seed=N ...`).
  std::string repro;

  bool ok() const { return status.ok() && violations.empty(); }
  /// Violations joined into one report; a red one ends with the repro.
  std::string Report() const;
};

/// Runs one scenario and checks invariants (a), (b), (d), (e) and (f), the
/// terminal trichotomy and, under admission control, the admission
/// ledger (invariants.h). Invariant (c) is checked by running the same
/// scenario twice and comparing trace/results (see
/// tests/chaos/determinism_test.cc).
ChaosRunResult RunScenario(const ChaosScenario& scenario,
                           const ChaosRunOptions& options = {});

}  // namespace chaos

/// \brief One cell of the paper's evaluation (§3): a query under fixed
/// perturbations, averaged over seeded repetitions.
struct ExperimentParams : RunSpec {
  /// Labels errors; never changes the run.
  std::string name;
  /// Installed at t=0 on the query's perturb tag.
  std::vector<PerturbSpec> perturbations;
  /// Mild per-tuple noise factor (relative stddev) applied to explicitly
  /// perturbed evaluators on top of their constant factor. 0 disables.
  double noise_stddev = 0.05;
  /// Natural load fluctuation on unperturbed evaluators: the stationary
  /// stddev of the log cost factor (Ornstein-Uhlenbeck drift). Models the
  /// paper's "slight fluctuations ... of a real wide-area environment"
  /// that occasionally trigger adaptations even without injected
  /// imbalance. 0 disables.
  double drift_sigma = 0.35;
  /// GDQS admission control (D16) with its default caps — wide enough
  /// that a single query admits instantly.
  bool admission_control = false;
  int repetitions = 3;

  bool operator==(const ExperimentParams&) const = default;
};

struct ExperimentResult {
  bool ok = false;
  std::string error;
  /// Mean response time over repetitions (virtual ms).
  double response_ms = 0.0;
  std::vector<double> rep_times_ms;
  /// Result cardinality of each repetition, in repetition order.
  std::vector<size_t> rep_rows;
  /// Stats from the last repetition.
  QueryStatsSnapshot stats;
};

/// Runs the cell. Repetition `rep` is the zero-fault chaos scenario of
/// seed `seed + rep`, checked like any scenario: (a) results, (b)
/// conservation, (d) termination, and (f) under flow control. A violation
/// fails the cell, naming it and the repetition's seed.
ExperimentResult RunExperiment(const ExperimentParams& params);

/// response / baseline, guarding division by zero.
double Normalized(const ExperimentResult& result,
                  const ExperimentResult& baseline);

}  // namespace gqp

#endif  // GRIDQP_CHAOS_RUNNER_H_
