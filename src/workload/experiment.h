// Experiment runner shared by the benchmark harness, examples and
// integration tests. Builds a fresh grid per repetition, loads the
// paper's (synthetic) protein datasets, applies the requested
// perturbations, runs Q1 or Q2 under a given adaptivity policy, and
// reports averaged response times plus execution statistics.

#ifndef GRIDQP_WORKLOAD_EXPERIMENT_H_
#define GRIDQP_WORKLOAD_EXPERIMENT_H_

#include <string>
#include <vector>

#include "workload/grid_setup.h"

namespace gqp {

/// The paper's two evaluation queries plus the scan-aggregate template of
/// the multi-tenant workload driver (D16): a grouped count over
/// protein_interactions, executed as a partitioned stateful hash
/// aggregate (retrospective response only, like Q2).
enum class QueryKind { kQ1, kQ2, kScanAgg };

/// Short stable name ("Q1", "Q2", "SA") for reports and repro commands.
std::string QueryKindName(QueryKind kind);

/// SQL text of the paper's queries.
std::string QuerySql(QueryKind kind);

/// Perturbation applied to one evaluator machine.
struct PerturbSpec {
  enum class Kind {
    kNone,
    /// Operation k times costlier (paper's busy-loop method).
    kFactor,
    /// Fixed added delay per tuple (paper's sleep() method).
    kSleep,
    /// Per-tuple factor ~ truncated N(mean, sd) in [lo, hi] (Fig. 5).
    kGaussianFactor,
  };

  int evaluator = 0;
  Kind kind = Kind::kNone;
  double factor = 1.0;    // kFactor
  double sleep_ms = 0.0;  // kSleep
  double mean = 1.0;      // kGaussianFactor
  double stddev = 0.0;
  double lo = 0.0;
  double hi = 0.0;

  bool operator==(const PerturbSpec&) const = default;
};

struct ExperimentParams {
  std::string name;
  QueryKind query = QueryKind::kQ1;

  // --- dataset -----------------------------------------------------------
  /// protein_sequences cardinality (paper: 3000; Fig. 3(b): 6000).
  size_t sequences = 3000;
  /// protein_interactions cardinality (paper: 4700).
  size_t interactions = 4700;
  size_t sequence_length = 200;

  // --- grid ---------------------------------------------------------------
  int num_evaluators = 2;
  /// Runs the heartbeat failure detector and reliable control-plane
  /// transport (the control-plane tax the overhead bench guards).
  bool failure_detection = false;
  /// Credit-based flow control (D11): bounded queues under a per-query
  /// memory budget. The overhead bench guards its no-overload tax.
  bool flow_control = false;
  /// Per-query budget split evenly across exchange links (0 = unlimited
  /// window: credit machinery idles even with flow_control on).
  size_t memory_budget_bytes = 0;
  /// Replicated-coordinator mode (D14): a standby GDQS mirrors every
  /// coordinator decision over the control plane. The overhead bench
  /// guards the mirroring tax; when off, nothing failover-related exists.
  bool coordinator_standby = false;
  /// GDQS admission control (D16) with its default caps — wide enough
  /// that a single query admits instantly. The overhead bench guards the
  /// no-contention tax; when off, the submission path is untouched.
  bool admission_control = false;

  // --- adaptivity -----------------------------------------------------------
  bool adaptivity = true;
  AssessmentType assessment = AssessmentType::kA1;
  ResponseType response = ResponseType::kProspective;
  size_t m1_frequency = 10;
  size_t med_window = 25;
  double thres_m = 0.20;
  double thres_a = 0.20;

  // --- perturbations ---------------------------------------------------------
  std::vector<PerturbSpec> perturbations;
  /// Mild per-tuple noise factor (relative stddev) applied to explicitly
  /// perturbed evaluators on top of their constant factor. 0 disables.
  double noise_stddev = 0.05;
  /// Natural load fluctuation on unperturbed evaluators: stationary
  /// stddev of the log cost factor (Ornstein-Uhlenbeck drift) and its
  /// correlation time. Models the paper's "slight fluctuations ... of a
  /// real wide-area environment" that occasionally trigger adaptations
  /// even without injected imbalance. 0 disables.
  double drift_sigma = 0.35;
  double drift_tau_ms = 250.0;

  // --- cost model -------------------------------------------------------------
  /// Per-tuple data-node cost (retrieval + wrapper). Calibrated per query
  /// in EXPERIMENTS.md.
  double scan_cost_ms = 0.30;
  double ws_cost_ms = 0.21;
  double join_probe_cost_ms = 1.0;
  double join_build_cost_ms = 0.5;
  /// Q2 runs ship tuples through slower GDS wrappers; when >0 overrides
  /// scan_cost_ms for Q2.
  double q2_scan_cost_ms = 3.5;

  // --- run control ---------------------------------------------------------
  int repetitions = 3;
  uint64_t seed = 1;

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

/// Runs the experiment. Each repetition builds an isolated grid seeded
/// with `seed + rep`.
ExperimentResult RunExperiment(const ExperimentParams& params);

/// The operation tag a query's perturbations target ("ws:EntropyAnalyser"
/// for Q1, the join tag for Q2).
std::string PerturbTag(QueryKind kind);

/// response / baseline, guarding division by zero.
double Normalized(const ExperimentResult& result,
                  const ExperimentResult& baseline);

}  // namespace gqp

#endif  // GRIDQP_WORKLOAD_EXPERIMENT_H_
