// The paper's workload vocabulary: its two queries (plus the multi-tenant
// scan-aggregate template), their perturbation targets and the
// perturbation kinds of its evaluation. Paper cells themselves
// (ExperimentParams, RunExperiment) run through the chaos runner
// (chaos/runner.h).

#ifndef GRIDQP_WORKLOAD_EXPERIMENT_H_
#define GRIDQP_WORKLOAD_EXPERIMENT_H_

#include <string>

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

/// The operation tag a query's perturbations target ("ws:EntropyAnalyser"
/// for Q1, the join tag for Q2).
std::string PerturbTag(QueryKind kind);

}  // namespace gqp

#endif  // GRIDQP_WORKLOAD_EXPERIMENT_H_
