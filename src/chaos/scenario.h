// Chaos scenarios: seeded, randomized stress inputs for the adaptivity
// loop. A generated ChaosScenario is a pure function of a single uint64_t
// seed and a profile — it composes a query, a heterogeneous grid,
// perturbation schedules (the paper's load-injection profiles attached to
// random (node, operation) bindings at random virtual times), evaluator
// failures, and network delay/bandwidth shifts. Presets build a scenario
// by hand instead: each paper cell's repetition (RunExperiment), the
// five staggered queries of bench_multiquery and the tenant workloads of
// bench_tenants. The runner (runner.h) executes every scenario through
// the full GDQS/GQES pipeline and checks system invariants instead of
// golden outputs.

#ifndef GRIDQP_CHAOS_SCENARIO_H_
#define GRIDQP_CHAOS_SCENARIO_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/adaptivity_config.h"
#include "dqp/admission.h"
#include "net/network.h"
#include "plan/cost_model.h"
#include "workload/driver.h"
#include "workload/experiment.h"

namespace gqp {

/// \brief What every run is built from, paper cell (ExperimentParams) or
/// chaos scenario (ChaosScenario): the query, the datasets, the grid and
/// the adaptivity knobs. The defaults are the paper's set-up
/// (EXPERIMENTS.md).
struct RunSpec {
  QueryKind query = QueryKind::kQ1;

  // --- datasets -----------------------------------------------------------
  /// protein_sequences cardinality (paper: 3000; Fig. 3(b): 6000).
  size_t sequences = 3000;
  /// protein_interactions cardinality (paper: 4700).
  size_t interactions = 4700;
  size_t sequence_length = 200;
  /// Nominal cost of one EntropyAnalyser web-service call.
  double ws_cost_ms = 0.21;

  // --- grid ---------------------------------------------------------------
  int num_evaluators = 2;
  /// Heartbeat failure detection and the reliable control-plane transport.
  /// On in every generated scenario: crashes must be discovered through
  /// missed heartbeats, never reported by the harness.
  bool failure_detection = false;
  /// Credit-based flow control (D11): bounded queues under a per-query
  /// memory budget split evenly across exchange links (0 = unlimited
  /// window: the credit machinery idles even with flow control on).
  bool flow_control = false;
  size_t memory_budget_bytes = 0;
  /// Replicated-coordinator mode (D14): a standby GDQS mirrors every
  /// coordinator decision over the control plane; when off, nothing
  /// failover-related exists.
  bool coordinator_standby = false;

  // --- adaptivity -----------------------------------------------------------
  /// Off: no MEDs, no monitoring and no recovery logs (the static system).
  bool adaptivity = true;
  AssessmentType assessment = AssessmentType::kA1;
  ResponseType response = ResponseType::kProspective;
  size_t m1_frequency = 10;
  size_t med_window = 25;
  double thres_m = 0.20;
  double thres_a = 0.20;

  /// Seeds the datasets and every seeded profile of the run.
  uint64_t seed = 1;

  bool operator==(const RunSpec&) const = default;
};

namespace chaos {

/// Installs (or clears) a perturbation profile on one evaluator at a
/// virtual time.
struct PerturbationEvent {
  enum class Kind {
    /// Operation k times costlier (factor = p0).
    kConstantFactor,
    /// Fixed added delay per unit of work (delay_ms = p0).
    kAddedDelay,
    /// Per-tuple factor ~ truncated N(p0, p1) in [p2, p3].
    kGaussianFactor,
    /// Ornstein-Uhlenbeck load drift (sigma = p0, tau_ms = p1).
    kDrift,
    /// Piecewise-constant factor over time (steps).
    kStep,
    /// Removes every perturbation from the evaluator (load goes away).
    kClear,
  };

  SimTime at_ms = 0.0;
  int evaluator = 0;
  Kind kind = Kind::kConstantFactor;
  /// Profile parameters; meaning depends on `kind` (see enumerators).
  double p0 = 1.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
  /// (start_ms, factor) pairs for kStep, sorted by start time.
  std::vector<std::pair<double, double>> steps;
  /// Seed for RNG-driven profiles.
  uint64_t profile_seed = 0;
  /// Node-wide (every operation) instead of the query's perturb tag.
  bool node_wide = false;

  std::string Describe() const;
};

/// Crashes one evaluator machine at a virtual time.
struct FailureEvent {
  SimTime at_ms = 0.0;
  int evaluator = 0;
};

/// Isolates one evaluator from the network for a window (the machine keeps
/// running; its traffic is dropped in both directions).
struct PartitionEvent {
  SimTime at_ms = 0.0;
  double duration_ms = 0.0;
  int evaluator = 0;
};

/// Silences one evaluator's heartbeats for a window while it keeps
/// processing work (GC pause / overloaded control path): the
/// false-suspicion trigger.
struct StallEvent {
  SimTime at_ms = 0.0;
  double duration_ms = 0.0;
  int evaluator = 0;
};

/// Replaces every link's latency/bandwidth at a virtual time.
struct LinkShiftEvent {
  SimTime at_ms = 0.0;
  LinkParams params;
};

/// Scenario family. Every profile consumes the identical RNG draw
/// sequence, so a seed describes the same base scenario in each; kLossy
/// additionally applies message loss, partition windows and heartbeat
/// stalls that kStandard discards. kSlowConsumer replaces the chaos
/// schedule with a single sustained CPU sag on one evaluator (no kills)
/// and turns flow control on; kMemorySqueeze keeps the standard chaos but
/// runs under a tight per-query memory budget; kMultiQuery keeps the
/// standard chaos and submits 1-3 additional overlapping queries, every
/// invariant checked per query (DESIGN.md §D12). kCoordinatorKill drops
/// every evaluator kill and instead crashes the PRIMARY COORDINATOR at a
/// random time, with a standby GDQS mirroring it and taking over (D14) —
/// the results must match a kill-free reference run byte-for-byte.
/// kTenantStorm replaces the single base query with an open-loop
/// multi-tenant workload pressing a bounded GDQS admission queue at burst
/// rates while one evaluator crashes and recovers mid-storm (D16); the
/// per-query invariant is the terminal trichotomy — every submitted query
/// reaches exactly one of {Complete, Aborted, Rejected}.
enum class ChaosProfile {
  kStandard,
  kLossy,
  kSlowConsumer,
  kMemorySqueeze,
  kMultiQuery,
  kCoordinatorKill,
  kTenantStorm,
};

/// One additional query of a multi-query scenario, submitted while the
/// base query is running.
struct ConcurrentQuery {
  QueryKind kind = QueryKind::kQ1;
  SimTime submit_at_ms = 0.0;
};

/// \brief A complete seeded chaos scenario.
///
/// The run description it shares with a paper cell lives in RunSpec;
/// GenerateScenario draws or sets every one of those fields.
struct ChaosScenario : RunSpec {
  ChaosProfile profile = ChaosProfile::kStandard;

  // --- grid -------------------------------------------------------------
  std::vector<double> capacities;
  LinkParams initial_link;

  // --- engine knobs -----------------------------------------------------
  size_t checkpoint_interval = 25;
  size_t buffer_tuples = 50;

  // --- optimiser costs ---------------------------------------------------
  /// Per-tuple plan costs: the CostModel defaults, which chaos runs keep;
  /// paper cells set the calibration of EXPERIMENTS.md. Every query kind
  /// scans at the CostModel default except Q2, whose tuples may ship
  /// through slower GDS wrappers: the base query and each concurrent
  /// query take the scan cost of their kind.
  double q2_scan_cost_ms = CostModel{}.scan_cost_ms;
  double join_probe_cost_ms = CostModel{}.join_probe_cost_ms;
  double join_build_cost_ms = CostModel{}.join_build_cost_ms;

  // --- failure detection / lossy fabric ---------------------------------
  /// Uniform drop probability of every remote message (0 in the standard
  /// profile: legacy seeds keep their meaning).
  double loss_rate = 0.0;
  double heartbeat_interval_ms = 5.0;

  // --- batch execution (D13) ---------------------------------------------
  /// Rows per operator batch. GenerateScenario leaves the default of 1
  /// (legacy traces stay byte-identical); the batch sweeps and
  /// `chaos_repro --batch=N` set it after generation.
  size_t vector_batch_size = 1;

  // --- multi-query (D12) -------------------------------------------------
  /// Queries submitted on top of the base `query` while it runs. The
  /// kMultiQuery and kCoordinatorKill profiles and bench_multiquery fill
  /// it; the other profiles leave it empty so their runs add zero events
  /// and keep byte-identical traces.
  std::vector<ConcurrentQuery> extra_queries;

  // --- coordinator failover (D14) ----------------------------------------
  /// Crash the primary coordinator at `coordinator_kill_at_ms`.
  bool coordinator_kill = false;
  double coordinator_kill_at_ms = 0.0;
  /// Per-query deadline handed to the GDQS (0: no watchdog); a storm's
  /// arrivals take `storm.deadline_ms` instead.
  double deadline_ms = 0.0;

  // --- multi-tenant storm (D16) ------------------------------------------
  /// Open-loop tenants replacing the base query as the workload; no
  /// tenants (every generated profile but kTenantStorm) means no storm. The runner
  /// submits every arrival with the options it derives from this scenario:
  /// `storm.base_options` is overridden.
  DriverConfig storm;
  /// GDQS admission control, copied into the grid as is: on iff
  /// `admission.enabled`. The storm draws its caps; a paper cell with
  /// admission takes the defaults.
  AdmissionConfig admission;

  // --- injected chaos ---------------------------------------------------
  std::vector<PerturbationEvent> perturbations;
  std::vector<FailureEvent> failures;
  std::vector<LinkShiftEvent> link_shifts;
  std::vector<PartitionEvent> partitions;
  std::vector<StallEvent> stalls;

  /// One-line summary for logs and violation reports.
  std::string Describe() const;
};

/// Generates the scenario for a seed. Deterministic: equal (seed, profile)
/// pairs yield structurally identical scenarios. Guarantees at least one
/// evaluator survives every failure schedule — including worst-case false
/// kills from partition/stall windows long enough to be confirmed.
ChaosScenario GenerateScenario(uint64_t seed,
                               ChaosProfile profile = ChaosProfile::kStandard);

/// One row of the profile table: the `chaos_repro` flag that selects the
/// profile (empty for kStandard), the short name golden tests use for it
/// (empty for kStandard) and its `chaos_repro` usage line.
struct ProfileInfo {
  ChaosProfile profile;
  std::string_view flag;
  std::string_view name;
  std::string_view help;
};

/// Every profile, in enum order: the only mapping between profiles,
/// flags and names.
std::span<const ProfileInfo> Profiles();
const ProfileInfo& GetProfileInfo(ChaosProfile profile);

/// The one-line command that reproduces a scenario (printed with every
/// invariant violation); `--batch=N` is included when N is not 1.
std::string ReproCommand(uint64_t seed,
                         ChaosProfile profile = ChaosProfile::kStandard,
                         size_t batch_size = 1);

}  // namespace chaos
}  // namespace gqp

#endif  // GRIDQP_CHAOS_SCENARIO_H_
