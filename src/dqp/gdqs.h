// GDQS — Grid Distributed Query Service: the coordinator. Accepts SQL
// queries, compiles them (parse -> bind -> optimise -> schedule), deploys
// fragment instances to the GQESs, wires the adaptivity services
// (MonitoringEventDetectors -> Diagnoser -> Responder, pub/sub), starts
// execution, and collects the result at the root fragment.

#ifndef GRIDQP_DQP_GDQS_H_
#define GRIDQP_DQP_GDQS_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "adapt/adaptivity_config.h"
#include "adapt/diagnoser.h"
#include "adapt/responder.h"
#include "catalog/catalog.h"
#include "dqp/admission.h"
#include "dqp/dqp_messages.h"
#include "dqp/gqes.h"
#include "dqp/mirror_log.h"
#include "plan/optimizer.h"
#include "plan/scheduler.h"
#include "sim/simulator.h"

namespace gqp {

class HeartbeatMonitor;

/// Per-query knobs a client passes at submission.
struct QueryOptions {
  AdaptivityConfig adaptivity;
  ExecConfig exec;
  OptimizerOptions optimizer;
  SchedulerOptions scheduler;
  /// Wall-clock (virtual) budget for the query; 0 disables the deadline
  /// watchdog. A query still running when the budget elapses is
  /// terminated with a partial result (D14: queries stuck in failover
  /// limbo must not hang forever).
  double deadline_ms = 0;
  /// Replaces the scheduler's initial weights on the input exchanges of
  /// the monitored fragment (must match the instance count; ignored
  /// otherwise). A takeover uses it to resume adaptivity from the last
  /// mirrored W instead of rediscovering the imbalance from scratch.
  std::vector<double> initial_weights_override;
  /// Submitting tenant (D16 admission control: per-tenant in-flight caps,
  /// fairness accounting, heaviest-tenant shedding). Empty is a valid
  /// tenant id (the default single-tenant workload).
  std::string tenant;
};

/// The outcome of a completed query.
struct QueryResult {
  int query_id = 0;
  bool complete = false;
  SchemaPtr schema;
  std::vector<Tuple> rows;
  SimTime submit_time_ms = 0;
  SimTime completion_time_ms = 0;
  double response_time_ms = 0;
};

/// Aggregated execution statistics for the overhead experiments.
struct QueryStatsSnapshot {
  uint64_t raw_m1 = 0;
  uint64_t raw_m2 = 0;
  uint64_t med_notifications = 0;
  uint64_t diagnoser_proposals = 0;
  uint64_t rounds_started = 0;
  uint64_t rounds_applied = 0;
  uint64_t resent_tuples = 0;
  uint64_t discarded_tuples = 0;
  /// Tuples routed to each evaluator instance of the monitored fragment.
  std::vector<uint64_t> tuples_per_evaluator;
  // --- queue / flow-control telemetry (D11) -----------------------------
  /// Deepest input queue (tuples) across all fragment instances.
  size_t queue_high_watermark = 0;
  /// Peak tuples parked at once on any single instance.
  size_t parked_peak = 0;
  /// Peak bytes held (queued + parked) on any single input port.
  uint64_t queued_bytes_peak = 0;
  uint64_t credit_grants_sent = 0;
  uint64_t queue_pressure_events = 0;
  /// Pressure-triggered proposals (subset of diagnoser_proposals).
  uint64_t pressure_proposals = 0;
  /// First proposal time of each diagnoser path (<0: never fired).
  double first_pressure_proposal_ms = -1.0;
  double first_rate_proposal_ms = -1.0;
  /// Producer-side events where the credit gate parked the driver.
  uint64_t credit_blocked_events = 0;
  /// Peak unacknowledged (in-flight) bytes on any producer->consumer link.
  uint64_t peak_outstanding_credit_bytes = 0;
  // --- reliable-transport telemetry, scoped to this query's traffic
  //     (attributed per message from the service naming convention, so
  //     the counters stay exact with several live queries on the bus;
  //     DESIGN.md §D12) ---------------------------------------------------
  uint64_t transport_retransmits = 0;
  uint64_t transport_backoffs = 0;
};

/// \brief The coordinator service.
class Gdqs : public GridService {
 public:
  Gdqs(MessageBus* bus, GridNode* node, Network* network, Catalog* catalog,
       ResourceRegistry* registry);
  ~Gdqs() override;

  /// Makes an evaluation service known to the coordinator (the resource
  /// registry of the paper keeps node metadata; this keeps service
  /// pointers for deployment and stats harvesting).
  void AddGqes(Gqes* gqes);

  /// Compiles and deploys a query; execution proceeds as the simulation
  /// runs. `on_complete` (optional) fires when the root fragment finishes.
  /// With admission control configured (D16) the returned id may denote a
  /// QUEUED or REJECTED query rather than a running one: the query either
  /// deploys later when a slot frees up, or carries a terminal Rejected
  /// status (poll ExecutionStatus). Every submitted id reaches exactly one
  /// of {Complete, Aborted, Rejected}.
  Result<int> SubmitQuery(const std::string& sql, const QueryOptions& options,
                          std::function<void(const QueryResult&)> on_complete =
                              nullptr);

  /// Installs the D16 admission controller. Call after every AddGqes (the
  /// pressure subscription covers the known evaluator hosts). A config
  /// with enabled=false is a no-op: the submission path stays exactly as
  /// without admission control.
  void ConfigureAdmission(const AdmissionConfig& config);

  /// Null unless ConfigureAdmission installed an enabled controller.
  const AdmissionController* admission() const { return admission_.get(); }

  /// Hard cap on simultaneously-registered (queued + live) queries — the
  /// loud backstop that stops a runaway submission loop from OOMing the
  /// simulation even with admission control off. SubmitQuery fails with
  /// ResourceExhausted beyond it. Default: effectively unlimited.
  void set_max_active_queries(size_t cap) { max_active_queries_ = cap; }
  size_t max_active_queries() const { return max_active_queries_; }
  /// Queries registered and not yet complete/terminated (excludes the
  /// admission queue; pending_admissions count against the cap too).
  size_t active_queries() const { return active_queries_; }

  /// True once the root fragment of `query_id` reported completion.
  bool QueryComplete(int query_id) const;

  /// Fetches the result of a (completed) query.
  Result<QueryResult> GetResult(int query_id) const;

  /// Aggregates execution stats across all services involved in a query.
  Result<QueryStatsSnapshot> CollectStats(int query_id) const;

  /// The scheduled plan of a query (tests/EXPLAIN output).
  Result<ScheduledPlan> GetPlan(int query_id) const;

  /// First fragment execution error observed for the query (OK if none).
  Status ExecutionStatus(int query_id) const;

  /// Reports a crashed host (normally fed by a heartbeat failure
  /// detector; tests and examples call it directly). For every running
  /// query: evaluator instances on the host are declared dead, downstream
  /// consumers stop waiting for their streams, and the Responder runs a
  /// recovery round that redistributes the recovery-logged tuples of the
  /// dead instances to the survivors.
  Status ReportNodeFailure(HostId host);

  /// Wires the heartbeat failure detector: the GDQS activates it while
  /// queries are in flight (one Activate per running query) and it feeds
  /// confirmed failures back through ReportNodeFailure. When set, the
  /// chaos harness no longer reports failures directly — crashes are
  /// discovered solely through missed heartbeats.
  void SetFailureDetector(HeartbeatMonitor* monitor);

  /// Hosts whose failure was reported (by the detector or directly).
  /// The chaos invariants use it to tell protocol-dead from actually-dead.
  const std::set<HostId>& reported_failures() const {
    return reported_failures_;
  }

  /// Drops all executors and adaptivity services of a query.
  void ReleaseQuery(int query_id);

  /// Terminates a running query: tears down its executors, keeping
  /// whatever rows the root had produced as a partial result. GetResult
  /// afterwards returns complete=false with those rows;
  /// ExecutionStatus returns Aborted. Used by the deadline watchdog and
  /// by the standby for queries past their deadline at takeover.
  Status TerminateQuery(int query_id, const std::string& reason);

  /// Cancels every pending per-query deadline watchdog. Called when the
  /// coordinator's machine is killed: a dead process has no timers, and
  /// leaving them queued would hold the simulation clock until they fire
  /// as no-ops.
  void CancelDeadlineWatchdogs();

  /// Starts mirroring every coordinator decision to `standby` as
  /// MirrorEntryPayloads over the control plane (DESIGN.md §D14). Off by
  /// default; when off, no mirror traffic exists at all.
  void EnableMirroring(const Address& standby);

  /// The primary-side mirror log (null unless mirroring is enabled).
  const MirrorLog* mirror_log() const { return mirror_log_.get(); }

  /// Raises the floor of the query-id counter. A standby taking over
  /// seeds it past the primary's highest mirrored id so retried queries
  /// never collide with surviving executor endpoints.
  void SeedQueryIds(int next_id);

  /// Sets the fenced coordinator epoch stamped onto every deployed plan
  /// and failure-recovery command (D14). Evaluators drop commands with
  /// epochs below their high-water mark.
  void set_coordinator_epoch(uint64_t epoch) { coordinator_epoch_ = epoch; }
  uint64_t coordinator_epoch() const { return coordinator_epoch_; }

  Diagnoser* diagnoser(int query_id) const;
  Responder* responder(int query_id) const;

 protected:
  void HandleMessage(const Message& msg) override;
  void OnNotification(const Address& publisher, const std::string& topic,
                      const PayloadPtr& body) override;

 private:
  struct QueryState {
    int id = 0;
    ScheduledPlan scheduled;
    QueryOptions options;
    SimTime submit_time = 0;
    SimTime completion_time = 0;
    int root_fragment = -1;
    SubplanId root_instance;
    std::set<std::string> pending_acks;
    std::vector<std::string> failed_deploys;
    bool started = false;
    bool complete = false;
    std::vector<Address> instance_addresses;
    std::unique_ptr<Diagnoser> diagnoser;
    std::unique_ptr<Responder> responder;
    std::function<void(const QueryResult&)> on_complete;
    /// The partitioned fragment being monitored (-1 when none).
    int monitored_fragment = -1;
    /// True while this query holds an Activate() on the failure detector.
    bool detector_active = false;
    /// Terminated by the deadline watchdog (or a takeover decision).
    bool terminated = false;
    Status terminal_status;
    /// Root rows salvaged at termination (the executors are gone after).
    std::vector<Tuple> partial_rows;
    /// Pending deadline-watchdog event (kInvalidEventId when disarmed).
    EventId deadline_event = kInvalidEventId;
    /// Credit window Deploy derived from the memory budget (mirrored so
    /// the standby can report/recreate it without re-deriving).
    uint64_t derived_credit_window = 0;
    /// Counted in active_queries_ (cleared at the terminal transition).
    bool active_counted = false;
    /// Holds an admission slot (D16); released exactly once on the
    /// terminal transition.
    bool admission_live = false;
  };

  /// A submission waiting in the admission queue (D16): everything needed
  /// to launch it when a slot frees up.
  struct PendingSubmission {
    std::string sql;
    QueryOptions options;
    std::function<void(const QueryResult&)> on_complete;
    SimTime submit_time = 0;
    /// Deadline watchdog covering the queue wait (composes with D14: a
    /// query whose budget elapses while queued terminates without ever
    /// deploying).
    EventId queue_deadline_event = kInvalidEventId;
  };

  /// Terminal record of a query that never deployed: Rejected (queue
  /// full / shed) or Aborted (deadline elapsed in the queue).
  struct AdmissionTerminal {
    std::string tenant;
    Status status;
    SimTime submit_time = 0;
    SimTime decided_time = 0;
  };

  Gqes* GqesOnHost(HostId host) const;
  Status Deploy(QueryState* state);
  Status SetUpAdaptivity(QueryState* state);
  void OnDeployAck(const DeployAckPayload& ack);
  void OnFragmentComplete(const FragmentCompletePayload& complete);
  void OnDeadline(int query_id);
  /// Compiles and deploys one query. forced_id < 0 allocates a fresh id
  /// (after compilation, so failed submissions never consume ids);
  /// admission launches pass their pre-assigned id. `watchdog_ms` arms the
  /// deadline watchdog (0: none; admission passes the remaining budget).
  Result<int> LaunchQuery(const std::string& sql, const QueryOptions& options,
                          std::function<void(const QueryResult&)> on_complete,
                          int forced_id, SimTime submit_time,
                          double watchdog_ms, bool admission_managed);
  // --- admission control (D16) ------------------------------------------
  Result<int> SubmitWithAdmission(
      const std::string& sql, const QueryOptions& options,
      std::function<void(const QueryResult&)> on_complete);
  /// Launches queued submissions while slots and per-tenant caps allow.
  void DrainAdmissionQueue();
  /// Deadline watchdog of a query still waiting in the admission queue.
  void OnQueuedDeadline(int query_id);
  /// Finalizes a rejection: terminal Rejected record + mirror entry.
  void RecordRejected(int query_id, const std::string& tenant,
                      RejectReason reason, SimTime submit_time);
  /// Terminal record for a queued query that died before deploying.
  void RecordQueuedTerminal(int query_id, const PendingSubmission& pending,
                            Status status);
  /// Releases the admission slot of a finished query exactly once and
  /// admits queued successors.
  void FinishAdmission(QueryState* state, bool completed);
  /// One shed round: drop the heaviest tenant's newest queued entry, or
  /// terminate its youngest running query.
  void ShedHeaviestTenant();
  void MarkInactive(QueryState* state);
  QueryResult BuildResult(const QueryState& state) const;
  FragmentExecutor* FindInstance(const SubplanId& id) const;
  /// Releases a query's executors on every node.
  void ReleaseOnAllNodes(int query_id);
  /// Appends to the mirror log and ships the entry to the standby.
  /// No-op unless mirroring is enabled.
  void Mirror(MirrorEntry entry);
  /// Mirrors a kEpochBump when the detector's watch epoch moved since the
  /// last mirrored value.
  void MirrorDetectorEpoch();

  GridNode* node_;
  Network* network_;
  Catalog* catalog_;
  ResourceRegistry* registry_;
  std::vector<Gqes*> gqes_;
  /// Ordered by query id: ReportNodeFailure walks every running query, and
  /// its recovery rounds must fire in a deterministic order (replay
  /// determinism is a tested invariant of the chaos harness).
  std::map<int, QueryState> queries_;
  HeartbeatMonitor* detector_ = nullptr;
  std::set<HostId> reported_failures_;
  int next_query_id_ = 1;
  // --- admission control (D16) ------------------------------------------
  std::unique_ptr<AdmissionController> admission_;
  /// Queued submissions by id (the controller holds the FIFO order).
  std::map<int, PendingSubmission> pending_admissions_;
  /// Queries that reached a terminal state without ever deploying.
  std::map<int, AdmissionTerminal> admission_terminal_;
  /// Registered queries not yet complete/terminated (satellite backstop).
  size_t active_queries_ = 0;
  size_t max_active_queries_ = 1'000'000;
  // --- coordinator failover (D14) ---------------------------------------
  bool mirroring_ = false;
  Address standby_;
  std::unique_ptr<MirrorLog> mirror_log_;
  uint64_t last_mirrored_epoch_ = 0;
  uint64_t coordinator_epoch_ = 0;
};

}  // namespace gqp

#endif  // GRIDQP_DQP_GDQS_H_
