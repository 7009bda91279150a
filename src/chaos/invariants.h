// System-invariant checks for chaos runs. Instead of golden outputs, a
// chaos run is judged by properties that must hold under ANY perturbation
// and failure schedule:
//
//   (a) result correctness — the result multiset equals the oracle answer
//       computed directly from the datasets; when machines crashed
//       mid-query, at-least-once semantics apply (nothing lost, duplicate
//       rows bounded by the replayed-tuple count);
//   (b) tuple conservation — producer routing, recovery-log and
//       consumer-receive counters balance across every exchange, no
//       recovery log is left non-empty, and no tuple is processed by two
//       surviving consumers;
//   (c) replay determinism — checked by the runner/tests comparing event
//       traces of double runs (see trace.h);
//   (d) termination — the simulation drains and every submitted query
//       reaches exactly one terminal state (the trichotomy Complete /
//       Aborted / Rejected); only admission control may reject or shed,
//       so without it every query completes;
//   (e) detection latency — every injected crash is confirmed by the
//       heartbeat detector within its configured worst-case bound,
//       counted per watch epoch (unless no epoch after the crash lasted
//       the full budget or the last-survivor guard applied);
//   (f) bounded memory (flow-control runs) — every queue, producer buffer
//       and recovery log stays inside its configured bound;
//   (g) monitoring attribution (adaptive runs without loss, partitions,
//       crashes or takeover) — every raw M1/M2 event counts toward the
//       query that emitted it, and the per-query slices sum to the MEDs'
//       totals.
//
// Under admission control the runner also reconciles the controller's
// ledger with what the clients saw.
//
// Every violation string is prefixed with the invariant tag so sweeps can
// aggregate by class.

#ifndef GRIDQP_CHAOS_INVARIANTS_H_
#define GRIDQP_CHAOS_INVARIANTS_H_

#include <set>
#include <string>
#include <vector>

#include "chaos/scenario.h"
#include "workload/grid_setup.h"

namespace gqp {
namespace chaos {

/// Oracle result rows (rendered with Tuple::ToString) computed directly
/// from the datasets, independent of the pipeline: Q1 applies the web
/// service function to every sequence; Q2 evaluates the join.
std::multiset<std::string> OracleRows(QueryKind query, const Table& sequences,
                                      const Table& interactions);

/// Upper bound on result rows a single replayed input tuple can
/// regenerate: the duplicate-row budget per resent tuple under
/// at-least-once recovery. Q1 maps one input to one output; Q2 is bounded
/// by the heaviest join key of the build side.
size_t MaxOutputFanout(QueryKind query, const Table& sequences,
                       const Table& interactions);

/// Invariant (a). `resent_tuples` is the producers' total replay count;
/// with no failures injected the result must equal the oracle exactly
/// (redistribution rounds must never duplicate or lose tuples).
void CheckResults(const std::multiset<std::string>& oracle,
                  const std::vector<Tuple>& actual, bool failures_injected,
                  uint64_t resent_tuples, size_t max_fanout,
                  std::vector<std::string>* violations);

/// Invariant (a) for the scan-aggregate query (kScanAgg), whose outputs
/// are group rows rather than per-input rows. The group SET must always
/// equal the oracle's; with no failures/replays every count matches
/// exactly, and under at-least-once recovery counts may only inflate, by
/// at most `resent_tuples` in total.
void CheckAggregateResults(const Table& interactions,
                           const std::vector<Tuple>& actual,
                           bool failures_injected, uint64_t resent_tuples,
                           std::vector<std::string>* violations);

/// Invariant (b), checked over every fragment instance of `query_id` in
/// the grid after the simulation drained. `reported_failures` are the
/// hosts whose failure the coordinator acted on
/// (Gdqs::reported_failures()): an instance is protocol-live only if its
/// node is both actually alive and unreported — a falsely-suspected host
/// is alive but fenced, so its counters are exempt like a dead one's.
/// Under message loss a dead producer's counted sends may never arrive
/// (retransmission abandons when the host is down), so consumer delivery
/// is checked as a band: alive producers' sends are a floor, all counted
/// sends a ceiling; the check stays exact when the two coincide.
void CheckConservation(GridSetup* grid, int query_id,
                       const std::set<HostId>& reported_failures,
                       std::vector<std::string>* violations);

/// Invariant (e): every injected crash is confirmed within
/// monitor->MaxDetectionLatencyMs(). The detector watches in epochs (one
/// per busy period of the coordinator) and confirms nothing in between,
/// so the budget starts at max(crash, epoch start) and restarts in each
/// epoch; the first confirmation at or after the crash must land within
/// the first epoch that lasts the full budget. Excused when no epoch
/// after the crash lasts that long or the last-survivor guard
/// deliberately withheld the confirmation.
void CheckDetection(const HeartbeatMonitor* monitor,
                    const ChaosScenario& scenario,
                    std::vector<std::string>* violations);

/// Invariant (f), flow-control runs only: every queue, producer buffer and
/// recovery log stayed inside its configured bound. Per producer link, the
/// peak unacknowledged bytes may exceed the credit window W only by the
/// processing overshoot of one input tuple (`max_fanout` outputs of up to
/// `max_tuple_wire_bytes` each) plus the cumulative recall traffic of
/// recovery rounds, which deliberately bypasses the gate (DESIGN.md §D11)
/// and can have several rounds' bursts in flight at once; a consumer port
/// holds at most that much per live producer. Recovery-log bytes get a
/// generous dataset-derived sanity cap (the log is bounded by acks, not
/// credits).
void CheckBoundedMemory(GridSetup* grid, int query_id,
                        size_t max_tuple_wire_bytes, size_t max_fanout,
                        uint64_t dataset_wire_bytes,
                        std::vector<std::string>* violations);

/// Invariant (g) for one completed query: the MEDs are shared by every
/// live query, yet `stats.raw_m1`/`raw_m2`, the slice the coordinator
/// collected for `query_id`, must equal the m1_sent/m2_sent sums of that
/// query's own executors. Holds only when every sent event reached its
/// MED: no loss, no partition, no crash and no takeover.
void CheckMonitoring(GridSetup* grid, int query_id,
                     const QueryStatsSnapshot& stats,
                     std::vector<std::string>* violations);

/// Invariant (g), site-wide: the slices of every query that ran, summed
/// (`raw_m1`, `raw_m2`), equal the MEDs' total raw event counts.
void CheckMonitoringTotals(GridSetup* grid, uint64_t raw_m1, uint64_t raw_m2,
                           std::vector<std::string>* violations);

}  // namespace chaos
}  // namespace gqp

#endif  // GRIDQP_CHAOS_INVARIANTS_H_
