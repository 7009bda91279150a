// Runtime configuration of the query engine shipped to every fragment
// instance at deployment. Paper defaults: one M1 notification per 10
// tuples, one M2 per buffer, checkpoints (= acknowledgment batches) every
// 25 tuples.

#ifndef GRIDQP_EXEC_EXEC_CONFIG_H_
#define GRIDQP_EXEC_EXEC_CONFIG_H_

#include <cstddef>

namespace gqp {

struct ExecConfig {
  /// Tuples per exchange buffer (one network message per buffer).
  size_t buffer_tuples = 50;
  /// Acknowledgment batch size (the checkpoint interval of the
  /// fault-tolerance protocol).
  size_t checkpoint_interval = 25;
  /// Generate one M1 raw notification per this many processed tuples;
  /// 0 disables M1.
  size_t m1_frequency = 10;
  /// Master switch for self-monitoring (M1 + M2 generation).
  bool monitoring_enabled = true;
  /// Producers keep recovery logs (required for retrospective response and
  /// part of the fault-tolerance infrastructure). Static GQESs run with
  /// this off.
  bool recovery_log_enabled = true;

  // --- batch execution (D13) --------------------------------------------
  /// The executor pops up to this many runnable tuples per step and runs
  /// them through the operator chain as one TupleBatch: one composite
  /// work item, one M1 accumulation. The default of 1 keeps the paper's
  /// per-tuple self-monitoring granularity and the pinned golden traces.
  size_t vector_batch_size = 1;

  // --- credit-based flow control (D11) ---------------------------------
  /// Master switch. Off by default: with flow control disabled the engine
  /// sends zero credit messages and performs zero credit bookkeeping, so
  /// pinned golden traces are unchanged.
  bool flow_control_enabled = false;
  /// Per-query memory budget. At deployment the coordinator divides this
  /// across all exchange links to derive `credit_window_bytes`; ignored
  /// when a window is set explicitly. 0 = unlimited.
  size_t memory_budget_bytes = 0;
  /// Per producer->consumer link credit window: the maximum bytes a
  /// producer may have outstanding (buffered, in flight or held in the
  /// consumer's queues) on one link. 0 = derive from the budget.
  size_t credit_window_bytes = 0;
  /// A consumer sends a CreditGrant once it has released at least this
  /// fraction of a link's window since the previous grant (batching keeps
  /// the control plane quiet).
  double credit_grant_fraction = 0.25;
  /// A consumer is "pressured" when the bytes it holds for a port exceed
  /// this fraction of the port's aggregate window.
  double pressure_fraction = 0.75;
  /// Sustained pressure (virtual ms) before a QueuePressure monitoring
  /// event is emitted.
  double pressure_threshold_ms = 10.0;

  // --- CPU cost model of the exchange machinery (virtual ms) -----------
  /// Serializing + initiating the send of one buffer.
  double exchange_send_cost_ms = 0.05;
  /// Routing one tuple through the distribution policy.
  double exchange_route_cost_ms = 0.001;
  /// Appending one tuple to the recovery log.
  double log_append_cost_ms = 0.008;
  /// Extracting + re-routing one logged tuple during retrospective
  /// redistribution (the paper's "log management" overhead).
  double log_extract_cost_ms = 0.150;
  /// Discarding one queued/state tuple at a consumer during a state move.
  double consumer_discard_cost_ms = 0.050;
  /// Enqueueing one received tuple at a consumer.
  double consumer_enqueue_cost_ms = 0.001;
  /// Generating one raw monitoring notification (self-monitoring operators
  /// are cheap, per the paper's ref [10]).
  double monitor_emit_cost_ms = 0.030;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_EXEC_CONFIG_H_
