// FragmentExecutor: one running instance of a plan fragment on a grid
// node, exposed as a GridService endpoint. It is the paper's query engine
// component of a (A)GQES, reduced to a composition root (DESIGN.md §D12)
// over five cohesive components:
//
//  - IngressManager: per-producer EOS tracking + epoch fencing;
//  - PortQueueManager: port queues, credit accounting, pressure episodes;
//  - OperatorDriver: operator-chain execution + cost charging + M1 loop;
//  - StateManager: processed/retained inputs, cascading acknowledgments,
//    the state-move/purge protocol;
//  - EgressAdapter: the ExchangeProducer and its monitoring wiring.
//
// The executor itself keeps only protocol orchestration: message
// dispatch, the two-phase tuple driver, the completion handshake, and
// the exact event ordering the golden traces pin down.

#ifndef GRIDQP_EXEC_FRAGMENT_EXECUTOR_H_
#define GRIDQP_EXEC_FRAGMENT_EXECUTOR_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/egress.h"
#include "exec/ingress.h"
#include "exec/instance_plan.h"
#include "exec/operator_driver.h"
#include "exec/port_queue_manager.h"
#include "exec/state_manager.h"
#include "rpc/service.h"
#include "storage/table.h"

namespace gqp {

/// \brief A deployed fragment instance.
class FragmentExecutor : public GridService {
 public:
  /// `scan_table` resolves the scan target on this host (null for
  /// non-scan fragments). The executor registers its endpoint under
  /// `plan.id.ToString()`.
  FragmentExecutor(MessageBus* bus, GridNode* node, Network* network,
                   FragmentInstancePlan plan, TablePtr scan_table);
  ~FragmentExecutor() override;

  /// Validates the plan, instantiates the components and registers the
  /// endpoint.
  Status Prepare();

  /// Begins execution (scan fragments start pumping; consumers wait for
  /// data). Idempotent.
  Status Begin();

  bool finished() const { return finished_; }
  const FragmentStats& stats() const { return stats_; }
  const ExchangeProducer* producer() const {
    return egress_ != nullptr ? egress_->producer() : nullptr;
  }
  const FragmentInstancePlan& plan() const { return plan_; }
  GridNode* node() const { return node_; }

  /// Results collected by a root fragment (empty otherwise).
  const std::vector<Tuple>& Results() const {
    static const std::vector<Tuple> kEmpty;
    return driver_ != nullptr ? driver_->Results() : kEmpty;
  }

  /// Introspection for tests: buckets currently awaiting build-state
  /// restoration / frozen after a local state purge.
  size_t awaiting_restore_count() const {
    return state_ != nullptr ? state_->awaiting_restore_count() : 0;
  }
  size_t frozen_lost_count() const {
    return state_ != nullptr ? state_->frozen_count() : 0;
  }
  /// Queued + parked tuples on one input port.
  size_t QueuedTuples(int port) const {
    return queues_ != nullptr ? queues_->QueuedTuples(port) : 0;
  }
  /// Seqs processed on a port, per producer key (tests verify that state
  /// moves never process a tuple at two consumers).
  std::unordered_map<std::string, std::vector<uint64_t>> ProcessedSeqs(
      int port) const {
    return state_ != nullptr
               ? state_->ProcessedSeqs(port)
               : std::unordered_map<std::string, std::vector<uint64_t>>{};
  }
  /// The fragment's hash join, if any (tests inspect its state).
  const HashJoinOperator* FindHashJoin() const {
    return driver_ != nullptr ? driver_->FindHashJoin() : nullptr;
  }

  /// First execution error encountered (simulation keeps running so that
  /// tests can inspect state; callers check this after completion).
  const Status& execution_status() const { return exec_status_; }

  /// Coordinator-epoch fence of this instance (D14). The GQES advances it
  /// when a new coordinator announces itself; the components drop
  /// commands stamped with older epochs.
  void AdvanceCoordinatorEpoch(uint64_t epoch) { epoch_guard_.Advance(epoch); }
  const CoordinatorEpochGuard& epoch_guard() const { return epoch_guard_; }

  /// Turns the instance inert after a coordinator-side release (D14):
  /// every further message is dropped and no new tuple work starts. The
  /// object must stay alive — node work items already in flight complete
  /// into it — so the owning GQES parks it instead of destroying it.
  void Abandon() { abandoned_ = true; }
  bool abandoned() const { return abandoned_; }

  /// One-line dump of the execution state (ports, EOS tracking, open
  /// state-move rounds, producer log) for stuck-query diagnostics.
  std::string DebugString() const;

 protected:
  void HandleMessage(const Message& msg) override;

 private:
  // --- message handlers -------------------------------------------------
  void OnTupleBatch(const Message& msg, const TupleBatchPayload& batch);
  void OnEos(const EosPayload& eos);
  void OnProducerLost(const ProducerLostPayload& lost);
  void OnCompletionGrant();
  /// Routes a (possibly deferred) StateMoveRequest/RestoreComplete:
  /// fences stale senders, registers the link, applies via StateManager.
  void DispatchStateMove(const Message& msg);

  // --- tuple driver ------------------------------------------------------
  // Two-phase batch driver (DESIGN.md §D13): run a batch of up to
  // vector_batch_size tuples through the chain, submit one composite work
  // item for it, and finish the batch's bookkeeping on completion.
  void MaybeProcess();
  void ProcessScanBatch();
  void ProcessQueuedBatch(int port);
  /// Flushes pending credit grants and starts idle-wait tracking.
  void GoIdle();
  /// Offers staged outputs to the producer; returns their seqs.
  std::vector<uint64_t> DeliverOutputs(ExecContext* ctx);
  /// Registers the producer link with queues + state (identical
  /// registration order keeps producer-map iteration aligned with the
  /// pre-split executor).
  void TrackProducer(int port, const SubplanId& producer,
                     const Address& address, int exchange_id);
  /// True while a probe tuple of `bucket` must stay parked.
  bool BucketBlocked(int bucket) const;
  /// Releases retained inputs once finished and the recovery log drained.
  void MaybeAckRetained();

  ExchangeProducer* mutable_producer() {
    return egress_ != nullptr ? egress_->producer() : nullptr;
  }

  // --- completion ---------------------------------------------------------
  bool LocallyDrained() const;
  void CheckCompletion();
  void FinishFragment();

  void Fail(const Status& status);

  GridNode* node_;
  Network* network_;
  FragmentInstancePlan plan_;
  TablePtr scan_table_;

  std::unique_ptr<OperatorDriver> driver_;
  std::unique_ptr<IngressManager> ingress_;
  std::unique_ptr<PortQueueManager> queues_;
  std::unique_ptr<StateManager> state_;
  std::unique_ptr<EgressAdapter> egress_;

  /// StateMoveRequests arriving while a tuple is mid-processing are
  /// deferred until the work item completes; otherwise the in-flight
  /// tuple would be missing from both the purge and the processed-set
  /// reply, and the producer would resend it (duplicating results).
  std::vector<Message> deferred_state_moves_;

  /// The batch in flight (one at a time, guarded by processing_): the
  /// popped queue entries, their chain input, and per-row output seqs
  /// scratch. Members so their capacity is reused across batches.
  std::vector<QueuedTuple> popped_;
  TupleBatch in_batch_;
  std::vector<uint64_t> row_seqs_;

  bool began_ = false;
  bool processing_ = false;
  /// True while deferred control messages are being dispatched; keeps the
  /// tuple driver quiescent so purges/replies never race with new work.
  bool dispatching_control_ = false;
  bool finished_ = false;
  bool completion_offered_ = false;
  /// Released by the coordinator (D14); inert but kept alive by the GQES.
  bool abandoned_ = false;
  size_t scan_row_ = 0;
  SimTime idle_since_ = 0.0;
  bool idle_tracking_ = false;

  CoordinatorEpochGuard epoch_guard_;
  FragmentStats stats_;
  Status exec_status_;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_FRAGMENT_EXECUTOR_H_
