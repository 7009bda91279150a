// Operator-chain driver of a fragment instance (DESIGN.md §D12): builds
// and owns the physical operator chain, runs batches of tuples through it
// with cost charging into the shared ExecContext (DESIGN.md §D13), and
// owns the M1 self-monitoring loop (cost/wait per tuple, selectivity)
// between emissions. Scheduling — when a batch runs, how its composite
// work item is submitted, what happens on completion — stays with the
// composition root (FragmentExecutor).

#ifndef GRIDQP_EXEC_OPERATOR_DRIVER_H_
#define GRIDQP_EXEC_OPERATOR_DRIVER_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "exec/instance_plan.h"
#include "exec/operators.h"
#include "grid/node.h"

namespace gqp {

class OperatorDriver {
 public:
  struct Hooks {
    /// Delivers an M1 monitoring event over the bus.
    std::function<Status(const Address&, PayloadPtr)> send_to;
    /// Reports a chain error (the executor records it and keeps running).
    std::function<void(const Status&)> fail;
  };

  OperatorDriver(GridNode* node, const FragmentInstancePlan* plan,
                 FragmentStats* stats, Hooks hooks);
  ~OperatorDriver();

  /// Instantiates and opens the chain (scan leaves skip the scan
  /// descriptor: the executor itself drives the table).
  Status BuildAndOpen();

  bool has_ops() const { return !ops_.empty(); }
  ExecContext* ctx() { return &ctx_; }

  /// Runs `n` scan rows starting at `start` through the chain as one
  /// batch, charging the scan cost per row first.
  Status RunScanBatch(const Table& table, size_t start, size_t n);
  /// Runs a popped batch of exchange tuples through the chain. `in` is
  /// consumed; per-row retention lands in ctx()->row_retained, outputs in
  /// ctx()->out with their input-row origin in ctx()->out_origin.
  ///
  /// Both batch runs leave in ctx()->charges one part per row per
  /// operator, in row order (each input row, then depth first through
  /// every row derived from it), so a batch costs bit-for-bit what its
  /// rows cost as batches of one.
  Status RunBatch(int port, TupleBatch* in);

  /// FinishPort on every operator for every port; errors go to `fail`.
  void FinishPorts(size_t num_ports);
  /// Resets the context and finishes every operator in chain order,
  /// running each one's flush rows through the operators after it; the
  /// survivors land in ctx()->out. The charges of this pass are not
  /// expanded (the caller submits no work item for it). Returns true when
  /// the chain exists (the caller delivers ctx()->out).
  bool FinishChain();

  void PurgeBuckets(const std::vector<int>& buckets);

  // --- M1 self-monitoring ----------------------------------------------
  /// Records the actual (perturbed) cost of one work item that covered
  /// `n` tuples, in both the fragment stats and the M1 accumulators (the
  /// M1 accumulators advance by the whole batch at once).
  void AccumulateBatchCost(double actual_ms, uint64_t n) {
    stats_->busy_ms += actual_ms;
    m1_cost_ms_ += actual_ms;
    m1_tuples_ += n;
  }
  /// Records an idle wait that ended when a tuple became runnable.
  void AccumulateWait(double wait_ms) {
    stats_->idle_wait_ms += wait_ms;
    m1_wait_ms_ += wait_ms;
  }
  struct M1Sample {
    double cost_per_tuple_ms = 0.0;
    double wait_per_tuple_ms = 0.0;
    double selectivity = 1.0;
  };
  /// Computes the due sample and resets the accumulators.
  M1Sample TakeM1(uint64_t tuples_processed, uint64_t tuples_emitted);
  /// Emits an M1 event to the MED when a sample is due (monitoring on,
  /// the fragment has an output, and m1_frequency tuples accumulated).
  void MaybeEmitM1(bool has_producer);

  // --- introspection ----------------------------------------------------
  /// Results collected by a root fragment (empty otherwise).
  const std::vector<Tuple>& Results() const;
  /// The chain's hash join, if any (tests inspect its state).
  const HashJoinOperator* FindHashJoin() const;

 private:
  GridNode* node_;
  const FragmentInstancePlan* plan_;
  const FragmentDesc* fragment_;
  FragmentStats* stats_;
  Hooks hooks_;
  /// Walks the batch through ops_[first..]; the survivors of the last
  /// operator move into ctx_.out / ctx_.out_origin.
  Status RunChainBatch(size_t first, int port, TupleBatch* in);

  /// One charging step of a batch run (the scan, then each operator): its
  /// input row count, each input row's parent among the previous step's
  /// input rows (empty: row i of the previous step, or no previous step),
  /// and its per-row charges in ctx_.row_charges.
  struct BatchStep {
    size_t rows = 0;
    std::vector<uint32_t> parents;
    size_t charges_begin = 0;
    size_t charges_end = 0;
  };
  void BeginStep(size_t rows, const std::vector<uint32_t>* parents);
  void EndStep() {
    steps_[num_steps_ - 1].charges_end = ctx_.row_charges.size();
  }
  /// Fills ctx_.charges from the recorded steps in row order.
  void ExpandBatchCharges();
  void ChargeRow(size_t step, size_t row);

  std::vector<std::unique_ptr<PhysicalOperator>> ops_;
  ExecContext ctx_;
  /// Ping-pong scratch batches for RunChainBatch (capacity reused).
  TupleBatch scratch_a_;
  TupleBatch scratch_b_;
  /// Staging of scan rows and finish-pass flush rows (capacity reused).
  TupleBatch stage_;
  /// Steps of the current batch run: the first num_steps_ entries (the
  /// rest is storage kept from earlier batches).
  std::vector<BatchStep> steps_;
  size_t num_steps_ = 0;
  /// Per step, the next row ChargeRow visits.
  std::vector<size_t> step_cursor_;
  /// Interned scan tag + base cost (scan leaves only).
  std::string_view scan_tag_;
  double scan_cost_ms_ = 0.0;

  // M1 accumulation since the last emission.
  uint64_t m1_tuples_ = 0;
  double m1_cost_ms_ = 0.0;
  double m1_wait_ms_ = 0.0;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_OPERATOR_DRIVER_H_
