// Runtime physical operators. Fragments run a push-based chain one
// TupleBatch at a time (DESIGN.md §D13): the OperatorDriver hands each
// batch to ops[0] and every operator's output batch to the next; each
// operator does its real work (predicates, hash tables, web-service
// computations) and charges its per-row virtual CPU cost to the
// ExecContext. The survivors of the last operator are staged for the
// exchange producer (or collected as the query result).
//
// Stateful operators implement PurgeBuckets() so retrospective adaptation
// can drop (and later rebuild elsewhere) the state of moved partitions.

#ifndef GRIDQP_EXEC_OPERATORS_H_
#define GRIDQP_EXEC_OPERATORS_H_

#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "exec/flat_join_table.h"
#include "expr/expression.h"
#include "plan/physical_plan.h"
#include "storage/table.h"
#include "storage/tuple_batch.h"

namespace gqp {

/// Execution context of one chain step: cost charges, per-row retention,
/// staging area for chain outputs.
struct ExecContext {
  /// (operation tag, base cost ms) parts of the current batch, one per
  /// charged row per operator, in the order the driver expands them (each
  /// input row, then depth first through every row derived from it); the
  /// driver turns them into one composite node work item. Tags are
  /// interned views (InternString): charging is allocation-free on the
  /// hot path, and the views stay valid for the lifetime of any node work
  /// item they are copied into.
  std::vector<std::pair<std::string_view, double>> charges;
  /// The per-row (tag, unit cost) of each ChargeN call, in chain order.
  /// The driver expands them into `charges`, so a batch work item sums
  /// exactly the parts its rows cost one at a time.
  std::vector<std::pair<std::string_view, double>> row_charges;
  /// Tuples emitted by the chain for the current batch.
  std::vector<Tuple> out;
  /// out_origin[i] is the input-batch row index `out[i]` derives from
  /// (parallel to `out`). Survives the egress clearing `out` so the
  /// executor can map delivered output seqs back to the input tuples
  /// awaiting acknowledgment.
  std::vector<uint32_t> out_origin;
  /// row_retained[i] != 0 when input-batch row i was absorbed into
  /// operator state and must not be acknowledged upstream yet (indexed by
  /// origin, sized by ResetForBatch).
  std::vector<unsigned char> row_retained;
  /// Scalar function implementations for filter/project expressions.
  const FunctionRegistry* functions = &FunctionRegistry::Builtins();
  /// Shared predicate-mask scratch for batch filters (capacity reuse).
  std::vector<unsigned char> mask;

  /// Each of n rows costs unit_ms. No-op for an empty batch (zero rows
  /// cost nothing).
  void ChargeN(std::string_view tag, double unit_ms, uint64_t n) {
    if (n == 0) return;
    row_charges.emplace_back(tag, unit_ms);
  }
  void ResetForBatch(size_t rows) {
    charges.clear();
    row_charges.clear();
    out.clear();
    out_origin.clear();
    row_retained.assign(rows, 0);
  }
};

/// \brief Base class for chain operators.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual Status Open(ExecContext* ctx);

  /// Consumes the rows of `in` (which may be left moved-from) arriving on
  /// input `port` (0 for single-input operators; hash join: 0 = build,
  /// 1 = probe) and appends this operator's outputs to `out`. Each row
  /// carries the logical partition the upstream exchange assigned it (-1
  /// when not partitioned). Operators never call their successor — the
  /// driver walks the chain, handing each operator's output batch to the
  /// next. Outputs are appended with TupleBatch::AppendDerived in
  /// input-row order; rows absorbed into operator state mark
  /// ctx->row_retained[origin]. A step charges every input row once,
  /// through a single ctx->ChargeN(tag, unit, in->size()).
  virtual Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                              ExecContext* ctx) = 0;

  /// All producers of `port` reached end-of-stream and the queue drained.
  virtual Status FinishPort(int port, ExecContext* ctx);

  /// The whole fragment input is complete: appends any buffered output
  /// rows to `out` (the driver runs them through the operators after this
  /// one). Default: nothing buffered.
  virtual Status Finish(TupleBatch* out, ExecContext* ctx);

  /// Drops operator state belonging to the given partitions (retrospective
  /// adaptation). Default: no state, no-op.
  virtual void PurgeBuckets(const std::vector<int>& buckets);
};

/// Predicate filter.
class FilterOperator : public PhysicalOperator {
 public:
  explicit FilterOperator(const PhysOpDesc& desc);
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

 private:
  ExprPtr predicate_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
};

/// Expression projection.
class ProjectOperator : public PhysicalOperator {
 public:
  explicit ProjectOperator(const PhysOpDesc& desc);
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

 private:
  std::vector<ExprPtr> exprs_;
  SchemaPtr out_schema_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
};

/// Web-service operation call (the paper's operation_call operator). The
/// registered scalar function is genuinely evaluated; the per-call cost is
/// the perturbation target of the Q1 experiments.
class OperationCallOperator : public PhysicalOperator {
 public:
  explicit OperationCallOperator(const PhysOpDesc& desc);
  /// One registry lookup per batch, reused for every row.
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

 private:
  std::string ws_name_;
  size_t arg_col_;
  SchemaPtr out_schema_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
};

/// Partitioned hash join (stateful). Build state is bucketed by the
/// exchange's logical partition so moved partitions can be purged and
/// recreated elsewhere.
class HashJoinOperator : public PhysicalOperator {
 public:
  explicit HashJoinOperator(const PhysOpDesc& desc);

  /// Build: inserts the whole batch, marking every row retained. Probe:
  /// hashes the key column up front, prefetches the bucket tables, then
  /// probes in a tight loop.
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;
  void PurgeBuckets(const std::vector<int>& buckets) override;

  /// Number of build tuples currently held in state.
  size_t StateSize() const;
  /// Value-identical build tuples inserted while an equal tuple was
  /// already in state — an invariant violation under state moves (unless
  /// the input itself has duplicate rows).
  size_t duplicate_build_inserts() const { return duplicate_build_inserts_; }
  /// Build tuples held for one bucket (tests/inspection).
  size_t StateSizeForBucket(int bucket) const;

 private:
  /// Lazily creates bucket `bucket`'s table, pre-sized from the
  /// optimizer's build-side estimate.
  FlatJoinTable& TableForBucket(size_t bucket);

  size_t build_key_;
  size_t probe_key_;
  SchemaPtr out_schema_;
  double probe_cost_ms_;
  double build_cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
  /// Per-bucket pre-size hint: estimated build rows / logical buckets.
  size_t bucket_reserve_hint_;
  // Build state, one flat table per logical partition (DESIGN.md
  // "Performance engineering"); index = bucket id, grown on demand.
  std::vector<FlatJoinTable> state_;
  /// Per-batch key-hash scratch (capacity reused across batches).
  std::vector<uint64_t> hash_scratch_;
  /// Per-batch probe candidate-slot scratch (capacity reused across
  /// batches).
  std::vector<uint32_t> cand_scratch_;
  /// Per-batch probe chain-head scratch (capacity reused across batches).
  std::vector<uint32_t> head_scratch_;
  /// Build rows of the current batch per bucket, for one-shot table
  /// pre-sizing; all zero between batches.
  std::vector<size_t> batch_bucket_rows_;
  size_t duplicate_build_inserts_ = 0;
};

/// Partitioned hash aggregation (stateful). Partial aggregates are
/// bucketed by the exchange's logical partition: moved partitions are
/// purged here and rebuilt at their new owner from the recovery-logged
/// input tuples, exactly like hash-join state.
class HashAggregateOperator : public PhysicalOperator {
 public:
  explicit HashAggregateOperator(const PhysOpDesc& desc);

  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;
  /// Appends one output row per group and drops the groups.
  Status Finish(TupleBatch* out, ExecContext* ctx) override;
  void PurgeBuckets(const std::vector<int>& buckets) override;

  /// Number of groups currently held.
  size_t GroupCount() const;

 private:
  struct Accumulator {
    int64_t count = 0;
    double sum = 0.0;
    Value min;
    Value max;
    bool has_value = false;
  };
  struct GroupState {
    std::vector<Value> group_values;
    std::vector<Accumulator> accums;
  };
  // bucket -> encoded group key -> state. Ordered maps: Finish() emits in
  // traversal order, and output order must not depend on hash-table
  // layout (replay determinism, DESIGN.md "Testing & determinism
  // contract").
  using BucketGroups = std::map<std::string, GroupState>;

  Status Accumulate(GroupState* group, const Tuple& tuple, ExecContext* ctx);
  Value Finalize(const AggSpec& spec, const Accumulator& acc) const;

  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  SchemaPtr out_schema_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
  std::map<int, BucketGroups> state_;
};

/// Result sink at the coordinator.
class CollectOperator : public PhysicalOperator {
 public:
  explicit CollectOperator(const PhysOpDesc& desc);
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

  const std::vector<Tuple>& results() const { return results_; }
  std::vector<Tuple> TakeResults() { return std::move(results_); }

 private:
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
  std::vector<Tuple> results_;
};

/// Instantiates the runtime operator for a descriptor. kScan descriptors
/// are rejected (scans are driven directly by the FragmentExecutor).
Result<std::unique_ptr<PhysicalOperator>> MakeOperator(
    const PhysOpDesc& desc);

}  // namespace gqp

#endif  // GRIDQP_EXEC_OPERATORS_H_
