// Runtime physical operators. Fragments run a push-based chain:
// the FragmentExecutor feeds tuples into ops[0]; each operator does its
// real work (predicates, hash tables, web-service computations), charges
// its virtual CPU cost to the ExecContext, and emits to the next operator;
// the chain's sink stages output tuples for the exchange producer (or the
// result collector).
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

/// Cumulative record of every cost charged through an ExecContext, kept as
/// integer counts per distinct (tag, unit cost) pair. Because the counts
/// are exact and the entry order depends only on the order of first
/// encounter (identical in scalar and vectorized mode: the chain order),
/// TotalMs() is computed by the *same* sequence of floating-point
/// operations regardless of batch size — so scalar and vectorized runs of
/// the same input agree bit-for-bit, with none of the drift that
/// re-associating per-tuple additions into per-batch multiplies would
/// introduce (DESIGN.md §D13).
struct ChargeLedger {
  struct Entry {
    std::string_view tag;
    double unit_ms;
    uint64_t count;
  };
  std::vector<Entry> entries;

  void Add(std::string_view tag, double unit_ms, uint64_t n) {
    // Charges repeat the same (tag, unit) in runs; scan from the back so
    // the common case is a first-probe hit.
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (it->unit_ms == unit_ms && it->tag == tag) {
        it->count += n;
        return;
      }
    }
    entries.push_back(Entry{tag, unit_ms, n});
  }
  double TotalMs() const {
    double total = 0.0;
    for (const Entry& e : entries) {
      total += e.unit_ms * static_cast<double>(e.count);
    }
    return total;
  }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (const Entry& e : entries) total += e.count;
    return total;
  }
  void Clear() { entries.clear(); }
};

/// Per-tuple execution context: cost charges, retention flag, staging area
/// for chain outputs.
struct ExecContext {
  /// (operation tag, base cost ms) pairs accumulated while processing the
  /// current tuple (or batch); the driver turns them into one composite
  /// node work item. Tags are interned views (InternString): charging is
  /// allocation-free on the hot path, and the views stay valid for the
  /// lifetime of any node work item they are copied into.
  std::vector<std::pair<std::string_view, double>> charges;
  /// Batch mode: the per-row (tag, unit cost) of each ChargeN call, in
  /// chain order. The driver expands them into `charges` one part per row
  /// in the order the scalar path would have charged them, so a batch
  /// work item sums exactly the parts its rows cost one at a time.
  std::vector<std::pair<std::string_view, double>> row_charges;
  /// Set by stateful operators when the input tuple was absorbed into
  /// operator state (it must not be acknowledged upstream yet). Scalar
  /// mode only; batch mode records per-row retention in `row_retained`.
  bool retained = false;
  /// Tuples emitted by the chain for the current input tuple/batch.
  std::vector<Tuple> out;
  /// Batch mode: out_origin[i] is the input-batch row index `out[i]`
  /// derives from (parallel to `out`; empty in scalar mode). Survives the
  /// egress clearing `out` so the executor can map delivered output seqs
  /// back to the input tuples awaiting acknowledgment.
  std::vector<uint32_t> out_origin;
  /// Batch mode: row_retained[i] != 0 when input-batch row i was absorbed
  /// into operator state (indexed by origin, sized by ResetForBatch).
  std::vector<unsigned char> row_retained;
  /// Cumulative (whole-run) charge counts; never reset between tuples.
  /// The canonical total cost both execution modes are compared on.
  ChargeLedger ledger;
  /// Scalar function implementations for filter/project expressions.
  const FunctionRegistry* functions = &FunctionRegistry::Builtins();
  /// Shared predicate-mask scratch for batch filters (capacity reuse).
  std::vector<unsigned char> mask;

  void Charge(std::string_view tag, double ms) {
    charges.emplace_back(tag, ms);
    ledger.Add(tag, ms, 1);
  }
  /// Batch-mode charge: each of n rows costs unit_ms. No-op for an empty
  /// batch (scalar mode charges nothing for zero tuples).
  void ChargeN(std::string_view tag, double unit_ms, uint64_t n) {
    if (n == 0) return;
    row_charges.emplace_back(tag, unit_ms);
    ledger.Add(tag, unit_ms, n);
  }
  void ResetForTuple() {
    charges.clear();
    row_charges.clear();
    retained = false;
    out.clear();
    out_origin.clear();
  }
  void ResetForBatch(size_t rows) {
    ResetForTuple();
    row_retained.assign(rows, 0);
  }
  double TotalBaseCost() const {
    double total = 0.0;
    for (const auto& [tag, ms] : charges) total += ms;
    return total;
  }
};

/// \brief Base class for chain operators.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual Status Open(ExecContext* ctx);

  /// Processes one tuple arriving on input `port` (0 for single-input
  /// operators; hash join: 0 = build, 1 = probe). `bucket` is the logical
  /// partition assigned by the upstream exchange (-1 when not
  /// partitioned).
  virtual Status Process(int port, const Tuple& tuple, int bucket,
                         ExecContext* ctx) = 0;

  /// Vectorized step: consumes the rows of `in` (which may be left
  /// moved-from) and appends this operator's outputs to `out`. Unlike
  /// Process, a batch step never chains into next_ — the driver walks the
  /// chain, handing each operator's output batch to the next (run to
  /// completion over the batch). Outputs are appended with
  /// TupleBatch::AppendDerived in input-row order; rows absorbed into
  /// operator state mark ctx->row_retained[origin] instead of
  /// ctx->retained. A step charges every input row once, through a single
  /// ctx->ChargeN(tag, unit, in->size()) — the unit Process charges per
  /// tuple.
  virtual Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                              ExecContext* ctx) = 0;

  /// All producers of `port` reached end-of-stream and the queue drained.
  virtual Status FinishPort(int port, ExecContext* ctx);

  /// The whole fragment input is complete; flush any buffered output.
  virtual Status Finish(ExecContext* ctx);

  /// Drops operator state belonging to the given partitions (retrospective
  /// adaptation). Default: no state, no-op.
  virtual void PurgeBuckets(const std::vector<int>& buckets);

  void set_next(PhysicalOperator* next) { next_ = next; }
  PhysicalOperator* next() const { return next_; }

 protected:
  /// Forwards a tuple to the next operator (port 0) or stages it in the
  /// context when this is the chain tail.
  Status Emit(const Tuple& tuple, ExecContext* ctx);

  PhysicalOperator* next_ = nullptr;
};

/// Predicate filter.
class FilterOperator : public PhysicalOperator {
 public:
  explicit FilterOperator(const PhysOpDesc& desc);
  Status Process(int port, const Tuple& tuple, int bucket,
                 ExecContext* ctx) override;
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
  Status Process(int port, const Tuple& tuple, int bucket,
                 ExecContext* ctx) override;
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
  Status Process(int port, const Tuple& tuple, int bucket,
                 ExecContext* ctx) override;
  /// The registry lookup (a std::function copy in scalar mode) is
  /// amortized: one Find per batch, reused for every row.
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

  Status Process(int port, const Tuple& tuple, int bucket,
                 ExecContext* ctx) override;
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
  FlatJoinTable& TableForBucket(int bucket);

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
  /// Per-batch build-row count per bucket (capacity reused across
  /// batches) for one-shot table pre-sizing.
  std::vector<size_t> batch_bucket_counts_;
  size_t duplicate_build_inserts_ = 0;
};

/// Partitioned hash aggregation (stateful). Partial aggregates are
/// bucketed by the exchange's logical partition: moved partitions are
/// purged here and rebuilt at their new owner from the recovery-logged
/// input tuples, exactly like hash-join state.
class HashAggregateOperator : public PhysicalOperator {
 public:
  explicit HashAggregateOperator(const PhysOpDesc& desc);

  Status Process(int port, const Tuple& tuple, int bucket,
                 ExecContext* ctx) override;
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;
  /// Emits one output tuple per group, then finishes downstream.
  Status Finish(ExecContext* ctx) override;
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
  Status Process(int port, const Tuple& tuple, int bucket,
                 ExecContext* ctx) override;
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
