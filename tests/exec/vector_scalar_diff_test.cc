// Scalar/vector differential harness (DESIGN.md §D13). Every operator is
// driven over randomized inputs in both execution modes — the scalar
// per-tuple Process chain and the batch-at-a-time ProcessBatch walk the
// driver performs — and the two runs must agree exactly:
//
//   * byte-identical result sets (rendered rows, in emission order),
//   * per-row identical retention decisions, and
//   * bit-identical total charged cost via the ChargeLedger (integer
//     counts per (tag, unit) pair; the totals are summed by the same
//     sequence of floating-point operations in both modes, so EXPECT_EQ
//     on the doubles is exact, not a tolerance check).
//
// Batch sizes cover the degenerate single-row batch, small primes that
// force ragged final batches, the configured default, and a batch wider
// than the whole input. Seeds are fixed: a red run is reproducible.

#include <algorithm>
#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operator_driver.h"
#include "exec/operators.h"
#include "grid/node.h"
#include "plan/cost_model.h"
#include "sim/simulator.h"

namespace gqp {
namespace {

constexpr size_t kBatchSizes[] = {1, 3, 7, 16, 64, 4096};

SchemaPtr SeqSchema() {
  return MakeSchema(
      {{"orf", DataType::kString}, {"sequence", DataType::kString}});
}

/// One input row of a differential stream: the port it arrives on (0
/// except for join probes) and the logical partition.
struct StreamRow {
  int port = 0;
  Tuple tuple;
  int bucket = -1;
};

/// Randomized protein-ish rows: a small ORF key space (join collisions,
/// aggregate groups) and short random sequences (entropy, length
/// predicates). Pure function of the seed.
std::vector<StreamRow> MakeSeqStream(uint64_t seed, size_t n, int port,
                                     int num_buckets) {
  std::mt19937_64 rng(seed);
  std::vector<StreamRow> rows;
  rows.reserve(n);
  const SchemaPtr schema = SeqSchema();
  for (size_t i = 0; i < n; ++i) {
    const std::string orf = "ORF" + std::to_string(rng() % 23);
    std::string sequence;
    const size_t len = 1 + rng() % 12;
    for (size_t j = 0; j < len; ++j) {
      sequence.push_back("acgt"[rng() % 4]);
    }
    StreamRow row;
    row.port = port;
    row.tuple = Tuple(schema, {Value(orf), Value(sequence)});
    row.bucket = num_buckets > 0 ? static_cast<int>(rng() % num_buckets) : -1;
    rows.push_back(std::move(row));
  }
  return rows;
}

using Chain = std::vector<std::unique_ptr<PhysicalOperator>>;

/// Everything a differential run observes: rendered outputs in emission
/// order, per-input retention decisions in input order, and the
/// cumulative charge ledger.
struct RunTrace {
  std::vector<std::string> outputs;
  std::vector<bool> retained;
  ChargeLedger ledger;
};

/// Reference semantics: the scalar per-tuple chain exactly as the
/// executor drives it (Process chained through set_next, then Finish).
RunTrace RunScalar(const Chain& ops, const std::vector<StreamRow>& rows,
                   bool finish) {
  for (size_t i = 0; i + 1 < ops.size(); ++i) {
    ops[i]->set_next(ops[i + 1].get());
  }
  ExecContext ctx;
  RunTrace trace;
  for (const StreamRow& row : rows) {
    ctx.ResetForTuple();
    EXPECT_TRUE(ops[0]->Process(row.port, row.tuple, row.bucket, &ctx).ok());
    trace.retained.push_back(ctx.retained);
    for (const Tuple& t : ctx.out) trace.outputs.push_back(t.ToString());
  }
  if (finish) {
    ctx.ResetForTuple();
    EXPECT_TRUE(ops[0]->Finish(&ctx).ok());
    for (const Tuple& t : ctx.out) trace.outputs.push_back(t.ToString());
  }
  trace.ledger = ctx.ledger;
  return trace;
}

/// Batch semantics: slices the stream into port-homogeneous batches of at
/// most `batch_size` rows (ragged final slice included) and walks the
/// chain the way OperatorDriver::RunChainBatch does — ping-ponging two
/// scratch batches, no Emit chaining.
RunTrace RunVectorized(const Chain& ops, const std::vector<StreamRow>& rows,
                       size_t batch_size, bool finish) {
  for (size_t i = 0; i + 1 < ops.size(); ++i) {
    ops[i]->set_next(ops[i + 1].get());
  }
  ExecContext ctx;
  RunTrace trace;
  size_t pos = 0;
  while (pos < rows.size()) {
    const int port = rows[pos].port;
    TupleBatch in;
    while (pos < rows.size() && in.size() < batch_size &&
           rows[pos].port == port) {
      in.Append(rows[pos].tuple, rows[pos].bucket,
                static_cast<uint32_t>(in.size()));
      ++pos;
    }
    const size_t batch_rows = in.size();
    ctx.ResetForBatch(batch_rows);
    TupleBatch scratch_a, scratch_b;
    TupleBatch* cur = &in;
    TupleBatch* next = &scratch_a;
    int step_port = port;
    for (const auto& op : ops) {
      next->Clear();
      EXPECT_TRUE(op->ProcessBatch(step_port, cur, next, &ctx).ok());
      TupleBatch* spent = cur == &in ? &scratch_b : cur;
      cur = next;
      next = spent;
      step_port = 0;
    }
    for (size_t i = 0; i < cur->size(); ++i) {
      trace.outputs.push_back(cur->tuple(i).ToString());
    }
    for (size_t i = 0; i < batch_rows; ++i) {
      trace.retained.push_back(ctx.row_retained[i] != 0);
    }
  }
  if (finish) {
    ctx.ResetForTuple();
    EXPECT_TRUE(ops[0]->Finish(&ctx).ok());
    for (const Tuple& t : ctx.out) trace.outputs.push_back(t.ToString());
  }
  trace.ledger = ctx.ledger;
  return trace;
}

void ExpectTracesEqual(const RunTrace& scalar, const RunTrace& vec,
                       uint64_t seed, size_t batch_size) {
  const std::string where =
      "seed=" + std::to_string(seed) + " batch=" + std::to_string(batch_size);
  ASSERT_EQ(scalar.outputs, vec.outputs) << where;
  ASSERT_EQ(scalar.retained, vec.retained) << where;
  ASSERT_EQ(scalar.ledger.entries.size(), vec.ledger.entries.size()) << where;
  for (size_t i = 0; i < scalar.ledger.entries.size(); ++i) {
    EXPECT_EQ(scalar.ledger.entries[i].tag, vec.ledger.entries[i].tag)
        << where;
    EXPECT_EQ(scalar.ledger.entries[i].unit_ms, vec.ledger.entries[i].unit_ms)
        << where;
    EXPECT_EQ(scalar.ledger.entries[i].count, vec.ledger.entries[i].count)
        << where;
  }
  // Bit-identical, not approximately equal: both totals are the same
  // float operations in the same order (DESIGN.md §D13).
  EXPECT_EQ(scalar.ledger.TotalMs(), vec.ledger.TotalMs()) << where;
  EXPECT_EQ(scalar.ledger.TotalCount(), vec.ledger.TotalCount()) << where;
}

// ---- Chain builders (fresh state per run: stateful operators cannot be
// shared between the scalar and vectorized executions) -------------------

Chain MakeFilterProjectOpcallChain(uint64_t seed) {
  // Vary the predicate threshold with the seed so selectivity ranges from
  // keep-almost-everything to drop-almost-everything.
  const int64_t min_len = 1 + static_cast<int64_t>(seed % 12);

  PhysOpDesc filter;
  filter.kind = PhysOpKind::kFilter;
  filter.predicate = Cmp(CompareOp::kGe, Call("LENGTH", {Col(1, "sequence")}),
                         Lit(Value(min_len)));
  filter.base_cost_ms = 0.1;
  filter.cost_tag = "op:filter";

  PhysOpDesc opcall;
  opcall.kind = PhysOpKind::kOperationCall;
  opcall.ws_name = "EntropyAnalyser";
  opcall.arg_col = 1;
  opcall.base_cost_ms = 0.25;
  opcall.cost_tag = CostModel::WsTag("EntropyAnalyser");
  opcall.out_schema = MakeSchema({{"orf", DataType::kString},
                                  {"sequence", DataType::kString},
                                  {"e", DataType::kDouble}});

  PhysOpDesc project;
  project.kind = PhysOpKind::kProject;
  project.exprs = {Col(0, "orf"), Call("LENGTH", {Col(1, "sequence")}),
                   Col(2, "e")};
  project.out_schema = MakeSchema({{"orf", DataType::kString},
                                   {"len", DataType::kInt64},
                                   {"e", DataType::kDouble}});
  project.base_cost_ms = 0.05;
  project.cost_tag = "op:project";

  Chain ops;
  ops.push_back(std::make_unique<FilterOperator>(filter));
  ops.push_back(std::make_unique<OperationCallOperator>(opcall));
  ops.push_back(std::make_unique<ProjectOperator>(project));
  return ops;
}

PhysOpDesc JoinDesc() {
  PhysOpDesc join;
  join.kind = PhysOpKind::kHashJoin;
  join.build_key = 0;
  join.probe_key = 0;
  join.base_cost_ms = 0.1;
  join.build_cost_ms = 0.05;
  join.cost_tag = "op:hash_join";
  join.out_schema = MakeSchema({{"orf", DataType::kString},
                                {"sequence", DataType::kString},
                                {"orf_p", DataType::kString},
                                {"sequence_p", DataType::kString}});
  return join;
}

Chain MakeJoinChain() {
  Chain ops;
  ops.push_back(std::make_unique<HashJoinOperator>(JoinDesc()));
  return ops;
}

Chain MakeAggregateChain() {
  PhysOpDesc agg;
  agg.kind = PhysOpKind::kHashAggregate;
  agg.group_exprs = {Col(0, "orf")};
  AggSpec count;
  count.kind = AggKind::kCount;
  count.name = "count(*)";
  AggSpec sum;
  sum.kind = AggKind::kSum;
  sum.arg = Call("LENGTH", {Col(1, "sequence")});
  sum.name = "sum(len)";
  sum.result_type = DataType::kInt64;
  AggSpec min;
  min.kind = AggKind::kMin;
  min.arg = Col(1, "sequence");
  min.name = "min(sequence)";
  min.result_type = DataType::kString;
  agg.aggs = {count, sum, min};
  agg.out_schema = MakeSchema({{"orf", DataType::kString},
                               {"count", DataType::kInt64},
                               {"sum", DataType::kInt64},
                               {"min", DataType::kString}});
  agg.base_cost_ms = 0.03;
  agg.cost_tag = "op:hash_aggregate";
  Chain ops;
  ops.push_back(std::make_unique<HashAggregateOperator>(agg));
  return ops;
}

Chain MakeCollectChain() {
  PhysOpDesc collect;
  collect.kind = PhysOpKind::kCollect;
  collect.base_cost_ms = 0.01;
  collect.cost_tag = "op:collect";
  Chain ops;
  ops.push_back(std::make_unique<CollectOperator>(collect));
  return ops;
}

// ---- Differential sweeps ------------------------------------------------

TEST(VectorScalarDiffTest, FilterOpcallProjectChain) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed, 40 + seed % 37, /*port=*/0, /*num_buckets=*/0);
    const RunTrace scalar =
        RunScalar(MakeFilterProjectOpcallChain(seed), rows, /*finish=*/false);
    for (size_t batch : kBatchSizes) {
      const RunTrace vec = RunVectorized(MakeFilterProjectOpcallChain(seed),
                                         rows, batch, /*finish=*/false);
      ExpectTracesEqual(scalar, vec, seed, batch);
    }
  }
}

TEST(VectorScalarDiffTest, JoinBuildThenProbe) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    // Build and probe share the 23-key ORF space, so probes see misses,
    // single matches and multi-match fan-out; 4 logical buckets exercise
    // the per-bucket tables. Equal keys must share a bucket (as the hash
    // exchange guarantees), so bucket = f(key), not an independent draw.
    std::vector<StreamRow> rows =
        MakeSeqStream(seed * 2 + 1, 30 + seed % 29, /*port=*/0,
                      /*num_buckets=*/0);
    std::vector<StreamRow> probes =
        MakeSeqStream(seed * 2 + 2, 35 + seed % 31, /*port=*/1,
                      /*num_buckets=*/0);
    for (StreamRow& r : rows) {
      r.bucket = r.tuple[0].AsString().back() % 4;
    }
    for (StreamRow& r : probes) {
      r.port = 1;
      r.bucket = r.tuple[0].AsString().back() % 4;
    }
    rows.insert(rows.end(), probes.begin(), probes.end());

    const RunTrace scalar = RunScalar(MakeJoinChain(), rows, /*finish=*/false);
    for (size_t batch : kBatchSizes) {
      const RunTrace vec =
          RunVectorized(MakeJoinChain(), rows, batch, /*finish=*/false);
      ExpectTracesEqual(scalar, vec, seed, batch);
    }
  }
}

TEST(VectorScalarDiffTest, AggregateAccumulateAndFinish) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed + 1000, 45 + seed % 23, /*port=*/0,
                      /*num_buckets=*/3);
    const RunTrace scalar =
        RunScalar(MakeAggregateChain(), rows, /*finish=*/true);
    for (size_t batch : kBatchSizes) {
      const RunTrace vec =
          RunVectorized(MakeAggregateChain(), rows, batch, /*finish=*/true);
      ExpectTracesEqual(scalar, vec, seed, batch);
    }
  }
}

TEST(VectorScalarDiffTest, CollectSink) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed + 2000, 25 + seed, /*port=*/0, /*num_buckets=*/0);
    // The sink swallows rows into results_ instead of emitting, so the
    // differential check is on the collected rows plus the ledger.
    Chain scalar_chain = MakeCollectChain();
    Chain vec_chain = MakeCollectChain();
    const RunTrace scalar = RunScalar(scalar_chain, rows, /*finish=*/false);
    const RunTrace vec = RunVectorized(vec_chain, rows, 7, /*finish=*/false);
    ExpectTracesEqual(scalar, vec, seed, 7);
    const auto* scalar_sink =
        static_cast<CollectOperator*>(scalar_chain[0].get());
    const auto* vec_sink = static_cast<CollectOperator*>(vec_chain[0].get());
    ASSERT_EQ(scalar_sink->results().size(), vec_sink->results().size());
    for (size_t i = 0; i < scalar_sink->results().size(); ++i) {
      EXPECT_EQ(scalar_sink->results()[i].ToString(),
                vec_sink->results()[i].ToString());
    }
  }
}

// Satellite: exact per-batch charge accounting. The ledger total must be
// bit-identical across every batch size — not within an epsilon — because
// per-batch parts are charged as (unit, count) and only multiplied out in
// one canonical entry order.
TEST(VectorScalarDiffTest, ChargeTotalsBitIdenticalAcrossBatchSizes) {
  const std::vector<StreamRow> rows =
      MakeSeqStream(77, 333, /*port=*/0, /*num_buckets=*/0);
  const RunTrace scalar =
      RunScalar(MakeFilterProjectOpcallChain(77), rows, /*finish=*/false);
  const double canonical = scalar.ledger.TotalMs();
  ASSERT_GT(canonical, 0.0);
  for (size_t batch : {size_t{1}, size_t{7}, size_t{64}, size_t{1024}}) {
    const RunTrace vec = RunVectorized(MakeFilterProjectOpcallChain(77), rows,
                                       batch, /*finish=*/false);
    EXPECT_EQ(vec.ledger.TotalMs(), canonical) << "batch=" << batch;
    EXPECT_EQ(vec.ledger.TotalCount(), scalar.ledger.TotalCount())
        << "batch=" << batch;
  }
}

// The driver charges a batch exactly as the scalar path charges the same
// rows one tuple at a time: each input row, then depth first through every
// row derived from it. A join fan-out followed by two charging operators
// is where any other order (say, operator by operator) would differ, and
// with it the floating-point sum of a work item.
TEST(VectorScalarDiffTest, BatchChargesFollowScalarOrder) {
  PhysOpDesc filter;
  filter.kind = PhysOpKind::kFilter;
  filter.predicate = Cmp(CompareOp::kGe, Call("LENGTH", {Col(1, "sequence")}),
                         Lit(Value(int64_t{4})));
  filter.base_cost_ms = 0.3;
  filter.cost_tag = "op:filter";
  PhysOpDesc project;
  project.kind = PhysOpKind::kProject;
  project.exprs = {Col(0, "orf"), Col(3, "sequence_p")};
  project.out_schema = MakeSchema(
      {{"orf", DataType::kString}, {"sequence_p", DataType::kString}});
  project.base_cost_ms = 0.07;
  project.cost_tag = "op:project";

  FragmentInstancePlan plan;
  plan.fragment.num_input_ports = 2;
  plan.fragment.ops = {JoinDesc(), filter, project};
  Simulator sim;
  GridNode node(&sim, 2, "evaluator0");
  FragmentStats stats;
  const std::vector<StreamRow> build =
      MakeSeqStream(7, 60, /*port=*/0, /*num_buckets=*/0);
  const std::vector<StreamRow> probe =
      MakeSeqStream(8, 40, /*port=*/1, /*num_buckets=*/0);

  using Charges = std::vector<std::pair<std::string_view, double>>;
  OperatorDriver scalar(&node, &plan, &stats, {});
  ASSERT_TRUE(scalar.BuildAndOpen().ok());
  for (const StreamRow& row : build) {
    ASSERT_TRUE(scalar.RunTuple(0, row.tuple, row.bucket).ok());
  }
  std::vector<Charges> per_probe;
  size_t fan_out_rows = 0;
  for (const StreamRow& row : probe) {
    ASSERT_TRUE(scalar.RunTuple(1, row.tuple, row.bucket).ok());
    per_probe.push_back(scalar.ctx()->charges);
    if (scalar.ctx()->out.size() > 1) ++fan_out_rows;
  }
  ASSERT_GT(fan_out_rows, 0u) << "the probe stream must fan out";

  for (size_t batch : kBatchSizes) {
    OperatorDriver vec(&node, &plan, &stats, {});
    ASSERT_TRUE(vec.BuildAndOpen().ok());
    TupleBatch build_batch;
    for (size_t i = 0; i < build.size(); ++i) {
      build_batch.Append(build[i].tuple, build[i].bucket,
                         static_cast<uint32_t>(i));
    }
    ASSERT_TRUE(vec.RunBatch(0, &build_batch).ok());
    for (size_t pos = 0; pos < probe.size(); pos += batch) {
      const size_t end = std::min(probe.size(), pos + batch);
      TupleBatch in;
      Charges expected;
      for (size_t i = pos; i < end; ++i) {
        in.Append(probe[i].tuple, probe[i].bucket,
                  static_cast<uint32_t>(i - pos));
        expected.insert(expected.end(), per_probe[i].begin(),
                        per_probe[i].end());
      }
      ASSERT_TRUE(vec.RunBatch(1, &in).ok());
      EXPECT_EQ(vec.ctx()->charges, expected)
          << "batch=" << batch << " first row=" << pos;
    }
  }
}

}  // namespace
}  // namespace gqp
