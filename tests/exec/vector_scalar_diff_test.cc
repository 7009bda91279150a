// Batch-size differential harness (DESIGN.md §D13). Every operator chain
// is driven through the OperatorDriver over randomized inputs once in
// one-row batches — the executor's default, the paper's per-tuple
// semantics — and again at wider batch sizes, and the runs must agree
// exactly:
//
//   * byte-identical result sets (rendered rows, in emission order),
//   * per-row identical retention decisions, and
//   * identical charge sequences: the concatenated per-batch
//     ctx.charges of a wide run equal those of the one-row run part for
//     part, so every sum over them is bit-identical too.
//
// Batch sizes cover the single-row reference, small primes that force
// ragged final batches, the golden-trace width of 16, and a batch wider
// than the whole input. Seeds are fixed: a red run is reproducible.

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <string_view>
#include <utility>
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

using Charges = std::vector<std::pair<std::string_view, double>>;

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

/// A fragment's operator chain behind an OperatorDriver, as the executor
/// runs it (fresh state per instance: stateful operators cannot be shared
/// between runs).
struct ChainDriver {
  ChainDriver(std::vector<PhysOpDesc> ops, int num_ports) {
    plan.fragment.num_input_ports = num_ports;
    plan.fragment.ops = std::move(ops);
    EXPECT_TRUE(driver.BuildAndOpen().ok());
  }
  OperatorDriver* operator->() { return &driver; }

  Simulator sim;
  GridNode node{&sim, 1, "evaluator0"};
  FragmentStats stats;
  FragmentInstancePlan plan;
  OperatorDriver driver{
      &node, &plan, &stats,
      {nullptr, [](const Status& s) { ADD_FAILURE() << s.ToString(); }}};
};

/// Everything a differential run observes: rendered outputs in emission
/// order, per-input retention decisions in input order, the concatenated
/// per-batch charges, and the rows a sink collected.
struct RunTrace {
  std::vector<std::string> outputs;
  std::vector<bool> retained;
  Charges charges;
  std::vector<std::string> collected;
};

/// Slices the stream into port-homogeneous batches of at most
/// `batch_size` rows (ragged final slice included) and runs each through
/// the driver, then (optionally) finishes the chain.
RunTrace RunChain(const std::vector<PhysOpDesc>& ops,
                  const std::vector<StreamRow>& rows, size_t batch_size,
                  bool finish) {
  ChainDriver driver(ops, /*num_ports=*/2);
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
    EXPECT_TRUE(driver->RunBatch(port, &in).ok());
    const ExecContext& ctx = *driver->ctx();
    for (const Tuple& t : ctx.out) trace.outputs.push_back(t.ToString());
    for (size_t i = 0; i < batch_rows; ++i) {
      trace.retained.push_back(ctx.row_retained[i] != 0);
    }
    trace.charges.insert(trace.charges.end(), ctx.charges.begin(),
                         ctx.charges.end());
  }
  if (finish) {
    EXPECT_TRUE(driver->FinishChain());
    for (const Tuple& t : driver->ctx()->out) {
      trace.outputs.push_back(t.ToString());
    }
  }
  for (const Tuple& t : driver->Results()) {
    trace.collected.push_back(t.ToString());
  }
  return trace;
}

/// Left fold of a charge sequence, the order a node sums work-item parts.
double TotalMs(const Charges& charges) {
  double total = 0.0;
  for (const auto& [tag, ms] : charges) total += ms;
  return total;
}

void ExpectTracesEqual(const RunTrace& one, const RunTrace& wide,
                       uint64_t seed, size_t batch_size) {
  const std::string where =
      "seed=" + std::to_string(seed) + " batch=" + std::to_string(batch_size);
  ASSERT_EQ(one.outputs, wide.outputs) << where;
  ASSERT_EQ(one.retained, wide.retained) << where;
  ASSERT_EQ(one.collected, wide.collected) << where;
  ASSERT_EQ(one.charges, wide.charges) << where;
}

// ---- Chain descriptors --------------------------------------------------

std::vector<PhysOpDesc> FilterOpcallProjectChain(uint64_t seed) {
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

  return {filter, opcall, project};
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

std::vector<PhysOpDesc> AggregateChain() {
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
  return {agg};
}

std::vector<PhysOpDesc> CollectChain() {
  PhysOpDesc collect;
  collect.kind = PhysOpKind::kCollect;
  collect.base_cost_ms = 0.01;
  collect.cost_tag = "op:collect";
  return {collect};
}

// ---- Differential sweeps ------------------------------------------------

TEST(VectorScalarDiffTest, FilterOpcallProjectChain) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed, 40 + seed % 37, /*port=*/0, /*num_buckets=*/0);
    const RunTrace one =
        RunChain(FilterOpcallProjectChain(seed), rows, 1, /*finish=*/false);
    for (size_t batch : kBatchSizes) {
      const RunTrace wide =
          RunChain(FilterOpcallProjectChain(seed), rows, batch, false);
      ExpectTracesEqual(one, wide, seed, batch);
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

    const RunTrace one = RunChain({JoinDesc()}, rows, 1, /*finish=*/false);
    for (size_t batch : kBatchSizes) {
      const RunTrace wide = RunChain({JoinDesc()}, rows, batch, false);
      ExpectTracesEqual(one, wide, seed, batch);
    }
  }
}

TEST(VectorScalarDiffTest, AggregateAccumulateAndFinish) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed + 1000, 45 + seed % 23, /*port=*/0,
                      /*num_buckets=*/3);
    const RunTrace one = RunChain(AggregateChain(), rows, 1, /*finish=*/true);
    ASSERT_FALSE(one.outputs.empty());
    for (size_t batch : kBatchSizes) {
      const RunTrace wide = RunChain(AggregateChain(), rows, batch, true);
      ExpectTracesEqual(one, wide, seed, batch);
    }
  }
}

TEST(VectorScalarDiffTest, CollectSink) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed + 2000, 25 + seed, /*port=*/0, /*num_buckets=*/0);
    // The sink swallows rows into its results instead of emitting, so the
    // differential check is on the collected rows plus the charges.
    const RunTrace one = RunChain(CollectChain(), rows, 1, /*finish=*/false);
    ASSERT_EQ(one.collected.size(), rows.size());
    ExpectTracesEqual(one, RunChain(CollectChain(), rows, 7, false), seed, 7);
  }
}

// The total charged cost must be bit-identical across batch sizes — not
// within an epsilon — because every batch size charges the same parts in
// the same order.
TEST(VectorScalarDiffTest, ChargeTotalsBitIdenticalAcrossBatchSizes) {
  const std::vector<StreamRow> rows =
      MakeSeqStream(77, 333, /*port=*/0, /*num_buckets=*/0);
  const RunTrace one =
      RunChain(FilterOpcallProjectChain(77), rows, 1, /*finish=*/false);
  const double canonical = TotalMs(one.charges);
  ASSERT_GT(canonical, 0.0);
  for (size_t batch : {size_t{7}, size_t{64}, size_t{1024}}) {
    const RunTrace wide =
        RunChain(FilterOpcallProjectChain(77), rows, batch, /*finish=*/false);
    EXPECT_EQ(TotalMs(wide.charges), canonical) << "batch=" << batch;
    EXPECT_EQ(wide.charges.size(), one.charges.size()) << "batch=" << batch;
  }
}

// The driver charges a batch exactly as it charges the same rows one at a
// time: each input row, then depth first through every row derived from
// it. A join fan-out followed by two charging operators is where any other
// order (say, operator by operator) would differ, and with it the
// floating-point sum of a work item.
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
  const std::vector<PhysOpDesc> ops = {JoinDesc(), filter, project};

  const std::vector<StreamRow> build =
      MakeSeqStream(7, 60, /*port=*/0, /*num_buckets=*/0);
  const std::vector<StreamRow> probe =
      MakeSeqStream(8, 40, /*port=*/1, /*num_buckets=*/0);
  TupleBatch build_batch;
  for (size_t i = 0; i < build.size(); ++i) {
    build_batch.Append(build[i].tuple, build[i].bucket,
                       static_cast<uint32_t>(i));
  }

  ChainDriver one(ops, 2);
  TupleBatch build_copy = build_batch;
  ASSERT_TRUE(one->RunBatch(0, &build_copy).ok());
  std::vector<Charges> per_probe;
  size_t fan_out_rows = 0;
  for (const StreamRow& row : probe) {
    TupleBatch in;
    in.Append(row.tuple, row.bucket, 0);
    ASSERT_TRUE(one->RunBatch(1, &in).ok());
    per_probe.push_back(one->ctx()->charges);
    if (one->ctx()->out.size() > 1) ++fan_out_rows;
  }
  ASSERT_GT(fan_out_rows, 0u) << "the probe stream must fan out";

  for (size_t batch : kBatchSizes) {
    ChainDriver wide(ops, 2);
    build_copy = build_batch;
    ASSERT_TRUE(wide->RunBatch(0, &build_copy).ok());
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
      ASSERT_TRUE(wide->RunBatch(1, &in).ok());
      EXPECT_EQ(wide->ctx()->charges, expected)
          << "batch=" << batch << " first row=" << pos;
    }
  }
}

}  // namespace
}  // namespace gqp
