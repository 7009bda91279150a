// Pinned regression tests for batch-execution edge cases (DESIGN.md
// §D13): empty batches, masks that filter every row, probe batches whose
// join fan-out overflows the input batch width, state purged between
// batches, and full freeze/thaw state-move rounds applied while the
// executor steps batch-at-a-time (seeded chaos pins).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "exec/operators.h"
#include "storage/tuple_batch.h"

namespace gqp {
namespace {

SchemaPtr SeqSchema() {
  return MakeSchema(
      {{"orf", DataType::kString}, {"sequence", DataType::kString}});
}

Tuple SeqRow(const std::string& orf, const std::string& seq) {
  return Tuple(SeqSchema(), {Value(orf), Value(seq)});
}

std::unique_ptr<FilterOperator> MakeFilter(const std::string& keep_orf) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kFilter;
  desc.predicate = Cmp(CompareOp::kEq, Col(0, "orf"), Lit(Value(keep_orf)));
  desc.base_cost_ms = 0.1;
  desc.cost_tag = "op:filter";
  return std::make_unique<FilterOperator>(desc);
}

std::unique_ptr<HashJoinOperator> MakeJoin() {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kHashJoin;
  desc.build_key = 0;
  desc.probe_key = 0;
  desc.base_cost_ms = 0.1;
  desc.build_cost_ms = 0.05;
  desc.cost_tag = "op:hash_join";
  desc.out_schema = MakeSchema({{"orf", DataType::kString},
                                {"sequence", DataType::kString},
                                {"orf_p", DataType::kString},
                                {"sequence_p", DataType::kString}});
  return std::make_unique<HashJoinOperator>(desc);
}

TEST(BatchEdgeTest, EmptyBatchChargesNothingEmitsNothing) {
  auto filter = MakeFilter("A");
  ExecContext ctx;
  ctx.ResetForBatch(0);
  TupleBatch in, out;
  ASSERT_TRUE(filter->ProcessBatch(0, &in, &out, &ctx).ok());
  EXPECT_EQ(out.size(), 0u);
  // Scalar mode charges nothing for zero tuples; ChargeN must match.
  EXPECT_TRUE(ctx.charges.empty());
  EXPECT_EQ(ctx.ledger.TotalCount(), 0u);

  auto join = MakeJoin();
  ASSERT_TRUE(join->ProcessBatch(0, &in, &out, &ctx).ok());
  ASSERT_TRUE(join->ProcessBatch(1, &in, &out, &ctx).ok());
  EXPECT_TRUE(ctx.charges.empty());
}

TEST(BatchEdgeTest, AllRowsFilteredStillChargedPerRow) {
  auto filter = MakeFilter("NOPE");
  ExecContext ctx;
  ctx.ResetForBatch(5);
  TupleBatch in, out;
  for (uint32_t i = 0; i < 5; ++i) {
    in.Append(SeqRow("ORF" + std::to_string(i), "acgt"), -1, i);
  }
  ASSERT_TRUE(filter->ProcessBatch(0, &in, &out, &ctx).ok());
  EXPECT_EQ(out.size(), 0u);
  // The predicate ran over every row even though none survived.
  ASSERT_EQ(ctx.ledger.entries.size(), 1u);
  EXPECT_EQ(ctx.ledger.entries[0].count, 5u);
  // No row was absorbed into state: nothing is marked retained.
  for (size_t i = 0; i < 5; ++i) EXPECT_EQ(ctx.row_retained[i], 0);
}

TEST(BatchEdgeTest, ProbeFanOutOverflowsInputBatchWidth) {
  // 12 duplicate-key build rows; a 4-row probe batch then fans out to 48
  // outputs — 12x wider than the input batch. Origins must stay grouped
  // and non-decreasing so the executor can ack per input row.
  auto join = MakeJoin();
  ExecContext ctx;
  ctx.ResetForBatch(12);
  TupleBatch build, out;
  for (uint32_t i = 0; i < 12; ++i) {
    build.Append(SeqRow("K", "s" + std::to_string(i)), 0, i);
  }
  ASSERT_TRUE(join->ProcessBatch(0, &build, &out, &ctx).ok());
  EXPECT_EQ(out.size(), 0u);
  for (size_t i = 0; i < 12; ++i) EXPECT_EQ(ctx.row_retained[i], 1);

  ctx.ResetForBatch(4);
  TupleBatch probe;
  for (uint32_t i = 0; i < 4; ++i) {
    probe.Append(SeqRow("K", "p" + std::to_string(i)), 0, i);
  }
  out.Clear();
  ASSERT_TRUE(join->ProcessBatch(1, &probe, &out, &ctx).ok());
  ASSERT_EQ(out.size(), 48u);
  uint32_t prev_origin = 0;
  std::vector<size_t> per_origin(4, 0);
  for (size_t i = 0; i < out.size(); ++i) {
    EXPECT_GE(out.origin(i), prev_origin) << "origins must be non-decreasing";
    prev_origin = out.origin(i);
    ASSERT_LT(out.origin(i), 4u);
    ++per_origin[out.origin(i)];
    EXPECT_EQ(out.tuple(i).size(), 4u);
  }
  for (size_t o = 0; o < 4; ++o) EXPECT_EQ(per_origin[o], 12u);
}

TEST(BatchEdgeTest, PurgeBetweenBatchesDropsThenRebuilds) {
  // The freeze half of a state move at a batch boundary: build a batch,
  // purge the bucket (as a StateMoveRequest would), verify probes find
  // nothing, then rebuild (the thaw at the new owner) and probe again.
  auto join = MakeJoin();
  ExecContext ctx;
  ctx.ResetForBatch(3);
  TupleBatch build, out;
  for (uint32_t i = 0; i < 3; ++i) {
    build.Append(SeqRow("K", "s" + std::to_string(i)), 2, i);
  }
  ASSERT_TRUE(join->ProcessBatch(0, &build, &out, &ctx).ok());
  EXPECT_EQ(join->StateSizeForBucket(2), 3u);

  join->PurgeBuckets({2});
  EXPECT_EQ(join->StateSize(), 0u);

  ctx.ResetForBatch(1);
  TupleBatch probe;
  probe.Append(SeqRow("K", "p"), 2, 0);
  out.Clear();
  ASSERT_TRUE(join->ProcessBatch(1, &probe, &out, &ctx).ok());
  EXPECT_EQ(out.size(), 0u);

  // Rebuild from the (recovery-logged) inputs; no duplicate-insert alarm.
  ctx.ResetForBatch(3);
  TupleBatch rebuild;
  for (uint32_t i = 0; i < 3; ++i) {
    rebuild.Append(SeqRow("K", "s" + std::to_string(i)), 2, i);
  }
  out.Clear();
  ASSERT_TRUE(join->ProcessBatch(0, &rebuild, &out, &ctx).ok());
  EXPECT_EQ(join->duplicate_build_inserts(), 0u);

  ctx.ResetForBatch(1);
  TupleBatch probe2;
  probe2.Append(SeqRow("K", "p"), 2, 0);
  out.Clear();
  ASSERT_TRUE(join->ProcessBatch(1, &probe2, &out, &ctx).ok());
  EXPECT_EQ(out.size(), 3u);
}

TEST(BatchEdgeTest, CompactKeepsSurvivorsInOrder) {
  TupleBatch batch;
  for (uint32_t i = 0; i < 6; ++i) {
    batch.Append(SeqRow("ORF" + std::to_string(i), "x"), -1, i);
  }
  const std::vector<unsigned char> mask = {1, 0, 0, 1, 1, 0};
  batch.Compact(mask);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch.tuple(0)[0].AsString(), "ORF0");
  EXPECT_EQ(batch.tuple(1)[0].AsString(), "ORF3");
  EXPECT_EQ(batch.tuple(2)[0].AsString(), "ORF4");
  EXPECT_EQ(batch.origin(2), 4u);
}

// Freeze/thaw under batch stepping, end to end: these pinned seeds apply
// full state-move rounds (freeze -> redirect -> purge -> resend -> thaw)
// while every fragment steps batch-at-a-time, and every invariant —
// result multiset vs. the unperturbed oracle included — must still hold.
// Seed 87 is the historical duplicate-build-insert scenario; it applied 8
// rounds until batches charged per row (a node-wide sleep then costs every
// row, not every batch) and applies 7 since. Seed 66 was added to keep an
// 8-round pin: an evaluator crash mid-run makes its rounds race recovery
// resends against in-flight batches too.
struct VecStateMovePin {
  uint64_t seed;
  uint64_t min_rounds_applied;
};

class VecStateMoveTest : public ::testing::TestWithParam<VecStateMovePin> {};

TEST_P(VecStateMoveTest, RoundsApplyUnderBatchExecution) {
  const VecStateMovePin& pin = GetParam();
  chaos::ChaosScenario scenario = chaos::GenerateScenario(pin.seed);
  scenario.vectorized = true;
  const chaos::ChaosRunResult result = chaos::RunScenario(scenario);
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.ok()) << result.Report();
  EXPECT_TRUE(result.completed);
  // The scenario must actually exercise mid-run freeze/thaw; if a future
  // change stops these seeds from moving state, the pin has gone stale
  // and a new seed must be chosen.
  EXPECT_GE(result.stats.rounds_applied, pin.min_rounds_applied)
      << chaos::ReproCommand(pin.seed, chaos::ChaosProfile::kStandard, true);
}

INSTANTIATE_TEST_SUITE_P(
    PinnedSeeds, VecStateMoveTest,
    ::testing::Values(VecStateMovePin{13, 5}, VecStateMovePin{87, 7},
                      VecStateMovePin{66, 8}),
    [](const ::testing::TestParamInfo<VecStateMovePin>& info) {
      return "seed" + std::to_string(info.param.seed);
    });

}  // namespace
}  // namespace gqp
