#include "exec/operators.h"

#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "plan/cost_model.h"
#include "storage/datagen.h"

namespace gqp {
namespace {

SchemaPtr SeqSchema() {
  return MakeSchema({{"orf", DataType::kString},
                     {"sequence", DataType::kString}});
}

Tuple SeqRow(const std::string& orf, const std::string& seq) {
  return Tuple(SeqSchema(), {Value(orf), Value(seq)});
}

/// Runs `tuple` through `op` as a one-row batch (the executor's default
/// batch size). Outputs are appended to ctx->out, and
/// ctx->row_retained[0] tells whether the row was absorbed into operator
/// state; charges accumulate in ctx->row_charges.
Status RunRow(PhysicalOperator* op, int port, const Tuple& tuple, int bucket,
              ExecContext* ctx) {
  TupleBatch in, out;
  in.Append(tuple, bucket, 0);
  ctx->row_retained.assign(1, 0);
  GQP_RETURN_IF_ERROR(op->ProcessBatch(port, &in, &out, ctx));
  for (size_t i = 0; i < out.size(); ++i) ctx->out.push_back(out.TakeTuple(i));
  return Status::OK();
}

TEST(OperatorFactoryTest, RejectsScan) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kScan;
  EXPECT_FALSE(MakeOperator(desc).ok());
}

TEST(FilterOperatorTest, DropsNonMatching) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kFilter;
  desc.predicate = Cmp(CompareOp::kEq, Col(0, "orf"), Lit(Value("A")));
  desc.base_cost_ms = 0.1;
  desc.cost_tag = "op:filter";
  FilterOperator filter(desc);
  ExecContext ctx;
  ASSERT_TRUE(RunRow(&filter, 0, SeqRow("A", "x"), -1, &ctx).ok());
  ASSERT_TRUE(RunRow(&filter, 0, SeqRow("B", "x"), -1, &ctx).ok());
  ASSERT_EQ(ctx.out.size(), 1u);
  EXPECT_EQ(ctx.out[0][0].AsString(), "A");
  // Cost charged for both evaluations.
  EXPECT_EQ(ctx.row_charges.size(), 2u);
}

TEST(ProjectOperatorTest, ComputesExpressions) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kProject;
  desc.exprs = {Call("LENGTH", {Col(1, "sequence")}), Col(0, "orf")};
  desc.out_schema = MakeSchema(
      {{"len", DataType::kInt64}, {"orf", DataType::kString}});
  ProjectOperator project(desc);
  ExecContext ctx;
  ASSERT_TRUE(RunRow(&project, 0, SeqRow("K", "abcde"), -1, &ctx).ok());
  ASSERT_EQ(ctx.out.size(), 1u);
  EXPECT_EQ(ctx.out[0][0].AsInt64(), 5);
  EXPECT_EQ(ctx.out[0][1].AsString(), "K");
}

TEST(OperationCallOperatorTest, AppendsComputedColumn) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kOperationCall;
  desc.ws_name = "EntropyAnalyser";
  desc.arg_col = 1;
  desc.base_cost_ms = 0.25;
  desc.cost_tag = CostModel::WsTag("EntropyAnalyser");
  desc.out_schema = MakeSchema({{"orf", DataType::kString},
                                {"sequence", DataType::kString},
                                {"e", DataType::kDouble}});
  OperationCallOperator op(desc);
  ExecContext ctx;
  ASSERT_TRUE(RunRow(&op, 0, SeqRow("K", "abab"), -1, &ctx).ok());
  ASSERT_EQ(ctx.out.size(), 1u);
  ASSERT_EQ(ctx.out[0].size(), 3u);
  EXPECT_DOUBLE_EQ(ctx.out[0][2].AsDouble(), 1.0);
  ASSERT_EQ(ctx.row_charges.size(), 1u);
  EXPECT_EQ(ctx.row_charges[0].first, "ws:EntropyAnalyser");
}

TEST(OperationCallOperatorTest, BadArgColumnFails) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kOperationCall;
  desc.ws_name = "EntropyAnalyser";
  desc.arg_col = 9;
  OperationCallOperator op(desc);
  ExecContext ctx;
  EXPECT_TRUE(RunRow(&op, 0, SeqRow("K", "x"), -1, &ctx).IsOutOfRange());
}

class HashJoinTest : public ::testing::Test {
 protected:
  HashJoinTest() {
    PhysOpDesc desc;
    desc.kind = PhysOpKind::kHashJoin;
    desc.build_key = 0;
    desc.probe_key = 0;
    desc.base_cost_ms = 0.1;
    desc.build_cost_ms = 0.05;
    desc.cost_tag = "op:hash_join";
    desc.out_schema = MakeSchema({{"orf", DataType::kString},
                                  {"sequence", DataType::kString},
                                  {"orf1", DataType::kString},
                                  {"orf2", DataType::kString}});
    join_ = std::make_unique<HashJoinOperator>(desc);
  }

  SchemaPtr ProbeSchema() {
    return MakeSchema({{"orf1", DataType::kString},
                       {"orf2", DataType::kString}});
  }
  Tuple ProbeRow(const std::string& orf1, const std::string& orf2) {
    return Tuple(ProbeSchema(), {Value(orf1), Value(orf2)});
  }

  std::unique_ptr<HashJoinOperator> join_;
  ExecContext ctx_;
};

TEST_F(HashJoinTest, BuildRetainsTuples) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  EXPECT_EQ(ctx_.row_retained[0], 1);
  EXPECT_TRUE(ctx_.out.empty());
  EXPECT_EQ(join_->StateSize(), 1u);
  EXPECT_EQ(join_->StateSizeForBucket(3), 1u);
}

TEST_F(HashJoinTest, ProbeEmitsMatches) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ctx_.ResetForBatch(1);
  ASSERT_TRUE(RunRow(join_.get(), 1, ProbeRow("A", "B"), 3, &ctx_).ok());
  ASSERT_EQ(ctx_.out.size(), 1u);
  EXPECT_EQ(ctx_.out[0].size(), 4u);
  EXPECT_EQ(ctx_.out[0][0].AsString(), "A");
  EXPECT_EQ(ctx_.out[0][3].AsString(), "B");
  EXPECT_EQ(ctx_.row_retained[0], 0);
}

TEST_F(HashJoinTest, ProbeMissEmitsNothing) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ctx_.ResetForBatch(1);
  ASSERT_TRUE(RunRow(join_.get(), 1, ProbeRow("Z", "B"), 3, &ctx_).ok());
  EXPECT_TRUE(ctx_.out.empty());
}

TEST_F(HashJoinTest, DuplicateBuildKeysAllMatch) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s2"), 3, &ctx_).ok());
  ctx_.ResetForBatch(1);
  ASSERT_TRUE(RunRow(join_.get(), 1, ProbeRow("A", "B"), 3, &ctx_).ok());
  EXPECT_EQ(ctx_.out.size(), 2u);
}

TEST_F(HashJoinTest, ProbeOnlySeesOwnBucket) {
  // Equal keys always share a bucket in production; a mismatched bucket
  // (as after a partition purge) must find nothing.
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ctx_.ResetForBatch(1);
  ASSERT_TRUE(RunRow(join_.get(), 1, ProbeRow("A", "B"), 4, &ctx_).ok());
  EXPECT_TRUE(ctx_.out.empty());
}

TEST_F(HashJoinTest, PurgeBucketsDropsState) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("B", "s2"), 5, &ctx_).ok());
  join_->PurgeBuckets({3});
  EXPECT_EQ(join_->StateSize(), 1u);
  EXPECT_EQ(join_->StateSizeForBucket(3), 0u);
  ctx_.ResetForBatch(1);
  ASSERT_TRUE(RunRow(join_.get(), 1, ProbeRow("A", "x"), 3, &ctx_).ok());
  EXPECT_TRUE(ctx_.out.empty());
}

TEST_F(HashJoinTest, StateRebuildAfterPurge) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  join_->PurgeBuckets({3});
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  EXPECT_EQ(join_->duplicate_build_inserts(), 0u);
  ctx_.ResetForBatch(1);
  ASSERT_TRUE(RunRow(join_.get(), 1, ProbeRow("A", "B"), 3, &ctx_).ok());
  EXPECT_EQ(ctx_.out.size(), 1u);
}

TEST_F(HashJoinTest, DuplicateInsertDetectorFires) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  EXPECT_EQ(join_->duplicate_build_inserts(), 1u);
}

TEST_F(HashJoinTest, OnlyFirstDuplicateInsertIsLogged) {
  std::vector<std::string> warnings;
  Logger::SetSink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::kWarn) warnings.push_back(message);
  });
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  }
  Logger::SetSink(nullptr);
  EXPECT_EQ(join_->duplicate_build_inserts(), 3u);
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("duplicate build insert"), std::string::npos);
}

TEST_F(HashJoinTest, NegativeBucketNormalizedToZero) {
  ASSERT_TRUE(RunRow(join_.get(), 0, SeqRow("A", "s1"), -1, &ctx_).ok());
  ctx_.ResetForBatch(1);
  ASSERT_TRUE(RunRow(join_.get(), 1, ProbeRow("A", "B"), -1, &ctx_).ok());
  EXPECT_EQ(ctx_.out.size(), 1u);
}

TEST_F(HashJoinTest, InvalidPortFails) {
  EXPECT_TRUE(
      RunRow(join_.get(), 2, SeqRow("A", "s"), 0, &ctx_).IsInvalidArgument());
}

TEST(CollectOperatorTest, AccumulatesResults) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kCollect;
  desc.base_cost_ms = 0.01;
  desc.cost_tag = "op:collect";
  CollectOperator collect(desc);
  ExecContext ctx;
  ASSERT_TRUE(RunRow(&collect, 0, SeqRow("A", "x"), -1, &ctx).ok());
  ASSERT_TRUE(RunRow(&collect, 0, SeqRow("B", "y"), -1, &ctx).ok());
  EXPECT_EQ(collect.results().size(), 2u);
  EXPECT_TRUE(ctx.out.empty());  // collect is a sink
}

TEST(CollectOperatorTest, OneRowBatchesGrowResultsGeometrically) {
  // A sink fed one row at a time must not reallocate its result vector
  // per batch (an exact-fit reserve per batch makes collection quadratic).
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kCollect;
  CollectOperator collect(desc);
  ExecContext ctx;
  std::set<size_t> capacities;
  const Tuple row = SeqRow("A", "x");
  for (int i = 0; i < 100'000; ++i) {
    ASSERT_TRUE(RunRow(&collect, 0, row, -1, &ctx).ok());
    capacities.insert(collect.results().capacity());
  }
  EXPECT_EQ(collect.results().size(), 100'000u);
  EXPECT_LE(capacities.size(), 64u);
}

TEST(OperatorChainTest, EmitFlowsThroughChain) {
  PhysOpDesc filter_desc;
  filter_desc.kind = PhysOpKind::kFilter;
  filter_desc.predicate =
      Cmp(CompareOp::kNe, Col(0, "orf"), Lit(Value("skip")));
  FilterOperator filter(filter_desc);

  PhysOpDesc project_desc;
  project_desc.kind = PhysOpKind::kProject;
  project_desc.exprs = {Col(0, "orf")};
  project_desc.out_schema = MakeSchema({{"orf", DataType::kString}});
  ProjectOperator project(project_desc);

  // Each operator's output batch is the next one's input, exactly as the
  // driver walks the chain; outputs keep their input row as origin.
  TupleBatch in, mid, out;
  in.Append(SeqRow("skip", "x"), -1, 0);
  in.Append(SeqRow("keep", "x"), -1, 1);
  ExecContext ctx;
  ctx.ResetForBatch(in.size());
  ASSERT_TRUE(filter.ProcessBatch(0, &in, &mid, &ctx).ok());
  ASSERT_TRUE(project.ProcessBatch(0, &mid, &out, &ctx).ok());
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out.tuple(0).size(), 1u);
  EXPECT_EQ(out.tuple(0)[0].AsString(), "keep");
  EXPECT_EQ(out.origin(0), 1u);
  EXPECT_EQ(ctx.row_charges.size(), 2u);  // one unit per operator
}

TEST(ExecContextTest, ResetClearsPerTupleState) {
  ExecContext ctx;
  ctx.ChargeN("a", 1.0, 2);
  ctx.charges.emplace_back("a", 1.0);
  ctx.row_retained.assign(2, 1);
  ctx.out.push_back(SeqRow("x", "y"));
  ctx.out_origin.push_back(0);
  ctx.ResetForBatch(3);
  EXPECT_TRUE(ctx.charges.empty());
  EXPECT_TRUE(ctx.row_charges.empty());
  EXPECT_TRUE(ctx.out.empty());
  EXPECT_TRUE(ctx.out_origin.empty());
  EXPECT_EQ(ctx.row_retained, std::vector<unsigned char>(3, 0));
}

TEST(ExecContextTest, ChargeNRecordsOneUnitPerStep) {
  ExecContext ctx;
  ctx.ChargeN("a", 1.5, 3);
  ctx.ChargeN("b", 2.5, 0);  // zero rows cost nothing
  ctx.ChargeN("b", 2.5, 1);
  using Charges = std::vector<std::pair<std::string_view, double>>;
  EXPECT_EQ(ctx.row_charges, (Charges{{"a", 1.5}, {"b", 2.5}}));
}

}  // namespace
}  // namespace gqp
