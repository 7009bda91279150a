// Unit and end-to-end tests for the partitioned hash aggregate: SQL
// surface, binding, operator semantics, and correctness under adaptive
// state repartitioning.

#include <gtest/gtest.h>

#include <map>

#include "exec/operators.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "sql/parser.h"
#include "storage/datagen.h"
#include "workload/experiment.h"
#include "workload/grid_setup.h"

namespace gqp {
namespace {

// ---- Parser surface --------------------------------------------------------

TEST(AggregateParserTest, GroupByClauseParsed) {
  auto q = ParseSelect(
      "select i.orf1, count(*) from protein_interactions i group by i.orf1");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->group_by[0]->ToString(), "i.orf1");
  EXPECT_NE(q->ToString().find("GROUP BY i.orf1"), std::string::npos);
}

TEST(AggregateParserTest, CountStarParses) {
  auto q = ParseSelect("select count(*) from t");
  ASSERT_TRUE(q.ok());
  const auto* call = static_cast<const AstCall*>(q->items[0].expr.get());
  ASSERT_EQ(call->args().size(), 1u);
  EXPECT_EQ(call->args()[0]->kind(), AstExprKind::kStar);
}

TEST(AggregateParserTest, GroupWithoutByFails) {
  EXPECT_FALSE(ParseSelect("select a from t group a").ok());
}

// ---- Binder -----------------------------------------------------------------

class AggregateBinderTest : public ::testing::Test {
 protected:
  AggregateBinderTest() {
    TableEntry interactions;
    interactions.name = "protein_interactions";
    interactions.schema = MakeSchema(
        {{"orf1", DataType::kString}, {"orf2", DataType::kString}});
    interactions.data_host = 1;
    interactions.stats.num_rows = 4700;
    EXPECT_TRUE(catalog_.RegisterTable(interactions).ok());
  }
  Catalog catalog_;
};

TEST_F(AggregateBinderTest, GroupedCountBinds) {
  auto plan = PlanSql(
      "select i.orf1, count(*) from protein_interactions i group by i.orf1",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->kind(), LogicalKind::kProject);
  const auto children = (*plan)->children();
  ASSERT_EQ(children[0]->kind(), LogicalKind::kAggregate);
  const auto* agg = static_cast<const LogicalAggregate*>(children[0].get());
  EXPECT_EQ(agg->group_exprs().size(), 1u);
  ASSERT_EQ(agg->aggs().size(), 1u);
  EXPECT_EQ(agg->aggs()[0].kind, AggKind::kCount);
  EXPECT_EQ((*plan)->schema()->field(1).type, DataType::kInt64);
}

TEST_F(AggregateBinderTest, AllAggregateKindsBind) {
  auto plan = PlanSql(
      "select count(i.orf2), sum(LENGTH(i.orf2)), avg(LENGTH(i.orf2)), "
      "min(i.orf2), max(i.orf2) from protein_interactions i",
      catalog_);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->schema()->num_fields(), 5u);
  EXPECT_EQ((*plan)->schema()->field(0).type, DataType::kInt64);   // count
  EXPECT_EQ((*plan)->schema()->field(1).type, DataType::kInt64);   // sum int
  EXPECT_EQ((*plan)->schema()->field(2).type, DataType::kDouble);  // avg
  EXPECT_EQ((*plan)->schema()->field(3).type, DataType::kString);  // min
  EXPECT_EQ((*plan)->schema()->field(4).type, DataType::kString);  // max
}

TEST_F(AggregateBinderTest, NonGroupedColumnRejected) {
  auto r = PlanSql(
      "select i.orf2, count(*) from protein_interactions i group by i.orf1",
      catalog_);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST_F(AggregateBinderTest, StarWithGroupByRejected) {
  EXPECT_FALSE(
      PlanSql("select * from protein_interactions i group by i.orf1",
              catalog_)
          .ok());
}

TEST_F(AggregateBinderTest, StarOnlyValidInCount) {
  EXPECT_FALSE(
      PlanSql("select sum(*) from protein_interactions i", catalog_).ok());
}

TEST_F(AggregateBinderTest, GroupedPlanIsPartitionedWithHashExchange) {
  auto logical = PlanSql(
      "select i.orf1, count(*) from protein_interactions i group by i.orf1",
      catalog_);
  ASSERT_TRUE(logical.ok());
  auto physical = CreatePhysicalPlan(*logical, {});
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  EXPECT_TRUE(physical->HasStatefulPartitionedFragment());
  const auto inputs = physical->InputsOf(1);
  ASSERT_EQ(inputs.size(), 1u);
  EXPECT_EQ(inputs[0]->policy, PolicyKind::kHashBuckets);
  EXPECT_EQ(inputs[0]->key_col, 0u);  // orf1
}

TEST_F(AggregateBinderTest, GlobalAggregateRunsUnpartitioned) {
  auto logical = PlanSql("select count(*) from protein_interactions i",
                         catalog_);
  ASSERT_TRUE(logical.ok());
  auto physical = CreatePhysicalPlan(*logical, {});
  ASSERT_TRUE(physical.ok()) << physical.status().ToString();
  EXPECT_FALSE(physical->fragments[1].partitioned);
}

// ---- Operator semantics ------------------------------------------------------

class HashAggregateOpTest : public ::testing::Test {
 protected:
  HashAggregateOpTest() {
    schema_ = MakeSchema({{"k", DataType::kString},
                          {"v", DataType::kInt64}});
    PhysOpDesc desc;
    desc.kind = PhysOpKind::kHashAggregate;
    desc.group_exprs = {Col(0, "k")};
    AggSpec count;
    count.kind = AggKind::kCount;
    count.name = "count(*)";
    AggSpec sum;
    sum.kind = AggKind::kSum;
    sum.arg = Col(1, "v");
    sum.name = "sum(v)";
    sum.result_type = DataType::kInt64;
    AggSpec avg;
    avg.kind = AggKind::kAvg;
    avg.arg = Col(1, "v");
    avg.name = "avg(v)";
    avg.result_type = DataType::kDouble;
    AggSpec min;
    min.kind = AggKind::kMin;
    min.arg = Col(1, "v");
    min.name = "min(v)";
    min.result_type = DataType::kInt64;
    AggSpec max;
    max.kind = AggKind::kMax;
    max.arg = Col(1, "v");
    max.name = "max(v)";
    max.result_type = DataType::kInt64;
    desc.aggs = {count, sum, avg, min, max};
    desc.out_schema = MakeSchema({{"k", DataType::kString},
                                  {"count", DataType::kInt64},
                                  {"sum", DataType::kInt64},
                                  {"avg", DataType::kDouble},
                                  {"min", DataType::kInt64},
                                  {"max", DataType::kInt64}});
    desc.base_cost_ms = 0.03;
    desc.cost_tag = "op:hash_aggregate";
    agg_ = std::make_unique<HashAggregateOperator>(desc);
  }

  /// Feeds one row as a one-row batch; ctx_.row_retained[0] then tells
  /// whether it was absorbed into the aggregate's state.
  Status Feed(const std::string& k, int64_t v, int bucket = 0,
              int port = 0) {
    TupleBatch in, out;
    in.Append(Tuple(schema_, {Value(k), Value(v)}), bucket, 0);
    ctx_.ResetForBatch(1);
    return agg_->ProcessBatch(port, &in, &out, &ctx_);
  }

  std::map<std::string, Tuple> FinishAndIndex() {
    ctx_.ResetForBatch(0);
    TupleBatch out;
    EXPECT_TRUE(agg_->Finish(&out, &ctx_).ok());
    std::map<std::string, Tuple> by_key;
    for (size_t i = 0; i < out.size(); ++i) {
      by_key.emplace(out.tuple(i)[0].AsString(), out.tuple(i));
    }
    return by_key;
  }

  SchemaPtr schema_;
  std::unique_ptr<HashAggregateOperator> agg_;
  ExecContext ctx_;
};

TEST_F(HashAggregateOpTest, AccumulatesPerGroup) {
  ASSERT_TRUE(Feed("a", 10).ok());
  ASSERT_TRUE(Feed("a", 20).ok());
  ASSERT_TRUE(Feed("b", 5).ok());
  EXPECT_EQ(ctx_.row_retained[0], 1);
  EXPECT_EQ(agg_->GroupCount(), 2u);

  auto rows = FinishAndIndex();
  ASSERT_EQ(rows.size(), 2u);
  const Tuple& a = rows.at("a");
  EXPECT_EQ(a[1].AsInt64(), 2);             // count
  EXPECT_EQ(a[2].AsInt64(), 30);            // sum
  EXPECT_DOUBLE_EQ(a[3].AsDouble(), 15.0);  // avg
  EXPECT_EQ(a[4].AsInt64(), 10);            // min
  EXPECT_EQ(a[5].AsInt64(), 20);            // max
  EXPECT_EQ(rows.at("b")[1].AsInt64(), 1);
}

TEST_F(HashAggregateOpTest, PurgeBucketsDropsGroups) {
  ASSERT_TRUE(Feed("a", 1, 3).ok());
  ASSERT_TRUE(Feed("b", 2, 5).ok());
  agg_->PurgeBuckets({3});
  EXPECT_EQ(agg_->GroupCount(), 1u);
  auto rows = FinishAndIndex();
  EXPECT_EQ(rows.count("a"), 0u);
  EXPECT_EQ(rows.count("b"), 1u);
}

TEST_F(HashAggregateOpTest, RebuildAfterPurgeMatches) {
  ASSERT_TRUE(Feed("a", 10, 3).ok());
  ASSERT_TRUE(Feed("a", 20, 3).ok());
  agg_->PurgeBuckets({3});
  ASSERT_TRUE(Feed("a", 10, 3).ok());
  ASSERT_TRUE(Feed("a", 20, 3).ok());
  auto rows = FinishAndIndex();
  EXPECT_EQ(rows.at("a")[2].AsInt64(), 30);
}

TEST_F(HashAggregateOpTest, FinishOnEmptyStateEmitsNothing) {
  auto rows = FinishAndIndex();
  EXPECT_TRUE(rows.empty());
}

TEST_F(HashAggregateOpTest, InvalidPortRejected) {
  EXPECT_TRUE(Feed("a", 1, 0, /*port=*/1).IsInvalidArgument());
}

// ---- End-to-end ---------------------------------------------------------------

std::map<std::string, int64_t> ReferenceCounts(const Table& interactions) {
  std::map<std::string, int64_t> counts;
  for (const Tuple& row : interactions.rows()) {
    counts[row[0].AsString()]++;
  }
  return counts;
}

struct AggGrid {
  explicit AggGrid(int evaluators, bool adaptive, uint64_t seed = 1) {
    GridOptions options;
    options.num_evaluators = evaluators;
    options.adaptive = adaptive;
    setup = std::make_unique<GridSetup>(options);
    EXPECT_TRUE(setup->Initialize().ok());
    ProteinSequencesSpec seq_spec;
    seq_spec.num_rows = 200;
    seq_spec.sequence_length = 30;
    seq_spec.seed = seed;
    EXPECT_TRUE(setup->AddTable(GenerateProteinSequences(seq_spec)).ok());
    ProteinInteractionsSpec inter_spec;
    inter_spec.num_rows = 800;
    inter_spec.num_orfs = 200;
    inter_spec.seed = seed + 5;
    interactions = GenerateProteinInteractions(inter_spec);
    EXPECT_TRUE(setup->AddTable(interactions).ok());
  }
  std::unique_ptr<GridSetup> setup;
  TablePtr interactions;
};

TEST(AggregateEndToEndTest, GroupedCountMatchesReference) {
  AggGrid grid(2, false);
  QueryOptions options;
  options.adaptivity.enabled = false;
  auto query = grid.setup->gdqs()->SubmitQuery(
      "select i.orf1, count(*) from protein_interactions i group by i.orf1",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  grid.setup->simulator()->RunToCompletion();
  auto result = grid.setup->gdqs()->GetResult(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  const auto expected = ReferenceCounts(*grid.interactions);
  ASSERT_EQ(result->rows.size(), expected.size());
  for (const Tuple& row : result->rows) {
    EXPECT_EQ(row[1].AsInt64(), expected.at(row[0].AsString()))
        << "group " << row[0].AsString();
  }
}

TEST(AggregateEndToEndTest, GlobalCountMatches) {
  AggGrid grid(2, false);
  QueryOptions options;
  options.adaptivity.enabled = false;
  auto query = grid.setup->gdqs()->SubmitQuery(
      "select count(*), min(i.orf1), max(i.orf1) "
      "from protein_interactions i",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  grid.setup->simulator()->RunToCompletion();
  auto result = grid.setup->gdqs()->GetResult(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsInt64(), 800);
}

TEST(AggregateEndToEndTest, AdaptiveRepartitioningPreservesGroups) {
  AggGrid grid(3, true, 7);
  // Slow down one machine's aggregate processing drastically.
  ASSERT_TRUE(grid.setup
                  ->PerturbEvaluator(0, "op:hash_aggregate",
                                     std::make_shared<
                                         AddedDelayPerturbation>(5.0))
                  .ok());
  QueryOptions options;
  options.adaptivity.enabled = true;
  options.adaptivity.response = ResponseType::kRetrospective;
  options.adaptivity.thres_a = 0.10;
  options.adaptivity.thres_m = 0.10;
  options.exec.buffer_tuples = 20;
  options.exec.checkpoint_interval = 10;
  auto query = grid.setup->gdqs()->SubmitQuery(
      "select i.orf1, count(*) from protein_interactions i group by i.orf1",
      options);
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  grid.setup->simulator()->RunToCompletion();
  ASSERT_TRUE(grid.setup->gdqs()->QueryComplete(*query));
  ASSERT_TRUE(grid.setup->gdqs()->ExecutionStatus(*query).ok());
  auto result = grid.setup->gdqs()->GetResult(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Every group exactly once, every count exact — despite partial
  // aggregates having been purged and rebuilt on other machines.
  const auto expected = ReferenceCounts(*grid.interactions);
  ASSERT_EQ(result->rows.size(), expected.size());
  for (const Tuple& row : result->rows) {
    EXPECT_EQ(row[1].AsInt64(), expected.at(row[0].AsString()))
        << "group " << row[0].AsString();
  }
}

TEST(AggregateEndToEndTest, StatefulAggregateRejectsProspective) {
  AggGrid grid(2, true);
  QueryOptions options;
  options.adaptivity.enabled = true;
  options.adaptivity.response = ResponseType::kProspective;
  auto query = grid.setup->gdqs()->SubmitQuery(
      "select i.orf1, count(*) from protein_interactions i group by i.orf1",
      options);
  ASSERT_FALSE(query.ok());
  EXPECT_TRUE(query.status().IsInvalidArgument());
}

}  // namespace
}  // namespace gqp
