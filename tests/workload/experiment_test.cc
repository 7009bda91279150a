#include "chaos/runner.h"

#include <gtest/gtest.h>

namespace gqp {
namespace {

ExperimentParams SmallQ1() {
  ExperimentParams p;
  p.name = "test-q1";
  p.query = QueryKind::kQ1;
  p.sequences = 200;
  p.interactions = 100;
  p.sequence_length = 30;
  p.repetitions = 1;
  return p;
}

TEST(ExperimentTest, RunsQ1) {
  ExperimentResult r = RunExperiment(SmallQ1());
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.rep_rows, std::vector<size_t>{200});
  EXPECT_GT(r.response_ms, 0.0);
  EXPECT_EQ(r.rep_times_ms.size(), 1u);
}

TEST(ExperimentTest, RunsQ2Retrospective) {
  ExperimentParams p = SmallQ1();
  p.name = "test-q2";
  p.query = QueryKind::kQ2;
  p.response = ResponseType::kRetrospective;
  p.interactions = 300;
  ExperimentResult r = RunExperiment(p);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rep_rows.size(), 1u);
  EXPECT_GT(r.rep_rows[0], 0u);
}

TEST(ExperimentTest, RepetitionsAveraged) {
  ExperimentParams p = SmallQ1();
  p.repetitions = 3;
  ExperimentResult r = RunExperiment(p);
  ASSERT_TRUE(r.ok) << r.error;
  ASSERT_EQ(r.rep_times_ms.size(), 3u);
  EXPECT_EQ(r.rep_rows.size(), 3u);
  double sum = 0;
  for (const double t : r.rep_times_ms) sum += t;
  EXPECT_NEAR(r.response_ms, sum / 3.0, 1e-9);
}

TEST(ExperimentTest, PerturbationSlowsStaticRun) {
  ExperimentParams base = SmallQ1();
  base.adaptivity = false;
  base.drift_sigma = 0;
  base.noise_stddev = 0;
  ExperimentResult baseline = RunExperiment(base);
  ASSERT_TRUE(baseline.ok) << baseline.error;

  ExperimentParams perturbed = base;
  perturbed.perturbations = {
      {0, PerturbSpec::Kind::kFactor, 10, 0, 0, 0, 0, 0}};
  ExperimentResult slow = RunExperiment(perturbed);
  ASSERT_TRUE(slow.ok) << slow.error;
  EXPECT_GT(slow.response_ms, 1.5 * baseline.response_ms);
}

TEST(ExperimentTest, InvalidPerturbationTargetFails) {
  ExperimentParams p = SmallQ1();
  p.perturbations = {{9, PerturbSpec::Kind::kFactor, 10, 0, 0, 0, 0, 0}};
  ExperimentResult r = RunExperiment(p);
  EXPECT_FALSE(r.ok);
  // Rejected before any grid is built, naming the cell.
  EXPECT_EQ(r.error.rfind("OutOfRange", 0), 0u) << r.error;
  EXPECT_NE(r.error.find("test-q1"), std::string::npos) << r.error;
  EXPECT_TRUE(r.rep_times_ms.empty());
}

TEST(ExperimentTest, NormalizedHelper) {
  ExperimentResult a;
  a.ok = true;
  a.response_ms = 150;
  ExperimentResult b;
  b.ok = true;
  b.response_ms = 100;
  EXPECT_DOUBLE_EQ(Normalized(a, b), 1.5);
  ExperimentResult bad;
  EXPECT_DOUBLE_EQ(Normalized(bad, b), 0.0);
}

TEST(ExperimentTest, QuerySqlAndTags) {
  EXPECT_NE(QuerySql(QueryKind::kQ1).find("EntropyAnalyser"),
            std::string::npos);
  EXPECT_NE(QuerySql(QueryKind::kQ2).find("protein_interactions"),
            std::string::npos);
  EXPECT_EQ(PerturbTag(QueryKind::kQ1), "ws:EntropyAnalyser");
  EXPECT_EQ(PerturbTag(QueryKind::kQ2), "op:hash_join");
}

TEST(ExperimentTest, DeterministicPerSeed) {
  ExperimentParams p = SmallQ1();
  ExperimentResult a = RunExperiment(p);
  ExperimentResult b = RunExperiment(p);
  ASSERT_TRUE(a.ok && b.ok);
  EXPECT_DOUBLE_EQ(a.response_ms, b.response_ms);
  p.seed = 999;
  ExperimentResult c = RunExperiment(p);
  ASSERT_TRUE(c.ok);
  EXPECT_NE(a.response_ms, c.response_ms);
}

TEST(ExperimentTest, AdmissionKeepsTheCellsMemoryBudget) {
  // Admission control with its default caps admits a lone query at once
  // and has no global budget to share out: the cell's flow control keeps
  // the per-query budget it asked for.
  ExperimentParams p;
  p.name = "flow-control";
  p.sequences = 1000;
  p.interactions = 1500;
  p.flow_control = true;
  p.memory_budget_bytes = 16 * 1024;
  p.repetitions = 1;
  const ExperimentResult alone = RunExperiment(p);
  ASSERT_TRUE(alone.ok) << alone.error;
  p.admission_control = true;
  const ExperimentResult admitted = RunExperiment(p);
  ASSERT_TRUE(admitted.ok) << admitted.error;
  EXPECT_EQ(admitted.stats.queued_bytes_peak, alone.stats.queued_bytes_peak);
  // The admission round trip costs the coordinator a little virtual time,
  // nothing like a budget eight times wider.
  EXPECT_NEAR(admitted.response_ms, alone.response_ms, 1.0);
}

TEST(GridSetupTest, TopologyAccessors) {
  GridOptions options;
  options.num_evaluators = 3;
  GridSetup grid(options);
  ASSERT_TRUE(grid.Initialize().ok());
  EXPECT_EQ(grid.coordinator_node()->id(), 0);
  EXPECT_EQ(grid.data_node()->id(), 1);
  EXPECT_EQ(grid.evaluator_node(2)->id(), 4);
  EXPECT_NE(grid.gqes_on(0), nullptr);
  EXPECT_EQ(grid.gqes_on(99), nullptr);
  EXPECT_EQ(grid.num_evaluators(), 3);
}

TEST(GridSetupTest, HeterogeneousCapacities) {
  GridOptions options;
  options.num_evaluators = 2;
  options.evaluator_capacities = {1.0, 2.0};
  GridSetup grid(options);
  ASSERT_TRUE(grid.Initialize().ok());
  EXPECT_DOUBLE_EQ(grid.evaluator_node(1)->capacity(), 2.0);
}

TEST(GridSetupTest, PerturbUnknownEvaluatorFails) {
  GridOptions options;
  GridSetup grid(options);
  ASSERT_TRUE(grid.Initialize().ok());
  EXPECT_TRUE(grid.PerturbEvaluator(5, "x", std::make_shared<NoPerturbation>())
                  .IsOutOfRange());
}

TEST(GridSetupTest, ZeroEvaluatorsRejected) {
  GridOptions options;
  options.num_evaluators = 0;
  GridSetup grid(options);
  EXPECT_TRUE(grid.Initialize().IsInvalidArgument());
}

}  // namespace
}  // namespace gqp
