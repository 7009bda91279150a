#include "chaos/scenario.h"

#include <set>

#include <gtest/gtest.h>

namespace gqp {
namespace chaos {
namespace {

TEST(ScenarioTest, GenerationIsDeterministic) {
  for (uint64_t seed : {0ULL, 1ULL, 42ULL, 1234567ULL, 0xdeadbeefULL}) {
    const ChaosScenario a = GenerateScenario(seed);
    const ChaosScenario b = GenerateScenario(seed);
    EXPECT_EQ(a.Describe(), b.Describe()) << "seed " << seed;
    EXPECT_EQ(a.seed, seed);
    EXPECT_EQ(a.query, b.query);
    EXPECT_EQ(a.sequences, b.sequences);
    EXPECT_EQ(a.interactions, b.interactions);
    EXPECT_EQ(a.num_evaluators, b.num_evaluators);
    EXPECT_EQ(a.capacities, b.capacities);
    EXPECT_EQ(a.perturbations.size(), b.perturbations.size());
    for (size_t i = 0; i < a.perturbations.size(); ++i) {
      EXPECT_EQ(a.perturbations[i].Describe(), b.perturbations[i].Describe());
      EXPECT_EQ(a.perturbations[i].profile_seed,
                b.perturbations[i].profile_seed);
    }
    ASSERT_EQ(a.failures.size(), b.failures.size());
    for (size_t i = 0; i < a.failures.size(); ++i) {
      EXPECT_EQ(a.failures[i].evaluator, b.failures[i].evaluator);
      EXPECT_DOUBLE_EQ(a.failures[i].at_ms, b.failures[i].at_ms);
    }
    ASSERT_EQ(a.link_shifts.size(), b.link_shifts.size());
    for (size_t i = 0; i < a.link_shifts.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.link_shifts[i].params.latency_ms,
                       b.link_shifts[i].params.latency_ms);
    }
  }
}

TEST(ScenarioTest, DistinctSeedsProduceDistinctScenarios) {
  // Not a hard guarantee in general, but over a contiguous range the
  // generator must not collapse to a handful of shapes.
  std::set<std::string> shapes;
  for (uint64_t seed = 1; seed <= 64; ++seed) {
    shapes.insert(GenerateScenario(seed).Describe());
  }
  EXPECT_EQ(shapes.size(), 64u);
}

TEST(ScenarioTest, ParametersStayWithinGeneratorBounds) {
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    const ChaosScenario s = GenerateScenario(seed);
    EXPECT_GE(s.sequences, 150u) << seed;
    EXPECT_LE(s.sequences, 600u) << seed;
    EXPECT_GE(s.interactions, 200u) << seed;
    EXPECT_LE(s.interactions, 900u) << seed;
    EXPECT_GE(s.num_evaluators, 2) << seed;
    EXPECT_LE(s.num_evaluators, 4) << seed;
    ASSERT_EQ(s.capacities.size(), static_cast<size_t>(s.num_evaluators));
    for (double cap : s.capacities) {
      EXPECT_GE(cap, 0.5) << seed;
      EXPECT_LE(cap, 2.0) << seed;
    }
    EXPECT_GT(s.initial_link.latency_ms, 0.0) << seed;
    EXPECT_GT(s.initial_link.bandwidth_bytes_per_ms, 0.0) << seed;
    EXPECT_LE(s.perturbations.size(), 3u) << seed;
    EXPECT_LE(s.link_shifts.size(), 2u) << seed;
    for (const PerturbationEvent& ev : s.perturbations) {
      EXPECT_GE(ev.evaluator, 0) << seed;
      EXPECT_LT(ev.evaluator, s.num_evaluators) << seed;
      EXPECT_GE(ev.at_ms, 0.0) << seed;
    }
  }
}

TEST(ScenarioTest, AtLeastOneEvaluatorSurvivesEveryFailureSchedule) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    const ChaosScenario s = GenerateScenario(seed);
    EXPECT_LT(s.failures.size(), static_cast<size_t>(s.num_evaluators))
        << "seed " << seed << " kills every evaluator";
    std::set<int> victims;
    for (const FailureEvent& ev : s.failures) {
      EXPECT_GE(ev.evaluator, 0) << seed;
      EXPECT_LT(ev.evaluator, s.num_evaluators) << seed;
      EXPECT_TRUE(victims.insert(ev.evaluator).second)
          << "seed " << seed << " crashes evaluator " << ev.evaluator
          << " twice";
    }
  }
}

TEST(ScenarioTest, JoinQueriesAlwaysUseRetrospectiveResponse) {
  // R2 cannot preserve correctness for partitioned stateful operators;
  // the GDQS rejects that combination, so the generator must never
  // produce it.
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    const ChaosScenario s = GenerateScenario(seed);
    if (s.query == QueryKind::kQ2) {
      EXPECT_EQ(s.response, ResponseType::kRetrospective) << "seed " << seed;
    }
  }
}

TEST(ScenarioTest, ReproCommandNamesTheSeed) {
  EXPECT_EQ(ReproCommand(42), "chaos_repro --seed=42");
  EXPECT_EQ(ReproCommand(0), "chaos_repro --seed=0");
}

TEST(ScenarioTest, DescribeMentionsInjectedChaos) {
  // Find a seed with failures and one with perturbations; their one-line
  // summaries must surface the schedule (that line is what a red sweep
  // entry prints).
  bool saw_failure = false;
  bool saw_perturbation = false;
  for (uint64_t seed = 1; seed <= 100 && !(saw_failure && saw_perturbation);
       ++seed) {
    const ChaosScenario s = GenerateScenario(seed);
    const std::string desc = s.Describe();
    if (!s.failures.empty()) {
      saw_failure = true;
      EXPECT_NE(desc.find("fail=["), std::string::npos) << desc;
    }
    if (!s.perturbations.empty()) {
      saw_perturbation = true;
      EXPECT_NE(desc.find("perturb=["), std::string::npos) << desc;
    }
    EXPECT_NE(desc.find("seed=" + std::to_string(seed)), std::string::npos);
  }
  EXPECT_TRUE(saw_failure);
  EXPECT_TRUE(saw_perturbation);
}

TEST(ScenarioTest, StormDescribeIsPinned) {
  // The storm's one-line summary is what a red tenant-storm sweep entry
  // prints; however the storm is stored, it must render the same.
  EXPECT_EQ(
      GenerateScenario(401, ChaosProfile::kTenantStorm).Describe(),
      "seed=401 query=Q2 rows=80/120 evals=4 "
      "caps=[0.669369,1.38457,1.26261,1.42799] link=1.69664ms/17209.6 "
      "assess=A2 resp=R1 ckpt=25 m1=1 med=10 buf=10 fail=[t120.698:e3] "
      "fc=on budget=28672 storm=[tenants=2 rate=19.6382qps burst=3.99164x "
      "horizon=549.748ms queue=7 conc=3 pertenant=2 deadline=6941.66]");
  EXPECT_EQ(
      GenerateScenario(415, ChaosProfile::kTenantStorm).Describe(),
      "seed=415 query=Q1 rows=80/120 evals=2 caps=[1.87349,1.54135] "
      "link=1.99471ms/17829.8 assess=A1 resp=R1 ckpt=50 m1=1 med=10 buf=25 "
      "fail=[t84.6726:e0] fc=on budget=25600 storm=[tenants=3 "
      "rate=11.5378qps burst=2.78082x horizon=778.955ms queue=4 conc=4 "
      "pertenant=2 deadline=4081.02]");
}

}  // namespace
}  // namespace chaos
}  // namespace gqp
