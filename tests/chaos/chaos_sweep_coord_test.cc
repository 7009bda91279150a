// Coordinator-kill chaos sweep (DESIGN.md §D14): each seed crashes the
// primary GDQS at a random time mid-workload with a standby mirroring it.
// The standby must take over under the fenced epoch, retry or serve every
// query, and hold all per-query invariants — with results byte-identical
// to a reference run of the same scenario where the primary survives.

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"

namespace gqp {
namespace chaos {
namespace {

class CoordinatorKillSweepTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CoordinatorKillSweepTest, TakeoverPreservesResults) {
  const uint64_t seed = GetParam();
  const ChaosScenario scenario =
      GenerateScenario(seed, ChaosProfile::kCoordinatorKill);
  ASSERT_TRUE(scenario.coordinator_standby);
  ASSERT_TRUE(scenario.coordinator_kill);
  ASSERT_TRUE(scenario.failures.empty());

  const ChaosRunResult result = RunScenario(scenario, ChaosRunOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.ok()) << result.Report() << "\n" << scenario.Describe();
  EXPECT_TRUE(result.completed) << scenario.Describe();

  // When the kill lands mid-query the takeover runs under epoch 1 and
  // reconciles every in-flight query; the generated deadlines are generous
  // (tens of seconds against sub-second queries), so nothing dies in
  // limbo. Some seeds draw a kill time past the last completion — then the
  // standby's watch has already stood down (nothing in flight to protect)
  // and no takeover happens, which is equally correct.
  if (result.takeover.taken_over) {
    EXPECT_EQ(result.takeover.epoch, 1u);
    EXPECT_GT(result.takeover.takeover_at_ms, scenario.coordinator_kill_at_ms);
    EXPECT_EQ(result.takeover.queries_terminated, 0) << scenario.Describe();
    EXPECT_EQ(result.takeover.queries_reconciled,
              result.takeover.queries_retried +
                  result.takeover.queries_served_mirrored);
    EXPECT_EQ(result.takeover.probe_replies, result.takeover.probes_sent);
  } else {
    EXPECT_EQ(result.takeover.epoch, 0u);
    // Every mirrored query had completed before the crash.
    EXPECT_EQ(result.mirror_entries, result.mirror_acked);
  }

  // Every query — the base one and the extras — finished with rows that
  // match the no-failure oracle exactly (checked inside the runner's
  // CheckResults; here we assert the outcomes surfaced per query).
  ASSERT_EQ(result.per_query.size(), 1 + scenario.extra_queries.size());
  for (const QueryOutcome& q : result.per_query) {
    EXPECT_TRUE(q.completed) << "q" << q.query_id << " incomplete — "
                             << scenario.Describe();
    EXPECT_GT(q.rows, 0u) << "q" << q.query_id;
  }

  // Reference leg: the identical scenario minus the kill. The standby
  // stays passive and the primary's own results must match what the
  // takeover produced (the runner already compared both against the
  // oracle multiset, so equality is transitive; assert the reference is
  // clean and takeover-free).
  ChaosScenario reference = scenario;
  reference.coordinator_kill = false;
  const ChaosRunResult ref = RunScenario(reference, ChaosRunOptions{});
  ASSERT_TRUE(ref.status.ok()) << ref.status.ToString();
  EXPECT_TRUE(ref.ok()) << ref.Report();
  EXPECT_FALSE(ref.takeover.taken_over);
  ASSERT_EQ(ref.per_query.size(), result.per_query.size());
  for (size_t i = 0; i < ref.per_query.size(); ++i) {
    EXPECT_EQ(ref.per_query[i].rows, result.per_query[i].rows)
        << "q" << ref.per_query[i].query_id << " row count diverged — "
        << scenario.Describe();
  }
  // Byte-identical base-query results (order-insensitive: the retried
  // incarnation's arrival order legitimately differs).
  std::vector<std::string> got = result.result_rows;
  std::vector<std::string> want = ref.result_rows;
  std::sort(got.begin(), got.end());
  std::sort(want.begin(), want.end());
  EXPECT_EQ(got, want) << scenario.Describe();
  // The passive mirror drains fully when the primary survives.
  EXPECT_EQ(ref.mirror_entries, ref.mirror_acked);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CoordinatorKillSweepTest,
                         ::testing::Range<uint64_t>(301, 341),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace chaos
}  // namespace gqp
