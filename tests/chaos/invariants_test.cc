#include "chaos/invariants.h"

#include <gtest/gtest.h>

#include <initializer_list>
#include <set>
#include <string>
#include <vector>

#include "chaos/runner.h"
#include "storage/datagen.h"

namespace gqp {
namespace chaos {
namespace {

// Q2-shaped result rows: one string column rendered as "[ORF0000i]".
std::vector<Tuple> Rows(std::initializer_list<size_t> orfs) {
  const SchemaPtr schema = MakeSchema({{"orf2", DataType::kString}});
  std::vector<Tuple> rows;
  for (const size_t orf : orfs) {
    rows.emplace_back(schema, std::vector<Value>{Value(OrfKey(orf))});
  }
  return rows;
}

std::multiset<std::string> Oracle(std::initializer_list<size_t> orfs) {
  std::multiset<std::string> oracle;
  for (const Tuple& row : Rows(orfs)) oracle.insert(row.ToString());
  return oracle;
}

struct RunFlags {
  bool failures_injected = false;
  uint64_t resent_tuples = 0;
  size_t max_fanout = 1;
};

std::vector<std::string> Check(const std::multiset<std::string>& oracle,
                               const std::vector<Tuple>& actual,
                               const RunFlags& run = {}) {
  std::vector<std::string> violations;
  CheckResults(oracle, actual, run.failures_injected, run.resent_tuples,
               run.max_fanout, &violations);
  return violations;
}

// The oracle used throughout: ORF00002 is wanted twice.
const std::multiset<std::string>& Want() {
  static const std::multiset<std::string> oracle = Oracle({3, 1, 2, 2});
  return oracle;
}

TEST(CheckResultsTest, ExactMatchInAnyOrderIsGreen) {
  EXPECT_TRUE(Check(Want(), Rows({2, 3, 2, 1})).empty());
  EXPECT_TRUE(Check({}, {}).empty());
}

TEST(CheckResultsTest, DroppedRowsAreLost) {
  EXPECT_EQ(Check(Want(), Rows({1, 2, 3})),
            std::vector<std::string>{
                "[results] lost result rows: [[ORF00002] (want 2, got 1)]"});
  EXPECT_EQ(Check(Want(), Rows({3, 2})),
            std::vector<std::string>{
                "[results] lost result rows: [[ORF00001] (want 1, got 0), "
                "[ORF00002] (want 2, got 1)]"});
  EXPECT_EQ(Check(Want(), {}),
            std::vector<std::string>{
                "[results] lost result rows: [[ORF00001] (want 1, got 0), "
                "[ORF00002] (want 2, got 0), [ORF00003] (want 1, got 0)]"});
}

TEST(CheckResultsTest, LongListsArePreviewedInSortedOrder) {
  const std::multiset<std::string> oracle =
      Oracle({10, 9, 8, 7, 6, 5, 4, 3, 2, 1});
  EXPECT_EQ(
      Check(oracle, {}),
      std::vector<std::string>{
          "[results] lost result rows: [[ORF00001] (want 1, got 0), "
          "[ORF00002] (want 1, got 0), [ORF00003] (want 1, got 0), "
          "[ORF00004] (want 1, got 0), [ORF00005] (want 1, got 0), "
          "[ORF00006] (want 1, got 0), [ORF00007] (want 1, got 0), "
          "[ORF00008] (want 1, got 0), ... (10 total)]"});
}

// Without failures the duplicate budget is zero, so any surplus row is
// reported against it.
TEST(CheckResultsTest, DuplicateWithoutFailureExceedsAZeroBudget) {
  EXPECT_EQ(Check(Want(), Rows({1, 2, 2, 3, 3})),
            std::vector<std::string>{
                "[results] 1 duplicate rows exceed the at-least-once budget "
                "of 0 (resent=0, fanout=1): [[ORF00003] (want 1, got 2)]"});
  // Replays without an injected failure do not earn a budget either.
  EXPECT_EQ(Check(Want(), Rows({1, 2, 2, 3, 9}), {false, 4, 3}),
            std::vector<std::string>{
                "[results] 1 duplicate rows exceed the at-least-once budget "
                "of 0 (resent=4, fanout=3): [[ORF00009] (want 0, got 1)]"});
}

// A duplicate that keeps the row count (it replaces a lost row) is named
// as a duplicate of an exactly-once run, next to the loss.
TEST(CheckResultsTest, DuplicateWithoutFailureIsNotExactlyOnce) {
  EXPECT_EQ(Check(Want(), Rows({1, 1, 2, 3})),
            (std::vector<std::string>{
                "[results] lost result rows: [[ORF00002] (want 2, got 1)]",
                "[results] duplicated rows without any failure injected "
                "(redistribution must be exactly-once): "
                "[[ORF00001] (want 1, got 2)]"}));
}

TEST(CheckResultsTest, DuplicatesWithinTheAtLeastOnceBudgetAreGreen) {
  // budget = resent x fanout = 2 x 2.
  const RunFlags run{true, 2, 2};
  EXPECT_TRUE(Check(Want(), Rows({1, 1, 2, 2, 2, 3, 3, 3}), run).empty());
}

TEST(CheckResultsTest, DuplicatesOverTheBudgetAreRed) {
  EXPECT_EQ(Check(Want(), Rows({1, 1, 2, 2, 2, 3, 7, 7}), {true, 3, 1}),
            std::vector<std::string>{
                "[results] 4 duplicate rows exceed the at-least-once budget "
                "of 3 (resent=3, fanout=1): [[ORF00001] (want 1, got 2), "
                "[ORF00002] (want 2, got 3), [ORF00007] (want 0, got 2)]"});
}

// At-least-once may add rows but never lose one: a duplicate that makes
// the row count come out right does not hide the loss.
TEST(CheckResultsTest, DuplicateDoesNotHideALossUnderAtLeastOnce) {
  EXPECT_EQ(Check(Want(), Rows({2, 2, 3, 3}), {true, 5, 2}),
            std::vector<std::string>{
                "[results] lost result rows: [[ORF00001] (want 1, got 0)]"});
}

// Invariant (g) end to end: a Q1 and an overlapping Q2 on a fault-free
// grid. The run is green only if each query's MED slice equals its own
// executors' M1/M2 sends and the slices sum to the MEDs' totals.
TEST(CheckMonitoringTest, OverlappingQueriesAreCreditedTheirOwnEvents) {
  ChaosScenario scenario;
  scenario.sequences = 200;
  scenario.interactions = 300;
  scenario.sequence_length = 16;
  scenario.response = ResponseType::kRetrospective;
  scenario.extra_queries = {{QueryKind::kQ2, 5.0}};
  const ChaosRunResult run = RunScenario(scenario);
  ASSERT_TRUE(run.ok()) << run.Summary();
  ASSERT_EQ(run.per_query.size(), 2u);
  for (const QueryOutcome& q : run.per_query) {
    EXPECT_GT(q.stats.raw_m1, 0u) << "q" << q.query_id;
  }
}

TEST(CheckMonitoringTest, EventsNoExecutorSentAreRed) {
  GridSetup grid(GridOptions{});
  ASSERT_TRUE(grid.Initialize().ok());
  QueryStatsSnapshot stats;
  stats.raw_m1 = 3;
  std::vector<std::string> violations;
  CheckMonitoring(&grid, 1, stats, &violations);
  CheckMonitoringTotals(&grid, 3, 0, &violations);
  EXPECT_EQ(violations,
            (std::vector<std::string>{
                "[monitoring] query 1 was credited raw_m1=3 raw_m2=0 but its "
                "executors sent 0 M1 and 0 M2 events",
                "[monitoring] per-query slices sum to raw_m1=3 raw_m2=0 but "
                "the MEDs counted 0 M1 and 0 M2 events"}));
}

}  // namespace
}  // namespace chaos
}  // namespace gqp
