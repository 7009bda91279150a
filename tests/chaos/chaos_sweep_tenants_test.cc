// Tenant-storm chaos sweep (DESIGN.md §D16): each seed drives an
// open-loop multi-tenant workload — one tenant bursting — through a GDQS
// with admission control while an evaluator crashes and the failure
// detector confirms it mid-storm. The runner holds the storm to the same
// invariants as every other profile: terminal trichotomy (every submitted
// query reaches exactly one of Complete/Aborted/Rejected), per-completed-
// query correctness against the no-failure oracle, conservation and
// bounded memory, detection latency, and the admission ledger; this test
// asserts the surfaced report is consistent with those checks.

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"

namespace gqp {
namespace chaos {
namespace {

class TenantStormSweepTest : public ::testing::TestWithParam<uint64_t> {};

void RunStorm(uint64_t seed, size_t batch_size) {
  ChaosScenario scenario = GenerateScenario(seed, ChaosProfile::kTenantStorm);
  scenario.vector_batch_size = batch_size;
  ASSERT_GE(scenario.storm.tenants.size(), 2u);
  ASSERT_EQ(scenario.failures.size(), 1u);

  const ChaosRunResult result = RunScenario(scenario, ChaosRunOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_TRUE(result.ok()) << result.Report() << "\n" << scenario.Describe();
  EXPECT_TRUE(result.completed) << scenario.Describe();

  // Terminal trichotomy: the storm submits an open-loop workload, an
  // evaluator dies mid-run, and still no query may linger unresolved.
  const DriverReport& w = result.workload;
  EXPECT_TRUE(w.trichotomy_ok) << scenario.Describe();
  EXPECT_EQ(w.unresolved, 0u);
  EXPECT_GT(w.submitted, 0u);
  EXPECT_EQ(w.submitted, w.completed + w.aborted + w.rejected);

  // The admission ledger must reconcile with the workload's view: every
  // rejection the driver observed is a queue-full rejection or a shed of
  // a queued entry, and the bounded queue never overflowed.
  EXPECT_EQ(result.admission.rejected_queue_full + result.admission.shed_queued,
            w.rejected)
      << scenario.Describe();
  EXPECT_LE(result.admission.queue_peak,
            scenario.admission.queue_capacity);
  EXPECT_EQ(result.admission.submitted, w.submitted);
  EXPECT_LE(result.admission.admitted, result.admission.submitted);

  // The generated storms offer more than the slots can drain, so the
  // controller must have been exercised: something completed (the grid
  // was not wedged) and per-tenant accounting adds up.
  EXPECT_GT(w.completed, 0u) << scenario.Describe();
  ASSERT_EQ(w.tenants.size(), scenario.storm.tenants.size());
  uint64_t tenant_submitted = 0;
  for (const TenantReport& t : w.tenants) {
    tenant_submitted += t.submitted;
    EXPECT_EQ(t.submitted, t.completed + t.aborted + t.rejected)
        << t.name << " — " << scenario.Describe();
  }
  EXPECT_EQ(tenant_submitted, w.submitted);
}

TEST_P(TenantStormSweepTest, OverloadDegradesGracefully) {
  RunStorm(GetParam(), 1);
}

// The same seeds at 16-row operator batches (D13).
TEST_P(TenantStormSweepTest, OverloadDegradesGracefullyInBatches) {
  RunStorm(GetParam(), 16);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TenantStormSweepTest,
                         ::testing::Range<uint64_t>(401, 441),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace chaos
}  // namespace gqp
