// Golden-fingerprint pinning. determinism_test.cc proves a seed replays
// identically *within* one binary; this test pins the absolute (event
// count, trace hash) of a handful of seeds against values recorded from
// the pre-hot-path-overhaul kernel, so any change to event ordering,
// sequence numbering, or scheduling behavior — however subtle — fails
// loudly instead of silently shifting every downstream result.
//
// Every scalar row is also replayed on the vectorized engine at batch
// size 1, which must reproduce it exactly (BatchOfOneTest).
//
// If a fingerprint changes *by design* (e.g. a new subsystem schedules
// extra events), re-record the constants with:
//   chaos_repro --seed=N [--lossy]
// and say so in the commit message.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"

namespace gqp {
namespace chaos {
namespace {

struct GoldenFingerprint {
  uint64_t seed;
  ChaosProfile profile;
  uint64_t events;
  uint64_t hash;
  bool vectorized = false;
};

// Recorded 2026-08 from the seed kernel (priority_queue + id map), before
// the pooled event pool / packed rows / flat join table landed. Seed 87
// is the historical duplicate-build-insert regression scenario.
constexpr GoldenFingerprint kGolden[] = {
    {1, ChaosProfile::kStandard, 4465, 0x1cec7d16215d2d6cULL},
    {13, ChaosProfile::kStandard, 8927, 0xba0d24135de482d7ULL},
    {29, ChaosProfile::kStandard, 6942, 0x4007ced18da45a10ULL},
    {47, ChaosProfile::kStandard, 6244, 0x54b118bfe5855babULL},
    {58, ChaosProfile::kStandard, 7715, 0x0acd6c9ef770b7b8ULL},
    {87, ChaosProfile::kStandard, 14526, 0xb29764efbe1b9b07ULL},
    {96, ChaosProfile::kStandard, 15644, 0xe8cc4f7b0c541cadULL},
    // Standard seed 6 fans join probes out (one probe row, several build
    // matches), where the order of a batch's charges decides the last bit
    // of its work item's duration; BatchOfOneTest replays it at batch 1.
    {6, ChaosProfile::kStandard, 11101, 0xf55d17bc5f778583ULL},
    {201, ChaosProfile::kLossy, 6999, 0x063fe15c9eb0a93bULL},
    {213, ChaosProfile::kLossy, 3550, 0xbe5189377fd8e54fULL},
    {240, ChaosProfile::kLossy, 6830, 0x3ecfcabd4e2146bfULL},
    // Flow-control profiles (D11), recorded 2026-08 when credit-based
    // flow control landed: park/unpark scheduling and credit-grant
    // traffic must replay bit-identically.
    {6, ChaosProfile::kSlowConsumer, 12664, 0x3dbc880d0e788913ULL},
    {3, ChaosProfile::kMemorySqueeze, 8960, 0xbb210f5865a4e957ULL},
    // Vectorized execution (D13) at the chaos batch size of 16: the same
    // 12 seeds pinned at batch-boundary event granularity (one work item
    // per batch changes simulated timing, so these differ from the scalar
    // rows above by design). A batch work item sums its rows' scalar
    // charges in scalar order. Re-record with:
    //   chaos_repro --seed=N [profile flag] --vectorized
    {1, ChaosProfile::kStandard, 2913, 0x9701c11ca61c74c1ULL, true},
    {13, ChaosProfile::kStandard, 5752, 0x00e52f2fd3d49f90ULL, true},
    {29, ChaosProfile::kStandard, 3054, 0xaf8a4877b3cba0a5ULL, true},
    {47, ChaosProfile::kStandard, 2967, 0x8daffdc032586cf2ULL, true},
    {58, ChaosProfile::kStandard, 3656, 0x87c2d884dc1cef17ULL, true},
    {87, ChaosProfile::kStandard, 12517, 0xd35acebf4380e1ffULL, true},
    {96, ChaosProfile::kStandard, 3746, 0x152e3dc219839b3eULL, true},
    {201, ChaosProfile::kLossy, 3840, 0x571ddbb29c2e16edULL, true},
    {213, ChaosProfile::kLossy, 1973, 0x3ccf21e267ed59a6ULL, true},
    {240, ChaosProfile::kLossy, 3946, 0x4eecd7c3f99537cbULL, true},
    {6, ChaosProfile::kSlowConsumer, 3950, 0x1735a5a58d606283ULL, true},
    {3, ChaosProfile::kMemorySqueeze, 5296, 0x480600ca54d86997ULL, true},
};

std::string ProfilePrefix(ChaosProfile profile) {
  switch (profile) {
    case ChaosProfile::kStandard:
      return "seed";
    case ChaosProfile::kLossy:
      return "lossy_seed";
    case ChaosProfile::kSlowConsumer:
      return "slow_seed";
    case ChaosProfile::kMemorySqueeze:
      return "squeeze_seed";
    case ChaosProfile::kMultiQuery:
      return "mq_seed";
    case ChaosProfile::kCoordinatorKill:
      return "coord_seed";
    case ChaosProfile::kTenantStorm:
      return "storm_seed";
  }
  return "seed";
}

class FingerprintTest
    : public ::testing::TestWithParam<GoldenFingerprint> {};

TEST_P(FingerprintTest, MatchesPrePoolKernel) {
  const GoldenFingerprint& golden = GetParam();
  ChaosScenario scenario = GenerateScenario(golden.seed, golden.profile);
  scenario.vectorized = golden.vectorized;
  const ChaosRunResult result = RunScenario(scenario, ChaosRunOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.trace_events, golden.events)
      << ReproCommand(golden.seed, golden.profile, golden.vectorized);
  EXPECT_EQ(result.trace_hash, golden.hash)
      << ReproCommand(golden.seed, golden.profile, golden.vectorized);
}

std::string GoldenName(
    const ::testing::TestParamInfo<GoldenFingerprint>& info) {
  return (info.param.vectorized ? "vec_" : "") +
         ProfilePrefix(info.param.profile) + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(GoldenSeeds, FingerprintTest,
                         ::testing::ValuesIn(kGolden), GoldenName);

// A batch of one row must cost exactly what one scalar tuple does, so
// every scalar row also pins the vectorized engine at batch size 1.
class BatchOfOneTest : public ::testing::TestWithParam<GoldenFingerprint> {};

TEST_P(BatchOfOneTest, MatchesScalarGolden) {
  const GoldenFingerprint& golden = GetParam();
  ChaosScenario scenario = GenerateScenario(golden.seed, golden.profile);
  scenario.vectorized = true;
  scenario.vector_batch_size = 1;
  const ChaosRunResult result = RunScenario(scenario, ChaosRunOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  const std::string where =
      "vectorized at batch size 1 vs the scalar run of " +
      ReproCommand(golden.seed, golden.profile, /*vectorized=*/false);
  EXPECT_EQ(result.trace_events, golden.events) << where;
  EXPECT_EQ(result.trace_hash, golden.hash) << where;
}

std::vector<GoldenFingerprint> ScalarGoldens() {
  std::vector<GoldenFingerprint> rows;
  for (const GoldenFingerprint& golden : kGolden) {
    if (!golden.vectorized) rows.push_back(golden);
  }
  return rows;
}

INSTANTIATE_TEST_SUITE_P(ScalarSeeds, BatchOfOneTest,
                         ::testing::ValuesIn(ScalarGoldens()), GoldenName);

}  // namespace
}  // namespace chaos
}  // namespace gqp
