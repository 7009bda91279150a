// Golden-fingerprint pinning. determinism_test.cc proves a seed replays
// identically *within* one binary; this test pins the absolute (event
// count, trace hash) of a handful of seeds against values recorded from
// the pre-hot-path-overhaul kernel, so any change to event ordering,
// sequence numbering, or scheduling behavior — however subtle — fails
// loudly instead of silently shifting every downstream result.
//
// Every batch-1 row is also replayed from an untouched generated scenario
// (BatchOfOneTest), which pins batch size 1 as the default.
//
// If a fingerprint changes *by design* (e.g. a new subsystem schedules
// extra events), re-record the constants with:
//   chaos_repro --seed=N [profile flag]
// and say so in the commit message.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "exec/exec_config.h"

namespace gqp {
namespace chaos {
namespace {

struct GoldenFingerprint {
  uint64_t seed;
  ChaosProfile profile;
  uint64_t events;
  uint64_t hash;
  /// Rows per operator batch (the chaos scenarios default to 1).
  size_t batch_size = 1;
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
    // matches), where the order of a work item's charges decides the last
    // bit of its duration.
    {6, ChaosProfile::kStandard, 11101, 0xf55d17bc5f778583ULL},
    {201, ChaosProfile::kLossy, 6999, 0x063fe15c9eb0a93bULL},
    {213, ChaosProfile::kLossy, 3550, 0xbe5189377fd8e54fULL},
    {240, ChaosProfile::kLossy, 6830, 0x3ecfcabd4e2146bfULL},
    // Flow-control profiles (D11), recorded 2026-08 when credit-based
    // flow control landed: park/unpark scheduling and credit-grant
    // traffic must replay bit-identically.
    {6, ChaosProfile::kSlowConsumer, 12664, 0x3dbc880d0e788913ULL},
    {3, ChaosProfile::kMemorySqueeze, 8960, 0xbb210f5865a4e957ULL},
    // Multi-query (D12), coordinator-kill (D14) and tenant-storm (D16)
    // profiles, recorded 2026-10 before the tenant-storm path was folded
    // into the one chaos runner: the merge must replay them unchanged.
    // Storm seed 415 crashes its evaluator while the detector is idle.
    {3, ChaosProfile::kMultiQuery, 11252, 0xa1f06ab77bcf4fe4ULL},
    {305, ChaosProfile::kCoordinatorKill, 16533, 0x043391f3ddc9905fULL},
    {401, ChaosProfile::kTenantStorm, 40305, 0xf849ccb36406ea29ULL},
    {415, ChaosProfile::kTenantStorm, 13900, 0x886aa1cf572ff899ULL},
    // Batch execution (D13) at 16 rows per batch: the same 12 seeds
    // pinned at batch-boundary event granularity (one work item per batch
    // changes simulated timing, so these differ from the batch-1 rows
    // above by design). A batch work item sums its rows' charges in row
    // order. Re-record with:
    //   chaos_repro --seed=N [profile flag] --batch=16
    {1, ChaosProfile::kStandard, 2913, 0x9701c11ca61c74c1ULL, 16},
    {13, ChaosProfile::kStandard, 5752, 0x00e52f2fd3d49f90ULL, 16},
    {29, ChaosProfile::kStandard, 3054, 0xaf8a4877b3cba0a5ULL, 16},
    {47, ChaosProfile::kStandard, 2967, 0x8daffdc032586cf2ULL, 16},
    {58, ChaosProfile::kStandard, 3656, 0x87c2d884dc1cef17ULL, 16},
    {87, ChaosProfile::kStandard, 12517, 0xd35acebf4380e1ffULL, 16},
    {96, ChaosProfile::kStandard, 3746, 0x152e3dc219839b3eULL, 16},
    {201, ChaosProfile::kLossy, 3840, 0x571ddbb29c2e16edULL, 16},
    {213, ChaosProfile::kLossy, 1973, 0x3ccf21e267ed59a6ULL, 16},
    {240, ChaosProfile::kLossy, 3946, 0x4eecd7c3f99537cbULL, 16},
    {6, ChaosProfile::kSlowConsumer, 3950, 0x1735a5a58d606283ULL, 16},
    {3, ChaosProfile::kMemorySqueeze, 5296, 0x480600ca54d86997ULL, 16},
    // The tenant storm's arrivals run at the scenario's batch size too.
    {401, ChaosProfile::kTenantStorm, 15685, 0x9e3c375fbf55bc5bULL, 16},
};

class FingerprintTest
    : public ::testing::TestWithParam<GoldenFingerprint> {};

TEST_P(FingerprintTest, MatchesPrePoolKernel) {
  const GoldenFingerprint& golden = GetParam();
  ChaosScenario scenario = GenerateScenario(golden.seed, golden.profile);
  scenario.vector_batch_size = golden.batch_size;
  const ChaosRunResult result = RunScenario(scenario, ChaosRunOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.trace_events, golden.events)
      << ReproCommand(golden.seed, golden.profile, golden.batch_size);
  EXPECT_EQ(result.trace_hash, golden.hash)
      << ReproCommand(golden.seed, golden.profile, golden.batch_size);
}

std::string GoldenName(
    const ::testing::TestParamInfo<GoldenFingerprint>& info) {
  const std::string name(GetProfileInfo(info.param.profile).name);
  return (info.param.batch_size != 1 ? "vec_" : "") + name +
         (name.empty() ? "" : "_") + "seed" + std::to_string(info.param.seed);
}

INSTANTIATE_TEST_SUITE_P(GoldenSeeds, FingerprintTest,
                         ::testing::ValuesIn(kGolden), GoldenName);

// The per-tuple goldens are the paper's M1 semantics, and they hold only
// while batch size 1 is the default. Every batch-1 row is replayed from a
// scenario left at its generated defaults, so flipping the default batch
// size (in the scenario or in ExecConfig) fails here even though the
// explicit-batch rows above still pass.
class BatchOfOneTest : public ::testing::TestWithParam<GoldenFingerprint> {};

TEST_P(BatchOfOneTest, MatchesScalarGolden) {
  const GoldenFingerprint& golden = GetParam();
  const ChaosScenario scenario = GenerateScenario(golden.seed, golden.profile);
  ASSERT_EQ(scenario.vector_batch_size, size_t{1});
  ASSERT_EQ(ExecConfig{}.vector_batch_size, size_t{1});
  const std::string repro = ReproCommand(golden.seed, golden.profile);
  EXPECT_EQ(repro.find("--batch"), std::string::npos) << repro;
  const ChaosRunResult result = RunScenario(scenario, ChaosRunOptions{});
  ASSERT_TRUE(result.status.ok()) << result.status.ToString();
  EXPECT_EQ(result.trace_events, golden.events) << repro;
  EXPECT_EQ(result.trace_hash, golden.hash) << repro;
}

std::vector<GoldenFingerprint> BatchOfOneGoldens() {
  std::vector<GoldenFingerprint> rows;
  for (const GoldenFingerprint& golden : kGolden) {
    if (golden.batch_size == 1) rows.push_back(golden);
  }
  return rows;
}

INSTANTIATE_TEST_SUITE_P(ScalarSeeds, BatchOfOneTest,
                         ::testing::ValuesIn(BatchOfOneGoldens()),
                         GoldenName);

}  // namespace
}  // namespace chaos
}  // namespace gqp
