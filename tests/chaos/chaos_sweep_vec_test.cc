// Batch-size chaos sweep (D13): 40 seeded scenarios through the full
// GDQS/GQES pipeline at operator batch sizes from 1 to 256, each
// checked against the system invariants (result-multiset correctness
// vs. the unperturbed oracle, tuple conservation, bounded memory, and
// termination). The batch size varies with the seed so the sweep covers
// degenerate single-tuple batches as well as batches far wider than the
// fragment queues. A red entry prints the scenario summary and the
// exact repro command (`chaos_repro --seed=N --batch=B`).

#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"

namespace gqp {
namespace chaos {
namespace {

// Exercised batch widths: 1 (the default), small primes (ragged final
// batches), the golden-trace width of 16, and sizes larger than most port
// queues ever hold.
constexpr size_t kBatchSizes[] = {1, 2, 7, 16, 64, 256};

class ChaosSweepVecTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ChaosSweepVecTest, InvariantsHold) {
  const uint64_t seed = GetParam();
  ChaosScenario scenario = GenerateScenario(seed);
  scenario.vector_batch_size =
      kBatchSizes[seed % (sizeof(kBatchSizes) / sizeof(kBatchSizes[0]))];
  const ChaosRunResult result = RunScenario(scenario);
  const std::string repro =
      ReproCommand(seed, ChaosProfile::kStandard, scenario.vector_batch_size);

  ASSERT_TRUE(result.status.ok())
      << result.status.ToString() << "\n  scenario: " << scenario.Describe()
      << "\n  repro: " << repro;
  EXPECT_TRUE(result.ok()) << result.Report()
                           << "\n  scenario: " << scenario.Describe();
  EXPECT_TRUE(result.completed) << "query never completed; repro: " << repro;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweepVecTest,
                         ::testing::Range<uint64_t>(1, 41),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Regression pin: seed 87 is the historical duplicate-build-insert /
// late-purge scenario (see chaos_sweep_test.cc); it applies 8 state-move
// rounds with resends, which must survive batch-granular stepping.
INSTANTIATE_TEST_SUITE_P(RegressionSeeds, ChaosSweepVecTest,
                         ::testing::Values<uint64_t>(87),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace chaos
}  // namespace gqp
