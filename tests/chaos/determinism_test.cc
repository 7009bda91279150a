// Invariant (c): replay determinism. Running the same seeded scenario
// twice must schedule and execute exactly the same simulator events at
// exactly the same virtual times — checked by comparing the serialized
// event traces byte for byte — and must therefore produce identical
// results and counters.

#include <cstdint>

#include <gtest/gtest.h>

#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "chaos/trace.h"

namespace gqp {
namespace chaos {
namespace {

class DeterminismTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeterminismTest, IdenticalSeedsYieldIdenticalRuns) {
  const uint64_t seed = GetParam();
  const ChaosScenario scenario = GenerateScenario(seed);
  ChaosRunOptions options;
  options.keep_trace = true;

  const ChaosRunResult first = RunScenario(scenario, options);
  const ChaosRunResult second = RunScenario(scenario, options);

  ASSERT_TRUE(first.status.ok()) << first.status.ToString();
  ASSERT_TRUE(second.status.ok()) << second.status.ToString();

  // Byte-identical event traces: the strongest statement — every event at
  // every virtual time matched.
  EXPECT_EQ(first.trace_events, second.trace_events) << ReproCommand(seed);
  if (first.trace != second.trace) {
    const size_t line = FirstTraceDivergence(first.trace, second.trace);
    FAIL() << "event traces diverge at line " << line << " of "
           << first.trace_events << " events; " << ReproCommand(seed);
  }
  EXPECT_EQ(first.trace_hash, second.trace_hash) << ReproCommand(seed);

  // ...and with it, identical externally visible behavior.
  EXPECT_EQ(first.completed, second.completed);
  EXPECT_EQ(first.result_rows, second.result_rows);
  EXPECT_EQ(first.violations, second.violations);
  EXPECT_DOUBLE_EQ(first.response_ms, second.response_ms);
  EXPECT_DOUBLE_EQ(first.final_time_ms, second.final_time_ms);
  EXPECT_EQ(first.stats.rounds_started, second.stats.rounds_started);
  EXPECT_EQ(first.stats.rounds_applied, second.stats.rounds_applied);
  EXPECT_EQ(first.stats.resent_tuples, second.stats.resent_tuples);
  EXPECT_EQ(first.stats.discarded_tuples, second.stats.discarded_tuples);
  EXPECT_EQ(first.stats.tuples_per_evaluator,
            second.stats.tuples_per_evaluator);
}

// A dozen seeds spanning the scenario space: quiet runs, perturbed runs,
// failures, and link shifts (seeds overlap the sweep range, so any
// determinism failure here has a matching repro entry there).
INSTANTIATE_TEST_SUITE_P(ReplaySeeds, DeterminismTest,
                         ::testing::Values(1, 7, 13, 23, 29, 40, 47, 58, 64,
                                           74, 87, 96),
                         [](const ::testing::TestParamInfo<uint64_t>& info) {
                           return "seed" + std::to_string(info.param);
                         });

TEST(TraceDivergenceTest, ReportsFirstDifferingLine) {
  EXPECT_EQ(FirstTraceDivergence("a\nb\n", "a\nb\n"), 0u);
  EXPECT_EQ(FirstTraceDivergence("a\nb\n", "a\nc\n"), 2u);
  EXPECT_EQ(FirstTraceDivergence("a\n", "a\nb\n"), 2u);
  EXPECT_EQ(FirstTraceDivergence("", "x\n"), 1u);
}

// Every golden fingerprint is an FNV-1a hash over these lines: the bytes
// must not change, whatever renders them.
TEST(EventTraceRecorderTest, LinesAndHashArePinned) {
  EventTraceRecorder full(/*keep_full=*/true);
  EventTraceRecorder hash_only;
  for (EventTraceRecorder* recorder : {&full, &hash_only}) {
    recorder->Record(0.0, 0);
    recorder->Record(1.5, 1);
    recorder->Record(123.456, 4294967296ULL);  // an id >= 2^32
    recorder->Record(0.1, UINT64_MAX);
  }
  EXPECT_EQ(full.trace(),
            "0000000000000000:0\n"
            "3ff8000000000000:1\n"
            "405edd2f1a9fbe77:4294967296\n"
            "3fb999999999999a:18446744073709551615\n");
  EXPECT_EQ(full.hash(), 0xb2b3f488bbddb4c0ULL);
  EXPECT_EQ(full.events(), 4u);
  EXPECT_EQ(hash_only.hash(), full.hash());
  EXPECT_EQ(hash_only.trace(), "");
}

}  // namespace
}  // namespace chaos
}  // namespace gqp
