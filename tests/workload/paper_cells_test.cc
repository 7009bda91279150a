// Exact pins of small paper cells. BENCH_paper.json prints %.6g, so a
// change in how a run is built could move a figure past its sixth digit
// and still pass there; these pin every repetition's virtual response time
// bit-for-bit (%.17g literals), its row count, and the last repetition's
// adaptation counters. Virtual time is deterministic: any difference is a
// behaviour change.

#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "chaos/runner.h"

namespace gqp {
namespace {

struct PinnedCell {
  std::string name;
  std::function<void(ExperimentParams&)> delta;
  std::vector<double> rep_times_ms;
  std::vector<size_t> rep_rows;
  uint64_t rounds_applied;
  uint64_t raw_m1;
  std::vector<uint64_t> tuples_per_evaluator;
};

PerturbSpec Factor(int evaluator, double factor) {
  return {evaluator, PerturbSpec::Kind::kFactor, factor, 0, 0, 0, 0, 0};
}

/// The pin a cell would need, as a C++ initializer (printed on mismatch).
std::string Render(const ExperimentResult& r) {
  std::string out = "{";
  for (size_t i = 0; i < r.rep_times_ms.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%s%.17g", i > 0 ? ", " : "",
                  r.rep_times_ms[i]);
    out += buf;
  }
  out += "}, {";
  for (size_t i = 0; i < r.rep_rows.size(); ++i) {
    out += (i > 0 ? ", " : "") + std::to_string(r.rep_rows[i]);
  }
  out += "}, " + std::to_string(r.stats.rounds_applied) + ", " +
         std::to_string(r.stats.raw_m1) + ", {";
  for (size_t i = 0; i < r.stats.tuples_per_evaluator.size(); ++i) {
    out += (i > 0 ? ", " : "") +
           std::to_string(r.stats.tuples_per_evaluator[i]);
  }
  return out + "}";
}

TEST(ExperimentTest, PaperCellsArePinned) {
  const std::vector<PinnedCell> cells = {
      {"q1-static-drift", [](ExperimentParams& p) { p.adaptivity = false; },
       {321.04303446420795, 316.27130421824819},
       {1000, 1000}, 0, 0, {500, 500}},
      {"factor-noise",
       [](ExperimentParams& p) { p.perturbations = {Factor(0, 10)}; },
       {524.17234962908321, 530.28062830244403},
       {1000, 1000}, 1, 199, {233, 767}},
      {"factor-exact",
       [](ExperimentParams& p) {
         p.perturbations = {Factor(0, 10)};
         p.noise_stddev = 0;
       },
       {520.73120000000131, 527.14792000000114},
       {1000, 1000}, 1, 199, {232, 768}},
      {"none",
       [](ExperimentParams& p) {
         p.perturbations = {{0, PerturbSpec::Kind::kNone, 1, 0, 0, 0, 0, 0}};
       },
       {328.68144000000387, 328.03144000000435},
       {1000, 1000}, 0, 200, {500, 500}},
      {"q2-r1-sleep",
       [](ExperimentParams& p) {
         p.query = QueryKind::kQ2;
         p.response = ResponseType::kRetrospective;
         p.perturbations = {{0, PerturbSpec::Kind::kSleep, 1, 10, 0, 0, 0, 0}};
       },
       {9148.0926400000335, 9273.7491600000358},
       {1500, 1500}, 4, 508, {393, 2364}},
      {"gaussian",
       [](ExperimentParams& p) {
         p.response = ResponseType::kRetrospective;
         p.perturbations = {
             {0, PerturbSpec::Kind::kGaussianFactor, 0, 0, 30, 5, 20, 40}};
       },
       {602.08509257976971, 592.95649539754299},
       {1000, 1000}, 3, 199, {501, 1417}},
      {"three-evaluators",
       [](ExperimentParams& p) {
         p.num_evaluators = 3;
         p.response = ResponseType::kRetrospective;
         p.perturbations = {Factor(0, 20), Factor(1, 20)};
       },
       {449.23229965736795, 620.50903204715155},
       {1000, 1000}, 3, 199, {301, 301, 1666}},
      {"failure-detection",
       [](ExperimentParams& p) {
         p.failure_detection = true;
         p.perturbations = {Factor(0, 10)};
       },
       {524.23762962908347, 530.34590830244406},
       {1000, 1000}, 1, 199, {233, 767}},
      {"flow-control",
       [](ExperimentParams& p) {
         p.flow_control = true;
         p.memory_budget_bytes = 16 * 1024;
         p.perturbations = {Factor(0, 10)};
       },
       {441.50815481018731, 483.29150746495691},
       {1000, 1000}, 4, 199, {156, 844}},
      {"standby",
       [](ExperimentParams& p) {
         p.coordinator_standby = true;
         p.perturbations = {Factor(0, 10)};
       },
       {524.17234962908321, 530.28062830244403},
       {1000, 1000}, 1, 199, {233, 767}},
      {"admission",
       [](ExperimentParams& p) {
         p.admission_control = true;
         p.perturbations = {Factor(0, 10)};
       },
       {524.1994696290833, 530.307748302444}, {1000, 1000}, 1, 199, {233, 767}},
  };
  for (const PinnedCell& cell : cells) {
    ExperimentParams p;
    p.name = cell.name;
    p.sequences = 1000;
    p.interactions = 1500;
    p.sequence_length = 30;
    p.repetitions = 2;
    cell.delta(p);
    const ExperimentResult r = RunExperiment(p);
    ASSERT_TRUE(r.ok) << cell.name << ": " << r.error;
    const std::string actual = Render(r);
    EXPECT_EQ(r.rep_times_ms, cell.rep_times_ms)
        << cell.name << ": " << actual;
    EXPECT_EQ(r.rep_rows, cell.rep_rows) << cell.name << ": " << actual;
    EXPECT_EQ(r.stats.rounds_applied, cell.rounds_applied)
        << cell.name << ": " << actual;
    EXPECT_EQ(r.stats.raw_m1, cell.raw_m1) << cell.name << ": " << actual;
    EXPECT_EQ(r.stats.tuples_per_evaluator, cell.tuples_per_evaluator)
        << cell.name << ": " << actual;
  }
}

}  // namespace
}  // namespace gqp
