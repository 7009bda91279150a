// The paper's evaluation (Section 3.2: Table 1, Figs. 2-5, the overheads
// and the monitoring message volumes) plus the tuning ablation, held as
// data. Each figure is a grid of cells over one base ExperimentParams;
// each claim bounds ratios of its cells. One runner
// executes every distinct parameter set once (3 seeded repetitions, as in
// the paper), one printer renders every figure as a markdown grid, every
// value lands in BENCH_paper.json as "<figure>.<key>", and the binary exits
// non-zero naming the figure, the claim and the values when a claim fails.
// Registered with ctest under the label "paper".

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "bench/bench_util.h"

using namespace gqp;
using namespace gqp::bench;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNoPaper = std::numeric_limits<double>::quiet_NaN();

using Delta = std::function<void(ExperimentParams&)>;
using Keys = std::vector<std::string>;
using Pairs = std::vector<std::pair<std::string, std::string>>;

/// What a cell reports of its run, and its print format. Without `of` the
/// cell reports its run's ratio to the cell's static baseline.
struct Report {
  std::function<double(const ExperimentResult&)> of{};
  const char* format = "%.3f";
};

const Report kVirtualMs{[](const ExperimentResult& r) { return r.response_ms; },
                        "%.1f ms"};

/// The larger over the smaller tuple count of the monitored fragment's
/// first two evaluators (1 with fewer, 0 when one of them got none).
const Report kTupleRatio{[](const ExperimentResult& r) {
                           const std::vector<uint64_t>& tuples =
                               r.stats.tuples_per_evaluator;
                           if (tuples.size() < 2) return 1.0;
                           const double a = static_cast<double>(tuples[0]);
                           const double b = static_cast<double>(tuples[1]);
                           if (a <= 0 || b <= 0) return 0.0;
                           return std::max(a, b) / std::min(a, b);
                         },
                         "%.2f"};

/// One of the last repetition's self-monitoring counters.
Report Counter(uint64_t QueryStatsSnapshot::*counter) {
  return {[=](const ExperimentResult& r) {
            return static_cast<double>(r.stats.*counter);
          },
          "%.0f"};
}

/// One row or column of a figure's grid.
struct Axis {
  std::string label;
  /// Key fragment. A column's fragment holds '*' where the row's goes:
  /// column "noad_*" and row "10x" make the cell "noad_10x".
  std::string key;
  Delta delta;  // applied to the figure's base, row first; empty = none
  /// The delta also shapes the static run the cell is normalised by
  /// (query, response type or dataset size), not only the measured run.
  bool workload = false;
  /// Column only: what the cell reports of its run.
  Report report{};
};

/// Claim right-hand sides that are not cells.
const std::string kPaper = "@paper";  // the lhs cell's published value
const std::string kUnit = "@1";       // 1, i.e. the static baseline

/// A shape claim: lo <= lhs / rhs <= hi for every pair (strict bounds when
/// `strict`) or, when `rows` is set, every repetition of every lhs cell
/// returns exactly `rows` rows. A key names a cell of the claim's own
/// figure, or of another one when written "<figure>.<key>".
struct Claim {
  std::string text;
  Pairs pairs{};
  double lo = 0.0;
  double hi = kInf;
  bool strict = false;
  size_t rows = 0;
};

struct Figure {
  std::string name;  // key prefix: the retired per-figure binary's name
  std::string title;
  std::string row_header;
  ExperimentParams base{};
  std::vector<Axis> rows{}, cols{};
  std::map<std::string, double> paper{};  // published values by cell key
  std::vector<Claim> claims{};
};

// --- claims ---------------------------------------------------------------

Claim Less(std::string text, Pairs pairs) {
  return {std::move(text), std::move(pairs), 0.0, 1.0, true};
}
Claim AtMost(std::string text, Pairs pairs, double bound) {
  return {std::move(text), std::move(pairs), 0.0, bound};
}
Claim AtLeast(std::string text, Pairs pairs, double bound) {
  return {std::move(text), std::move(pairs), bound, kInf};
}
Claim Within(std::string text, Pairs pairs, double tolerance) {
  return {std::move(text), std::move(pairs), 1 - tolerance, 1 + tolerance};
}
Claim Rows(std::string text, const Keys& keys, size_t rows) {
  Claim claim{.text = std::move(text), .rows = rows};
  for (const std::string& key : keys) claim.pairs.emplace_back(key, "");
  return claim;
}

/// Fill("ad_*x", "10") == "ad_10x"; a pattern without '*' is kept.
std::string Fill(std::string pattern, const std::string& fragment) {
  const size_t star = pattern.find('*');
  if (star != std::string::npos) pattern.replace(star, 1, fragment);
  return pattern;
}
/// (Fill(lhs, f), Fill(rhs, f)) for every fragment f.
Pairs Over(const std::string& lhs, const std::string& rhs, const Keys& frags) {
  Pairs pairs;
  for (const std::string& f : frags) {
    pairs.emplace_back(Fill(lhs, f), Fill(rhs, f));
  }
  return pairs;
}
/// Consecutive fragments: under Less, the series strictly increases.
Pairs Chain(const std::string& pattern, const Keys& frags) {
  Pairs pairs;
  for (size_t i = 0; i + 1 < frags.size(); ++i) {
    pairs.emplace_back(Fill(pattern, frags[i]), Fill(pattern, frags[i + 1]));
  }
  return pairs;
}
/// Every ordered pair: under AtMost(b), max/min over the series is <= b.
Pairs AllPairs(const std::string& pattern, const Keys& frags) {
  Pairs pairs;
  for (const std::string& a : frags) {
    for (const std::string& b : frags) {
      if (a != b) pairs.emplace_back(Fill(pattern, a), Fill(pattern, b));
    }
  }
  return pairs;
}

// --- parameter deltas -----------------------------------------------------

// With adaptivity off its knobs change nothing, so they are reset to the
// defaults: static cells that differ only there intern to one run.
void Static(ExperimentParams& p) {
  const ExperimentParams defaults;
  p.adaptivity = false;
  p.assessment = defaults.assessment;
  p.response = defaults.response;
  p.thres_m = defaults.thres_m;
  p.thres_a = defaults.thres_a;
  p.med_window = defaults.med_window;
}

PerturbSpec FactorSpec(int evaluator, double factor) {
  return {evaluator, PerturbSpec::Kind::kFactor, factor, 0, 0, 0, 0, 0};
}
PerturbSpec SleepSpec(double ms) {
  return {0, PerturbSpec::Kind::kSleep, 1.0, ms, 0, 0, 0, 0};
}
/// The first `machines` evaluators' WS call `factor` times costlier.
Delta Factor(double factor, int machines = 1) {
  return [=](ExperimentParams& p) {
    for (int m = 0; m < machines; ++m) {
      p.perturbations.push_back(FactorSpec(m, factor));
    }
  };
}
/// Table 1's imbalance for the row's query: one WS call 10x costlier (Q1),
/// sleep(10 ms) before each join tuple on one machine (Q2).
void Imbalance(ExperimentParams& p) {
  p.perturbations = {p.query == QueryKind::kQ2 ? SleepSpec(10)
                                               : FactorSpec(0, 10)};
}

ExperimentParams Base(QueryKind query, ResponseType response,
                      int evaluators = 2) {
  ExperimentParams p;
  p.query = query;
  p.response = response;
  p.num_evaluators = evaluators;
  return p;
}

/// Axis whose delta sets the query, the assessment and the response type.
Axis Policy(const char* label, const char* key, QueryKind q, AssessmentType a,
            ResponseType r, bool workload) {
  return {label, key,
          [=](ExperimentParams& p) {
            p.query = q;
            p.assessment = a;
            p.response = r;
          },
          workload};
}

// --- the evaluation -------------------------------------------------------

std::vector<Figure> PaperFigures() {
  constexpr auto kQ1 = QueryKind::kQ1;
  constexpr auto kQ2 = QueryKind::kQ2;
  constexpr auto kA1 = AssessmentType::kA1;
  constexpr auto kR1 = ResponseType::kRetrospective;
  constexpr auto kR2 = ResponseType::kProspective;
  const Keys factors = {"10", "20", "30"};
  const std::vector<Axis> factor_rows = {{"10×", "10x", Factor(10)},
                                         {"20×", "20x", Factor(20)},
                                         {"30×", "30x", Factor(30)}};
  const std::vector<Axis> static_adaptive = {{"static", "noad_*", Static},
                                             {"adaptive", "ad_*", {}}};
  std::vector<Figure> figures;

  const Keys t1_rows = {"Q1_R2", "Q1_R1", "Q2_R1"};
  figures.push_back(
      {.name = "table1",
       .title = "Table 1 — normalised response times",
       .row_header = "query - response",
       .rows = {Policy("Q1 - R2", "Q1_R2", kQ1, kA1, kR2, true),
                Policy("Q1 - R1", "Q1_R1", kQ1, kA1, kR1, true),
                Policy("Q2 - R1", "Q2_R1", kQ2, kA1, kR1, true)},
       .cols = {{"no ad / no imb", "*_base_ms", Static, false, kVirtualMs},
                {"ad / no imb", "*_ad_noimb", {}},
                {"no ad / imb", "*_noad_imb",
                 [](ExperimentParams& p) {
                   Static(p);
                   Imbalance(p);
                 }},
                {"ad / imb", "*_ad_imb", Imbalance}},
       .paper = {{"Q1_R2_ad_noimb", 1.059}, {"Q1_R2_noad_imb", 3.53},
                 {"Q1_R2_ad_imb", 1.45},    {"Q1_R1_ad_noimb", 1.15},
                 {"Q1_R1_noad_imb", 3.53},  {"Q1_R1_ad_imb", 1.57},
                 {"Q2_R1_ad_noimb", 1.11},  {"Q2_R1_noad_imb", 1.71},
                 {"Q2_R1_ad_imb", 1.31}},
       .claims = {
           Within("static/imbalanced is within ±5 % of the paper",
                  Over("*_noad_imb", kPaper, t1_rows), 0.05),
           Less("ad/imb < noad/imb in every row",
                Over("*_ad_imb", "*_noad_imb", t1_rows)),
           Less("Q1: R1 is costlier than R2 at ad/no-imb and at ad/imb",
                Over("Q1_R2_*", "Q1_R1_*", {"ad_noimb", "ad_imb"}))}});

  figures.push_back(
      {.name = "fig2a",
       .title = "Fig. 2(a) — Q1, prospective adaptations (A1 + R2), one WS "
                "call 10/20/30× costlier",
       .row_header = "perturbation",
       .base = Base(kQ1, kR2),
       .rows = factor_rows,
       .cols = static_adaptive,
       .paper = {{"noad_10x", 3.53}, {"noad_20x", 6.66}, {"noad_30x", 9.76},
                 {"ad_10x", 1.45}, {"ad_20x", 2.48}, {"ad_30x", 3.79}},
       .claims = {
           Less("static strictly increases with the factor",
                Chain("noad_*x", factors)),
           Within("static is within ±10 % of the paper",
                  Over("noad_*x", kPaper, factors), 0.10),
           AtLeast("static/adaptive ≥ 2 at every factor",
                   Over("noad_*x", "ad_*x", factors), 2.0)}});

  figures.push_back(
      {.name = "fig2b",
       .title = "Fig. 2(b) — Q1 under adaptivity policies",
       .row_header = "perturbation",
       .base = Base(kQ1, kR2),
       .rows = factor_rows,
       .cols = {Policy("A1+R2", "A1_R2_*", kQ1, kA1, kR2, false),
                Policy("A1+R1", "A1_R1_*", kQ1, kA1, kR1, false),
                Policy("A2+R2", "A2_R2_*", kQ1, AssessmentType::kA2, kR2,
                       false)},
       .claims = {Less("A1+R2 < A2+R2 at every factor",
                       Over("A1_R2_*x", "A2_R2_*x", factors)),
                  Less("A1+R1 < A1+R2 at 20× and 30×",
                       Over("A1_R1_*x", "A1_R2_*x", {"20", "30"})),
                  AtMost("A1+R1 stays flat: 30× / 10× ≤ 1.10",
                         {{"A1_R1_30x", "A1_R1_10x"}}, 1.10)}});

  auto sleep = [](const char* label, const char* key, double ms) {
    return Axis{label, key, [=](ExperimentParams& p) {
                  p.perturbations = {SleepSpec(ms)};
                }};
  };
  const Keys sleeps = {"10", "50", "100"};
  figures.push_back(
      {.name = "fig3a",
       .title = "Fig. 3(a) — Q2, retrospective adaptations (A1 + R1), sleep "
                "before each join tuple on one machine",
       .row_header = "sleep",
       .base = Base(kQ2, kR1),
       .rows = {sleep("10 ms", "10ms", 10), sleep("50 ms", "50ms", 50),
                sleep("100 ms", "100ms", 100)},
       .cols = static_adaptive,
       .paper = {{"noad_10ms", 1.71}, {"ad_10ms", 1.31}},
       .claims = {
           Less("static strictly increases with the sleep",
                Chain("noad_*ms", sleeps)),
           Less("adaptive < static in every cell",
                Over("ad_*ms", "noad_*ms", sleeps)),
           AtMost("adaptive max/min ≤ 1.10", AllPairs("ad_*ms", sleeps),
                  1.10),
           Rows("every repetition of every Q2 cell (Table 1 included) "
                "returns 4700 rows",
                {"baseline_ms", "noad_10ms", "noad_50ms", "noad_100ms",
                 "ad_10ms", "ad_50ms", "ad_100ms", "table1.Q2_R1_base_ms",
                 "table1.Q2_R1_ad_noimb", "table1.Q2_R1_noad_imb",
                 "table1.Q2_R1_ad_imb"},
                4700)}});

  Figure fig3b{
      .name = "fig3b",
      .title = "Fig. 3(b) — Q1, prospective adaptations, doubled data size",
      .row_header = "tuples, perturbation",
      .base = Base(kQ1, kR2),
      .cols = static_adaptive,
      .claims = {Less("the 6000-tuple adaptive value < the 3000-tuple one at "
                      "every factor",
                      Over("ad_6000_*x", "ad_3000_*x", factors))}};
  for (const size_t tuples : {3000, 6000}) {
    for (const std::string& k : factors) {
      const Delta factor = Factor(std::stod(k));
      fig3b.rows.push_back({StrCat(tuples, ", ", k, "×"),
                            StrCat(tuples, "_", k, "x"),
                            [=](ExperimentParams& p) {
                              p.sequences = tuples;
                              factor(p);
                            },
                            true});
    }
  }
  figures.push_back(fig3b);

  Figure fig4{
      .name = "fig4",
      .title = "Fig. 4(a-c) — Q1, retrospective adaptations, 3 evaluators, "
               "0-3 machines perturbed",
      .row_header = "perturbation, #perturbed",
      .base = Base(kQ1, kR1, 3),
      .cols = static_adaptive,
      .claims = {
          Less("adaptive < static with 1 or 2 machines perturbed",
               Over("ad_*", "noad_*",
                    {"10x_1m", "10x_2m", "20x_1m", "20x_2m", "30x_1m",
                     "30x_2m"})),
          Within("with all 3 perturbed, adaptive is within 1 % of static",
                 Over("ad_*x_3m", "noad_*x_3m", factors), 0.01),
          AtMost("adaptive ≤ 1.5 whenever a machine is left unperturbed",
                 Over("ad_*", kUnit,
                      {"10x_0m", "10x_1m", "10x_2m", "20x_0m", "20x_1m",
                       "20x_2m", "30x_0m", "30x_1m", "30x_2m"}),
                 1.5)}};
  for (const std::string& k : factors) {
    for (int machines = 0; machines <= 3; ++machines) {
      fig4.rows.push_back({StrCat(k, "×, ", machines),
                           StrCat(k, "x_", machines, "m"),
                           Factor(std::stod(k), machines)});
    }
  }
  figures.push_back(fig4);

  auto band = [](const char* label, const char* key, double lo, double hi,
                 double stddev) {
    return Axis{label, key, [=](ExperimentParams& p) {
                  p.perturbations = {{0, PerturbSpec::Kind::kGaussianFactor,
                                      0, 0, 30, stddev, lo, hi}};
                }};
  };
  const Keys bands = {"30_30", "25_35", "20_40", "1_60"};
  figures.push_back(
      {.name = "fig5",
       .title = "Fig. 5 — Q1, per-tuple WS cost factor ~ N(30, sd) truncated "
                "to the band",
       .row_header = "factor band",
       .base = Base(kQ1, kR2),
       .rows = {{"[30,30] (stable)", "30_30",
                 [](ExperimentParams& p) {
                   p.perturbations = {FactorSpec(0, 30)};
                   p.noise_stddev = 0;  // the exact stable 30x bar
                 }},
                band("[25,35]", "25_35", 25, 35, 2.5),
                band("[20,40]", "20_40", 20, 40, 5.0),
                band("[1,60]", "1_60", 1, 60, 15.0)},
       .cols = {Policy("prospective (R2)", "R2_*", kQ1, kA1, kR2, false),
                Policy("retrospective (R1)", "R1_*", kQ1, kA1, kR1, false)},
       .claims = {AtMost("R2: band max/min ≤ 1.10", AllPairs("R2_*", bands),
                         1.10),
                  AtMost("R1: band max/min ≤ 1.10", AllPairs("R1_*", bands),
                         1.10),
                  Less("R1 < R2 in every band", Over("R1_*", "R2_*", bands))}});

  // An extension: the paper fixes thresA = thresM = 20 % and a MED window
  // of 25 notifications, and leaves tuning them to future work.
  Figure ablation{
      .name = "ablation",
      .title = "Ablation — thresA, MED window and thresM sweeps (Q1, one WS "
               "call 10× costlier, A1 + R1)",
      .row_header = "setting",
      .base = Base(kQ1, kR1),
      .cols = {{"adaptive", "*", {}}}};
  ablation.base.perturbations = {FactorSpec(0, 10)};
  for (const double a : {0.05, 0.10, 0.20, 0.40, 0.80}) {
    ablation.rows.push_back({StrCat("thresA ", a), StrCat("thresA_", a),
                             [=](ExperimentParams& p) { p.thres_a = a; }});
  }
  for (const size_t w : {5, 10, 25, 50, 100}) {
    ablation.rows.push_back({StrCat("window ", w), StrCat("window_", w),
                             [=](ExperimentParams& p) { p.med_window = w; }});
  }
  for (const double m : {0.05, 0.10, 0.20, 0.40}) {
    ablation.rows.push_back({StrCat("thresM ", m), StrCat("thresM_", m),
                             [=](ExperimentParams& p) { p.thres_m = m; }});
  }
  Keys settings;
  for (const Axis& row : ablation.rows) settings.push_back(row.key);
  ablation.claims = {Within("every cell is within ±10 % of the default cell",
                            Over("*", "thresA_0.2", settings), 0.10)};
  figures.push_back(ablation);

  // §3.2's overheads: adaptivity and each control-plane extension switched
  // on over a static, unimbalanced Q1.
  auto adaptive = [](ResponseType r) -> Delta {
    return [=](ExperimentParams& p) {
      p.adaptivity = true;
      p.response = r;
    };
  };
  Figure overheads{
      .name = "overheads",
      .title = "Overheads — Q1 without imbalance: adaptivity and the control "
               "plane over the static system",
      .row_header = "switched on",
      .base = Base(kQ1, kR2),
      .rows = {{"adaptivity, R2", "R2", adaptive(kR2)},
               {"adaptivity, R1", "R1", adaptive(kR1)},
               {"failure detection", "heartbeat",
                [](ExperimentParams& p) { p.failure_detection = true; }},
               {"flow control (4 MiB)", "flow_control",
                [](ExperimentParams& p) {
                  p.flow_control = true;
                  p.memory_budget_bytes = 4 << 20;
                }},
               {"coordinator standby", "standby",
                [](ExperimentParams& p) { p.coordinator_standby = true; }},
               {"admission control", "admission",
                [](ExperimentParams& p) { p.admission_control = true; }}},
      .cols = {{"normalised", "*", {}},
               {"tuple ratio", "*_tuple_ratio", {}, false, kTupleRatio}},
      .paper = {{"R2", 1.059}, {"R1", 1.153},
                {"R2_tuple_ratio", 1.21}, {"R1_tuple_ratio", 1.01}},
      .claims = {AtMost("each control-plane extension costs ≤ 5 % when "
                        "nothing fails or overloads",
                        Over("*", kUnit,
                             {"heartbeat", "flow_control", "standby",
                              "admission"}),
                        1.05)}};
  Static(overheads.base);
  figures.push_back(overheads);

  // §3.2's message volumes: raw M1/M2 events, MED digests to the Diagnoser,
  // its proposals and the rebalances applied (last repetition), by how
  // often M1 is sampled.
  Figure monitoring{
      .name = "monitoring",
      .title = "Monitoring — Q1, A1 + R2, one WS call 10× costlier, M1 raised "
               "every 10/20/30 tuples or never",
      .row_header = "M1 frequency",
      .base = Base(kQ1, kR2),
      .cols = {{"normalised", "freq_*", {}},
               {"raw M1", "raw_m1_*", {}, false,
                Counter(&QueryStatsSnapshot::raw_m1)},
               {"raw M2", "raw_m2_*", {}, false,
                Counter(&QueryStatsSnapshot::raw_m2)},
               {"MED digests", "digests_*", {}, false,
                Counter(&QueryStatsSnapshot::med_notifications)},
               {"proposals", "proposals_*", {}, false,
                Counter(&QueryStatsSnapshot::diagnoser_proposals)},
               {"rebalances", "rebalances_*", {}, false,
                Counter(&QueryStatsSnapshot::rounds_applied)}},
      .claims = {
          Within("with monitoring off, adaptive is within 2 % of static",
                 {{"freq_off", "fig2a.noad_10x"}}, 0.02),
          AtMost("not flooded: MED digests ≤ 10 % of raw M1",
                 Over("digests_*", "raw_m1_*", {"10", "20", "30"}), 0.10)}};
  monitoring.base.perturbations = {FactorSpec(0, 10)};
  for (const size_t freq : {0, 10, 20, 30}) {
    monitoring.rows.push_back(
        {freq == 0 ? "off" : StrCat("1/", freq),
         freq == 0 ? "off" : StrCat(freq),
         [=](ExperimentParams& p) { p.m1_frequency = freq; }});
  }
  figures.push_back(monitoring);
  return figures;
}

// --- runner, printer and checker ------------------------------------------

/// One distinct parameter set; `name` (its first cell) only labels errors.
struct Run {
  ExperimentParams params;
  std::string name;
  ExperimentResult result;
};

struct Cell {
  std::string key;  // "<figure>.<key>"
  int row = -1;     // grid row; -1 for "baseline_ms"
  Report report;
  double paper = kNoPaper;
  size_t run = 0;
  size_t baseline = 0;
  double value = 0.0;
};

size_t Intern(std::vector<Run>& runs, const ExperimentParams& params,
              const std::string& name) {
  for (size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].params == params) return i;
  }
  runs.push_back({params, name, {}});
  return runs.size() - 1;
}

/// The figure's cells, row-major, after "baseline_ms": the static
/// baseline's virtual ms, recorded when no axis changes the workload.
std::vector<Cell> Cells(const Figure& f, std::vector<Run>& runs) {
  auto intern_static = [&](ExperimentParams p, const std::string& name) {
    Static(p);
    p.perturbations.clear();
    return Intern(runs, p, name);
  };
  std::vector<Cell> cells;
  const auto workload = [](const Axis& axis) { return axis.workload; };
  if (std::none_of(f.rows.begin(), f.rows.end(), workload) &&
      std::none_of(f.cols.begin(), f.cols.end(), workload)) {
    const std::string key = f.name + ".baseline_ms";
    const size_t run = intern_static(f.base, key);
    cells.push_back({key, -1, kVirtualMs, kNoPaper, run, run});
  }
  for (size_t r = 0; r < f.rows.size(); ++r) {
    const Axis& row = f.rows[r];
    for (const Axis& col : f.cols) {
      ExperimentParams params = f.base;
      ExperimentParams baseline = f.base;
      for (const Axis* axis : {&row, &col}) {
        if (!axis->delta) continue;
        axis->delta(params);
        if (axis->workload) axis->delta(baseline);
      }
      const std::string key = Fill(col.key, row.key);
      const auto paper = f.paper.find(key);
      Cell cell{f.name + "." + key, static_cast<int>(r), col.report,
                paper == f.paper.end() ? kNoPaper : paper->second};
      cell.run = Intern(runs, params, cell.key);
      cell.baseline = intern_static(baseline, cell.key);
      cells.push_back(cell);
    }
  }
  return cells;
}

std::string Render(const Cell& cell) {
  const std::string value = StrFormat(cell.report.format, cell.value);
  if (std::isnan(cell.paper)) return value;
  return StrFormat("%s (paper %g)", value.c_str(), cell.paper);
}

void PrintGrid(const Figure& f, const std::vector<Cell>& cells) {
  std::printf("\n### %s (`%s`)\n\n| %s |", f.title.c_str(), f.name.c_str(),
              f.row_header.c_str());
  for (const Axis& col : f.cols) std::printf(" %s |", col.label.c_str());
  std::printf("\n|---|");
  for (size_t c = 0; c < f.cols.size(); ++c) std::printf("---|");
  std::string baseline;
  int row = -1;
  for (const Cell& cell : cells) {
    if (cell.row < 0) {
      baseline = StrFormat(
          "\nbaseline (no ad / no imb): %.1f virtual ms\n", cell.value);
    } else {
      if (cell.row != row) {
        row = cell.row;
        std::printf("\n| %s |", f.rows[row].label.c_str());
      }
      std::printf(" %s |", Render(cell).c_str());
    }
  }
  std::printf("\n%s", baseline.c_str());
}

/// Checks one claim and prints its verdict; false when it fails.
bool Check(const Figure& f, const Claim& claim,
           const std::map<std::string, const Cell*>& cells,
           const std::vector<Run>& runs) {
  auto find = [&](const std::string& key) -> const Cell& {
    auto it = cells.find(f.name + "." + key);
    if (it == cells.end()) it = cells.find(key);
    if (it == cells.end()) {
      std::fprintf(stderr, "FATAL: %s claim \"%s\" names no cell %s\n",
                   f.name.c_str(), claim.text.c_str(), key.c_str());
      std::exit(1);
    }
    return *it->second;
  };
  std::string detail;
  std::string failures;
  if (claim.rows > 0) {
    size_t checked = 0;
    for (const auto& pair : claim.pairs) {
      const Cell& cell = find(pair.first);
      const std::vector<size_t>& rows = runs[cell.run].result.rep_rows;
      for (size_t rep = 0; rep < rows.size(); ++rep, ++checked) {
        if (rows[rep] != claim.rows) {
          failures += StrFormat("\n    %s repetition %zu: %zu rows",
                                cell.key.c_str(), rep, rows[rep]);
        }
      }
    }
    detail = StrFormat("%zu repetitions", checked);
  } else {
    double lo = kInf;
    double hi = -kInf;
    for (const auto& [lhs_key, rhs_key] : claim.pairs) {
      const Cell& lhs = find(lhs_key);
      double rhs = 1.0;
      std::string rhs_name = "1";
      if (rhs_key == kPaper) {
        rhs = lhs.paper;
        rhs_name = "paper";
      } else if (rhs_key != kUnit) {
        const Cell& cell = find(rhs_key);
        rhs = cell.value;
        rhs_name = cell.key;
      }
      const double ratio = lhs.value / rhs;
      lo = std::min(lo, ratio);
      hi = std::max(hi, ratio);
      if (claim.strict ? !(ratio > claim.lo && ratio < claim.hi)
                       : !(ratio >= claim.lo && ratio <= claim.hi)) {
        failures += StrFormat("\n    %s %.6g / %s %.6g = %.6g",
                              lhs.key.c_str(), lhs.value, rhs_name.c_str(),
                              rhs, ratio);
      }
    }
    detail = StrFormat("ratios %.4f..%.4f, bound %s%g, %g%s", lo, hi,
                       claim.strict ? "(" : "[", claim.lo, claim.hi,
                       claim.strict ? ")" : "]");
  }
  std::printf("%s %s: %s (%s)%s\n", failures.empty() ? "[ok]  " : "[FAIL]",
              f.name.c_str(), claim.text.c_str(), detail.c_str(),
              failures.c_str());
  if (!failures.empty()) {
    std::fprintf(stderr, "CLAIM FAILED %s: %s%s\n", f.name.c_str(),
                 claim.text.c_str(), failures.c_str());
  }
  return failures.empty();
}

}  // namespace

int main() {
  Banner("The paper's evaluation — Table 1, Figs. 2-5 and the ablation",
         "normalised response times (no ad / no imb = 1), mean of 3 seeded "
         "repetitions");
  const std::vector<Figure> figures = PaperFigures();
  std::vector<Run> runs;
  std::vector<std::vector<Cell>> cells;
  for (const Figure& f : figures) cells.push_back(Cells(f, runs));
  for (Run& run : runs) {
    ExperimentParams params = run.params;
    params.name = run.name;
    run.result = MustRun(params);
  }
  std::printf("%zu distinct runs\n", runs.size());

  Metrics metrics("paper");
  std::map<std::string, const Cell*> by_key;
  for (size_t i = 0; i < figures.size(); ++i) {
    for (Cell& cell : cells[i]) {
      const ExperimentResult& result = runs[cell.run].result;
      cell.value = cell.report.of
                       ? cell.report.of(result)
                       : Normalized(result, runs[cell.baseline].result);
      metrics.Set(cell.key, cell.value);
      by_key[cell.key] = &cell;
    }
    PrintGrid(figures[i], cells[i]);
  }

  std::printf("\n### Claims\n\n");
  int failed = 0;
  for (const Figure& f : figures) {
    for (const Claim& claim : f.claims) {
      if (!Check(f, claim, by_key, runs)) ++failed;
    }
  }
  metrics.WriteJson();
  if (failed > 0) {
    std::fprintf(stderr, "%d paper claim(s) failed\n", failed);
    return 1;
  }
  return 0;
}
