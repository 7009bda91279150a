// Multi-query execution (DESIGN.md §D12): one grid, several live queries
// at once. Five queries (a Q1/Q2 mix) are submitted at staggered virtual
// times so their executions overlap on the same evaluators. The bench is
// a preset over chaos::RunScenario, so every query is held to the
// runner's invariants, among them
//
//  (a) correct completion: its result multiset equals the oracle answer
//      computed from the datasets (concurrency must not change answers,
//      only timing);
//  (g) exact per-query statistics: the coordinator's per-query M1/M2
//      counts equal the sum of what that query's own executors emitted,
//      and the per-query MED slices sum back to the site-wide totals.
//
// The bench itself checks that the queries actually overlapped.
//
// There is no paper table for this; the paper's single-query experiments
// implicitly assume the engine underneath can host overlapping queries.

#include <algorithm>
#include <cstdio>

#include "bench/bench_util.h"

using namespace gqp;
using namespace gqp::bench;

int main() {
  Banner("Multi-query — overlapping queries on one grid",
         "per-query results must match single-query runs; per-query "
         "stats must be exact under concurrency");

  chaos::ChaosScenario scenario;
  scenario.seed = 7;
  scenario.sequences = 1500;
  scenario.interactions = 2300;
  scenario.response = ResponseType::kRetrospective;
  scenario.q2_scan_cost_ms = 3.5;
  // The base Q1 at t=0, then four staggered submissions.
  scenario.query = QueryKind::kQ1;
  scenario.extra_queries = {{QueryKind::kQ2, 40.0},
                            {QueryKind::kQ1, 90.0},
                            {QueryKind::kQ2, 140.0},
                            {QueryKind::kQ1, 200.0}};
  const chaos::ChaosRunResult run =
      MustRunScenario("bench_multiquery", scenario);

  Metrics metrics("multiquery");
  double makespan = 0.0;
  double prev_completion = 0.0;
  bool overlapped = false;
  std::printf("\n%-4s %-5s %-10s %-12s %-7s %-8s %-8s %-8s\n", "id",
              "query", "submit_ms", "response_ms", "rows", "raw_m1",
              "raw_m2", "rounds");
  for (size_t i = 0; i < run.per_query.size(); ++i) {
    const chaos::QueryOutcome& q = run.per_query[i];
    const double completion = q.submit_ms + q.response_ms;
    if (i > 0 && q.submit_ms < prev_completion) overlapped = true;
    prev_completion = completion;
    makespan = std::max(makespan, completion);
    std::printf("q%-3d %-5s %-10.0f %-12.1f %-7zu %-8llu %-8llu %-8llu\n",
                q.query_id, QueryKindName(q.kind).c_str(), q.submit_ms,
                q.response_ms, q.rows,
                static_cast<unsigned long long>(q.stats.raw_m1),
                static_cast<unsigned long long>(q.stats.raw_m2),
                static_cast<unsigned long long>(q.stats.rounds_applied));
    metrics.Set(StrCat("q", i, "_response_ms"), q.response_ms);
  }

  metrics.Set("makespan_ms", makespan);
  metrics.Set("queries", static_cast<double>(run.per_query.size()));
  metrics.WriteJson();

  // The queries must actually have run concurrently, or this bench proved
  // nothing about multi-query hosting.
  if (!overlapped) {
    std::printf("\nFAIL: no two queries overlapped in time\n");
    return 1;
  }
  std::printf("\nall %zu concurrent queries completed correctly with exact "
              "per-query stats\n",
              run.per_query.size());
  return 0;
}
