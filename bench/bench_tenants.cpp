// Multi-tenant overload (DESIGN.md §D16): an open-loop workload driver
// presses one grid at twice its sustainable rate and the bench checks
// that the GDQS admission controller degrades gracefully instead of
// collapsing:
//
//  1. uncontended baseline: a low-rate run where every query completes;
//     its p95 is the reference latency;
//  2. overload with admission ON: the ADMITTED queries' p95 must stay
//     within 1.5x the uncontended baseline — overload is absorbed by
//     deterministic rejections/sheds, not by latency creep;
//  3. overload with admission OFF: every arrival deploys immediately and
//     the completed-query p95 blows past the same 1.5x bound (the
//     collapse the controller exists to prevent);
//  4. determinism: the admission-on overload run, repeated with the same
//     seed, renders a byte-identical workload report.
//
// Each run is a preset over chaos::RunScenario, so every completed query
// is also held to the runner's invariants (results, conservation,
// monitoring attribution) and admission runs to the admission ledger.
//
// There is no paper table for this; the paper's adaptivity experiments
// assume a coordinator that survives being offered more work than the
// grid can execute.

#include <cstdio>

#include "bench/bench_util.h"

using namespace gqp;
using namespace gqp::bench;

namespace {

constexpr double kHorizonMs = 12'000.0;
constexpr double kDeadlineMs = 8000.0;
constexpr int kTenants = 3;
// Calibrated against the grid below: at 4 qps/tenant every query
// completes with no rejections (uncontended: queries overlap on the
// evaluators but never queue against the admission bound); the overload
// runs offer 2x that per tenant, past what the slots can drain.
constexpr double kBaselineRateQps = 4.0;
constexpr double kOverloadRateQps = 2.0 * kBaselineRateQps;
// Acceptance gate: admitted p95 under overload vs uncontended baseline.
constexpr double kP95DegradationBound = 1.5;

/// One full simulated run: a fresh two-evaluator grid, the given workload,
/// admission on or off, held to the chaos runner's invariants. Aborts the
/// binary on a failed run (a bench that cannot execute its workload must
/// not report).
DriverReport RunWorkload(double rate_qps, bool admission_on) {
  chaos::ChaosScenario scenario;
  scenario.seed = 23;
  scenario.sequences = 100;
  scenario.interactions = 150;
  scenario.sequence_length = 16;
  scenario.response = ResponseType::kRetrospective;
  scenario.storm.seed = scenario.seed;
  scenario.storm.horizon_ms = kHorizonMs;
  scenario.storm.deadline_ms = kDeadlineMs;
  for (int t = 0; t < kTenants; ++t) {
    TenantSpec tenant;
    tenant.name = StrCat("t", t);
    tenant.arrival_rate_qps = rate_qps;
    tenant.weight_q1 = 1.0;  // uniform service time keeps p95 comparable
    scenario.storm.tenants.push_back(tenant);
  }
  scenario.admission.enabled = admission_on;
  // A short queue is the point: admitted latency = queue wait + execution,
  // so graceful degradation needs the wait bounded tightly and the excess
  // rejected instead of parked.
  scenario.admission.max_concurrent_queries = 3;
  scenario.admission.queue_capacity = 2;
  scenario.admission.per_tenant_inflight_cap = 2;
  return MustRunScenario("bench_tenants", scenario).workload;
}

/// p95 over the completed queries of every tenant, pooled (the per-tenant
/// reports keep their own percentiles; the gate uses the pooled one).
double PooledP95(const DriverReport& report) {
  std::vector<double> latencies;
  for (const DriverQueryRecord& q : report.queries) {
    if (q.outcome == QueryOutcome::kComplete)
      latencies.push_back(q.latency_ms);
  }
  return NearestRankPercentile(std::move(latencies), 95.0);
}

}  // namespace

int main() {
  Banner("Multi-tenant overload — graceful degradation under admission "
         "control",
         "2x-sustainable open-loop load: admitted p95 must stay within "
         "1.5x the uncontended baseline, absorbed by deterministic "
         "rejections instead of latency collapse");

  int failures = 0;
  Metrics metrics("tenants");

  // 1. Uncontended baseline.
  const DriverReport baseline = RunWorkload(kBaselineRateQps, true);
  const double baseline_p95 = PooledP95(baseline);
  std::printf("\n--- baseline (%.1f qps/tenant, admission on) ---\n%s",
              kBaselineRateQps, baseline.Render().c_str());
  if (!baseline.trichotomy_ok || baseline.completed != baseline.submitted) {
    std::printf("FAIL: baseline run was not uncontended (%llu/%llu "
                "completed)\n",
                static_cast<unsigned long long>(baseline.completed),
                static_cast<unsigned long long>(baseline.submitted));
    ++failures;
  }

  // 2. Overload, admission ON: graceful degradation.
  const DriverReport on = RunWorkload(kOverloadRateQps, true);
  const double on_p95 = PooledP95(on);
  std::printf("\n--- overload (%.1f qps/tenant, admission on) ---\n%s",
              kOverloadRateQps, on.Render().c_str());
  if (!on.trichotomy_ok) {
    std::printf("FAIL: overload run violated terminal trichotomy\n");
    ++failures;
  }
  if (on.rejected == 0) {
    std::printf("FAIL: overload run with admission on rejected nothing — "
                "the offered load is not actually above capacity\n");
    ++failures;
  }
  if (baseline_p95 > 0 && on_p95 > kP95DegradationBound * baseline_p95) {
    std::printf("FAIL: admitted p95 %.3f ms exceeds %.1fx uncontended "
                "baseline %.3f ms\n",
                on_p95, kP95DegradationBound, baseline_p95);
    ++failures;
  }

  // 3. Overload, admission OFF: the collapse being prevented.
  const DriverReport off = RunWorkload(kOverloadRateQps, false);
  const double off_p95 = PooledP95(off);
  std::printf("\n--- overload (%.1f qps/tenant, admission off) ---\n%s",
              kOverloadRateQps, off.Render().c_str());
  if (off.rejected != 0) {
    std::printf("FAIL: admission off must reject nothing (got %llu)\n",
                static_cast<unsigned long long>(off.rejected));
    ++failures;
  }
  if (baseline_p95 > 0 && off_p95 <= kP95DegradationBound * baseline_p95) {
    std::printf("FAIL: admission-off p95 %.3f ms stayed within %.1fx "
                "baseline %.3f ms — the overload is too mild to "
                "demonstrate collapse\n",
                off_p95, kP95DegradationBound, baseline_p95);
    ++failures;
  }

  // 4. Determinism: same seed, byte-identical report.
  const DriverReport on_again = RunWorkload(kOverloadRateQps, true);
  if (on_again.Render() != on.Render()) {
    std::printf("FAIL: two same-seed admission-on runs rendered different "
                "workload reports\n");
    ++failures;
  }

  std::printf("\nsummary: baseline_p95=%.3f ms  admitted_p95=%.3f ms "
              "(bound %.3f)  admission_off_p95=%.3f ms  rejected=%llu  "
              "shed=%llu\n",
              baseline_p95, on_p95, kP95DegradationBound * baseline_p95,
              off_p95, static_cast<unsigned long long>(on.rejected),
              static_cast<unsigned long long>(on.aborted));

  metrics.Set("baseline_p95_ms", baseline_p95);
  metrics.Set("overload_on_p95_ms", on_p95);
  metrics.Set("overload_off_p95_ms", off_p95);
  metrics.Set("overload_on_goodput_qps", on.goodput_qps);
  metrics.Set("overload_off_goodput_qps", off.goodput_qps);
  metrics.Set("overload_on_rejected", static_cast<double>(on.rejected));
  metrics.Set("overload_on_completed", static_cast<double>(on.completed));
  metrics.Set("overload_submitted", static_cast<double>(on.submitted));
  metrics.WriteJson();

  if (failures > 0) {
    std::printf("\nFAIL: %d graceful-degradation check(s) failed\n",
                failures);
    return 1;
  }
  std::printf("\nadmission control absorbed a 2x overload with bounded "
              "admitted latency and deterministic rejections\n");
  return 0;
}
