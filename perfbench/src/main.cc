// GridQP benchmark entry point.
//
//   gridqp_perfbench --workload paper_adapt|tenant_overload|lossy_failover
//                    --seed N --seconds S --trace 0|1
//                    [--passes P] [--trace-out PATH]
//
// --trace 0 measures untraced passes for S seconds (and at least 100
// simulation runs) and prints the end-to-end metrics. --trace 1 spends
// S/2 seconds untraced and S/2 traced, and prints the per-layer metrics;
// the untraced half is the base of bench.trace_overhead_pct. --passes
// runs exactly P passes per half instead (self-check mode). The last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. Exit code 0 means a result was printed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "trace.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

/// True when this translation unit was compiled without optimization:
/// wall-clock numbers from such a build are meaningless, so the
/// benchmark refuses to report (same rule as bench::kUnoptimizedBuild).
constexpr bool kUnoptimizedBuild =
#ifdef __OPTIMIZE__
    false;
#else
    true;
#endif

/// Simulation runs measured at least, so that ten lie beyond p90.
constexpr size_t kMinRunSamples = 100;

struct Args {
  Workload workload = Workload::kPaperAdapt;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  int passes = 0;  // 0: time-boxed
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return false;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      if (!ParseWorkload(value, &args->workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return false;
      }
      have_workload = true;
      continue;
    }
    if (flag == "--trace-out") {
      args->trace_out = value;
      continue;
    }
    if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      args->trace = std::strtol(value.c_str(), &end, 10) != 0;
    } else if (flag == "--passes") {
      args->passes = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return false;
    }
    if (end == nullptr || *end != '\0' || value.empty()) {
      std::fprintf(stderr, "bad value '%s' for %s\n", value.c_str(),
                   flag.c_str());
      return false;
    }
  }
  if (!have_workload) std::fprintf(stderr, "--workload is required\n");
  return have_workload && args->seconds > 0 && args->passes >= 0;
}

template <typename Fn>
std::vector<double> PerPass(const std::vector<PassResult>& passes, Fn fn) {
  std::vector<double> out;
  out.reserve(passes.size());
  for (const PassResult& p : passes) out.push_back(fn(p));
  return out;
}

/// Per-call durations of one span name, pooled over passes.
std::vector<double> Calls(const std::vector<PassResult>& passes,
                          const std::string& name) {
  std::vector<double> out;
  for (const PassResult& p : passes) {
    auto it = p.call_us.find(name);
    if (it != p.call_us.end()) {
      out.insert(out.end(), it->second.begin(), it->second.end());
    }
  }
  return out;
}

/// Median over passes of the summed duration (ms) of one span name.
double PassTotalMs(const std::vector<PassResult>& passes,
                   const std::string& name) {
  return Median(PerPass(passes, [&](const PassResult& p) {
           auto it = p.call_us.find(name);
           double total = 0.0;
           if (it != p.call_us.end()) {
             for (double us : it->second) total += us;
           }
           return total;
         })) /
         1e3;
}

double Ratio(double num, double den, double if_no_base) {
  return den > 0 ? num / den : if_no_base;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string Json(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  char buf[256];
  std::snprintf(buf, sizeof(buf), ", \"attempted\": %" PRIu64
                ", \"failed\": %" PRIu64 ", \"metrics\": {",
                attempted, failed);
  out += buf;
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                  metrics[i].unit);
    out += buf;
  }
  out += "}}";
  return out;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::vector<Metric> EndToEnd(const std::vector<PassResult>& passes) {
  std::vector<double> run_wall;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  for (const PassResult& p : passes) {
    run_wall.insert(run_wall.end(), p.run_wall_ms.begin(), p.run_wall_ms.end());
    attempted += p.attempted;
    failed += p.failed;
    refused += p.refused;
  }
  // Virtual metrics are deterministic: every pass repeats the first.
  const PassResult& first = passes.front();
  return {
      {"setup_s", Median(PerPass(passes, [](const PassResult& p) {
         return p.setup_s;
       })), "s"},
      {"wall_s", Median(PerPass(passes, [](const PassResult& p) {
         return p.measured_s;
       })), "s"},
      {"queries_per_s", Median(PerPass(passes, [](const PassResult& p) {
         return Ratio(static_cast<double>(p.completed), p.measured_s, 0.0);
       })), "1/s"},
      {"run_wall_ms_p50", Percentile(run_wall, 50), "ms"},
      {"run_wall_ms_p90", Percentile(run_wall, 90), "ms"},
      {"virt_resp_ms_p50", Percentile(first.virt_resp_ms, 50), "ms"},
      {"virt_resp_ms_p90", Percentile(first.virt_resp_ms, 90), "ms"},
      {"virt_goodput_qps",
       Ratio(static_cast<double>(first.completed), first.virt_s, 0.0), "1/s"},
      {"correct_frac",
       1.0 - Ratio(static_cast<double>(failed), static_cast<double>(attempted),
                   0.0),
       "ratio"},
      {"served_frac",
       1.0 - Ratio(static_cast<double>(refused), static_cast<double>(attempted),
                   0.0),
       "ratio"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const std::vector<PassResult>& untraced,
                             const std::vector<PassResult>& traced,
                             const Tracer& tracer) {
  // Counts repeat exactly in every pass; take them from the first.
  std::map<std::string, double> c = traced.front().counts;
  LogHistogram gaps;
  for (const PassResult& p : traced) gaps.Merge(p.event_gaps);
  const double sim_run_ms = PassTotalMs(traced, "sim.run");
  const double untraced_ms =
      Median(PerPass(traced, [&](const PassResult& p) {
        return tracer.SelfTimeMs(p.span_begin, p.span_end)["run.measured"];
      }));
  const double traced_wall = Median(
      PerPass(traced, [](const PassResult& p) { return p.measured_s; }));
  const double untraced_wall = Median(
      PerPass(untraced, [](const PassResult& p) { return p.measured_s; }));
  const std::vector<double> submit = Calls(traced, "dqp.submit");
  return {
      {"storage.datagen_ms", PassTotalMs(traced, "storage.datagen"), "ms"},
      {"storage.rows_generated", c["storage.rows_generated"], "count"},
      {"grid.init_ms", PassTotalMs(traced, "grid.init"), "ms"},
      {"plan.parse_us", Median(Calls(traced, "plan.parse")), "us"},
      {"plan.bind_us", Median(Calls(traced, "plan.bind")), "us"},
      {"plan.optimize_us", Median(Calls(traced, "plan.optimize")), "us"},
      {"plan.schedule_us", Median(Calls(traced, "plan.schedule")), "us"},
      {"dqp.submit_us_p50", Percentile(submit, 50), "us"},
      {"dqp.submit_us_p90", Percentile(submit, 90), "us"},
      {"dqp.submits", c["dqp.submits"], "count"},
      {"dqp.collect_us", Median(Calls(traced, "dqp.collect")), "us"},
      {"dqp.admitted", c["dqp.admitted"], "count"},
      {"dqp.rejected", c["dqp.rejected"], "count"},
      {"dqp.shed", c["dqp.shed"], "count"},
      {"dqp.queue_peak", c["dqp.queue_peak"], "count"},
      {"sim.run_ms", sim_run_ms, "ms"},
      {"sim.events", c["sim.events"], "count"},
      {"sim.events_per_s", Ratio(c["sim.events"], sim_run_ms / 1e3, 0.0),
       "1/s"},
      {"sim.virt_ms", c["sim.virt_ms"], "ms"},
      {"sim.event_ns_p50", gaps.Percentile(50), "ns"},
      {"sim.event_ns_p99", gaps.Percentile(99), "ns"},
      {"net.messages", c["net.messages"], "count"},
      {"net.bytes", c["net.bytes"], "bytes"},
      {"net.bytes_per_row", Ratio(c["net.bytes"], c["bench.result_rows"], 0.0),
       "bytes"},
      {"net.drops", c["net.drops"], "count"},
      {"rpc.sent", c["rpc.sent"], "count"},
      {"rpc.retransmits", c["rpc.retransmits"], "count"},
      {"rpc.dedup_hits", c["rpc.dedup_hits"], "count"},
      {"rpc.abandoned", c["rpc.abandoned"], "count"},
      {"rpc.useful_ratio",
       Ratio(c["rpc.delivered"], c["rpc.sent"] + c["rpc.retransmits"], 1.0),
       "ratio"},
      {"detect.heartbeats", c["detect.heartbeats"], "count"},
      {"detect.suspicions", c["detect.suspicions"], "count"},
      {"detect.false_suspicions", c["detect.false_suspicions"], "count"},
      {"detect.confirmed", c["detect.confirmed"], "count"},
      {"exec.tuples_processed", c["exec.tuples_processed"], "count"},
      {"exec.tuples_emitted", c["exec.tuples_emitted"], "count"},
      {"exec.work_items", c["exec.work_items"], "count"},
      {"exec.busy_virt_ms.ws", c["exec.busy_virt_ms.ws"], "ms"},
      {"exec.busy_virt_ms.join", c["exec.busy_virt_ms.join"], "ms"},
      {"exec.busy_virt_ms.scan", c["exec.busy_virt_ms.scan"], "ms"},
      {"exec.idle_wait_virt_ms", c["exec.idle_wait_virt_ms"], "ms"},
      {"exec.queue_hwm", c["exec.queue_hwm"], "count"},
      {"exec.parked_peak", c["exec.parked_peak"], "count"},
      {"monitor.raw_m1", c["monitor.raw_m1"], "count"},
      {"monitor.raw_m2", c["monitor.raw_m2"], "count"},
      {"monitor.notifications", c["monitor.notifications"], "count"},
      {"adapt.proposals", c["adapt.proposals"], "count"},
      {"adapt.rounds_started", c["adapt.rounds_started"], "count"},
      {"adapt.rounds_applied", c["adapt.rounds_applied"], "count"},
      {"adapt.apply_ratio",
       Ratio(c["adapt.rounds_applied"], c["adapt.rounds_started"], 1.0),
       "ratio"},
      {"ft.resent_tuples", c["ft.resent_tuples"], "count"},
      {"ft.discarded_tuples", c["ft.discarded_tuples"], "count"},
      {"ft.useful_ratio",
       1.0 - Ratio(c["ft.discarded_tuples"], c["ft.resent_tuples"], 0.0),
       "ratio"},
      {"bench.untraced_ms", untraced_ms, "ms"},
      {"bench.trace_overhead_pct",
       (Ratio(traced_wall, untraced_wall, 1.0) - 1.0) * 100.0, "%"},
  };
}

/// Runs passes until the budget is spent (and at least `min_runs`
/// simulation runs are measured), or exactly `fixed` passes.
void RunPasses(WorkloadRunner* runner, Tracer* tracer, bool traced,
               double budget_s, size_t min_runs, int fixed,
               std::vector<PassResult>* out) {
  tracer->set_enabled(traced);
  const int64_t start = NowNs();
  size_t runs = 0;
  for (;;) {
    out->push_back(runner->RunPass(tracer));
    runs += out->back().run_wall_ms.size();
    if (fixed > 0) {
      if (out->size() >= static_cast<size_t>(fixed)) break;
      continue;
    }
    const double elapsed = static_cast<double>(NowNs() - start) / 1e9;
    if (elapsed >= budget_s && runs >= min_runs) break;
  }
  tracer->set_enabled(false);
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: gridqp_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--passes P] [--trace-out PATH]\n");
    return 2;
  }
  if (kUnoptimizedBuild) {
    std::fprintf(stderr,
                 "refusing to report: this benchmark was built without "
                 "optimization (-O0); configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n");
    return 3;
  }
  gqp::Logger::SetLevel(gqp::LogLevel::kError);

  const char* name = WorkloadName(args.workload);
  WorkloadRunner runner(args.workload, args.seed);
  std::printf("# perfbench workload=%s seed=%" PRIu64 " trace=%d seconds=%g\n",
              name, args.seed, args.trace ? 1 : 0, args.seconds);
  std::printf("# host hw_threads=%ld build_type=%s optimized=1 threads_started=0\n",
              sysconf(_SC_NPROCESSORS_ONLN), PERFBENCH_BUILD_TYPE);
  if (args.workload == Workload::kTenantOverload) {
    std::printf("# open loop: 3 Poisson tenants per grid; arrivals are "
                "pregenerated simulator events, so generator lateness is 0 "
                "by construction\n");
  } else {
    std::printf("# closed loop: one client, one query per simulation run\n");
  }

  // A warm-up pass fills caches and lazy set-up; it is checked like any
  // other pass but not timed.
  Tracer tracer;
  std::vector<PassResult> warmup;
  RunPasses(&runner, &tracer, false, 0.0, 0, 1, &warmup);
  for (size_t i = 0; i < warmup.front().run_notes.size(); ++i) {
    std::printf("# run %zu: %s\n", i, warmup.front().run_notes[i].c_str());
  }
  std::vector<PassResult> untraced;
  std::vector<PassResult> traced;
  const double budget = args.trace ? args.seconds / 2 : args.seconds;
  RunPasses(&runner, &tracer, false, budget, args.trace ? 0 : kMinRunSamples,
            args.passes, &untraced);
  if (args.trace) {
    RunPasses(&runner, &tracer, true, budget, 0, args.passes, &traced);
  }

  // Correctness: every oracle and invariant check, and every pass
  // reproducing the warm-up pass's fingerprint.
  const uint64_t fingerprint = warmup.front().fingerprint;
  bool deterministic = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  std::vector<std::string> failures = warmup.front().failures;
  for (const std::vector<PassResult>* group : {&untraced, &traced}) {
    for (const PassResult& p : *group) {
      deterministic = deterministic && p.fingerprint == fingerprint;
      attempted += p.attempted;
      failed += p.failed;
      refused += p.refused;
      if (failures.size() < 50) {
        failures.insert(failures.end(), p.failures.begin(), p.failures.end());
      }
    }
  }
  size_t runs = 0;
  for (const PassResult& p : untraced) runs += p.run_wall_ms.size();
  const PassResult& first = untraced.front();
  std::printf("# passes untraced=%zu traced=%zu (+1 warm-up), %zu simulation "
              "runs per pass; run_wall samples=%zu (beyond p90: %zu); "
              "virt_resp samples=%zu per pass\n",
              untraced.size(), traced.size(), runner.runs_per_pass(), runs,
              runs - static_cast<size_t>(std::ceil(0.9 * static_cast<double>(runs))),
              first.virt_resp_ms.size());
  std::printf("# queries per pass: attempted=%" PRIu64 " completed=%" PRIu64
              " failed=%" PRIu64 " refused=%" PRIu64
              "; fail_frac=%.6g refused_frac=%.6g\n",
              first.attempted, first.completed, first.failed, first.refused,
              Ratio(static_cast<double>(failed), static_cast<double>(attempted), 0),
              Ratio(static_cast<double>(refused), static_cast<double>(attempted), 0));
  std::printf("# fingerprint=%016" PRIx64 " %s\n", fingerprint,
              deterministic ? "(identical in every pass)"
                            : "(DIVERGED between passes)");
  std::string counts_line = "# counts";
  for (const auto& [key, value] : first.counts) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %s=%.17g", key.c_str(), value);
    counts_line += buf;
  }
  std::printf("%s\n", counts_line.c_str());
  for (const std::string& f : failures) std::printf("# FAIL %s\n", f.c_str());
  const bool correct = deterministic && failures.empty() && failed == 0;

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = PerLayer(untraced, traced, tracer);
    // Self time per span name, median over traced passes.
    std::map<std::string, std::vector<double>> self;
    for (const PassResult& p : traced) {
      for (const auto& [span, ms] : tracer.SelfTimeMs(p.span_begin, p.span_end)) {
        self[span].push_back(ms);
      }
    }
    std::vector<std::pair<double, std::string>> rows;
    for (auto& [span, values] : self) rows.emplace_back(Median(values), span);
    std::sort(rows.rbegin(), rows.rend());
    std::printf("# self time per pass (ms, median of traced passes):");
    for (const auto& [ms, span] : rows) std::printf(" %s=%.3f", span.c_str(), ms);
    std::printf("\n");
    if (!args.trace_out.empty()) {
      if (!tracer.WriteJsonLines(args.trace_out)) {
        std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
        return 1;
      }
      std::printf("# %zu spans written to %s\n", tracer.spans().size(),
                  args.trace_out.c_str());
    }
  } else {
    metrics = EndToEnd(untraced);
  }
  std::printf("%s\n", Json(correct, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
