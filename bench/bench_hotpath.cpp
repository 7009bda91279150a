// Wall-clock hot-path benchmark: the three loops every experiment in this
// repository bottlenecks on, measured directly so perf PRs leave a
// recorded trajectory (BENCH_hotpath.json) instead of anecdotes.
//
//   1. events_per_sec        — discrete-event kernel throughput under the
//                              schedule/fire + schedule/cancel mix the rpc
//                              and detector layers generate.
//   2. join_tuples_per_sec   — partitioned hash-join build+probe through
//                              HashJoinOperator::ProcessBatch in 1024-row
//                              batches; join_batch1_tuples_per_sec records
//                              one-row batches (the executor's default
//                              batch size) for the trajectory.
//   3. tuple_ops_per_sec     — row construction, refcounted copy and
//                              WireSize accounting (the per-tuple tax of
//                              the exchange machinery).
//   4. chaos_batch_wall_ms   — end-to-end wall-clock for a fixed batch of
//                              pinned chaos seeds (full stack).
//   5. fig4_wall_ms          — end-to-end wall-clock for one Fig. 4 cell
//                              (Q1, retrospective, 3 evaluators, 2
//                              perturbed 20x), the workload the ISSUE's
//                              speedup target is stated against.
//
// hw_threads records how many hardware threads the host had.
//
// Modes:
//   bench_hotpath                      measure and write BENCH_hotpath.json
//   bench_hotpath --check <baseline>   additionally compare events_per_sec
//                                      and join_tuples_per_sec against the
//                                      checked-in baseline and exit 1 on a
//                                      >20% regression (CI perf-smoke;
//                                      tolerance overridable via
//                                      GRIDQP_PERF_TOLERANCE).

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "chaos/runner.h"
#include "chaos/scenario.h"
#include "exec/operators.h"
#include "sim/simulator.h"
#include "storage/tuple.h"

using namespace gqp;
using namespace gqp::bench;

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

// Repetitions per timed metric; the fastest is reported. On shared
// machines the scheduler only ever ADDS time to a CPU-bound deterministic
// loop, so min-of-k is the low-variance estimator of true throughput
// (the same reasoning hyperfine and the LLVM benchmarking guide use).
// Keeps the perf-smoke CI leg from flaking on a noisy runner.
constexpr int kTimingReps = 3;

// ---- 1. event kernel ----------------------------------------------------

// One self-rescheduling chain: a small-capture callback of the kind the
// rpc/detect/net layers schedule by the thousands.
struct ChainFn {
  Simulator* sim;
  uint64_t* fired;
  uint64_t target;
  double period;

  void operator()() const {
    ++*fired;
    // Companion timer set and immediately cancelled, mirroring the
    // reliable transport's retransmit timers (armed per send, cancelled
    // by the ack).
    const EventId timer = sim->Schedule(3 * period, [] {});
    sim->Cancel(timer);
    if (*fired < target) sim->Schedule(period, *this);
  }
};

double BenchEvents(uint64_t target_events) {
  double best = 0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    Simulator sim;
    uint64_t fired = 0;
    constexpr int kChains = 64;  // staggered periods: realistic heap mixing
    for (int i = 0; i < kChains; ++i) {
      const double period = 1.0 + 0.1 * i;
      sim.Schedule(period, ChainFn{&sim, &fired, target_events, period});
    }
    const auto start = Clock::now();
    sim.RunToCompletion();
    const double secs = SecondsSince(start);
    best = std::max(best, static_cast<double>(sim.events_executed()) / secs);
  }
  return best;
}

// ---- 2. hash join -------------------------------------------------------

double BenchJoin(size_t build_rows, size_t probe_rows, size_t batch,
                 size_t* matches_out) {
  const SchemaPtr build_schema = MakeSchema(
      {{"k", DataType::kInt64}, {"payload", DataType::kInt64}});
  const SchemaPtr probe_schema = MakeSchema({{"k", DataType::kInt64}});
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kHashJoin;
  desc.out_schema =
      MakeSchema({{"k", DataType::kInt64},
                  {"payload", DataType::kInt64},
                  {"k2", DataType::kInt64}});
  desc.build_key = 0;
  desc.probe_key = 0;
  desc.base_cost_ms = 1.0;
  desc.build_cost_ms = 0.5;
  desc.cost_tag = "join";

  // Keys are bucketed the way a hash-partitioned exchange would route
  // them: bucket = key % kBuckets, two build rows per key, and probes
  // drawn from twice the key range so roughly half of them miss.
  constexpr int kBuckets = 4;
  const size_t distinct_keys = build_rows / 2;
  std::vector<Tuple> build;
  build.reserve(build_rows);
  for (size_t i = 0; i < build_rows; ++i) {
    build.emplace_back(
        build_schema,
        std::vector<Value>{Value(static_cast<int64_t>(i / 2)),
                           Value(static_cast<int64_t>(i))});
  }
  std::vector<Tuple> probe;
  probe.reserve(probe_rows);
  for (size_t i = 0; i < probe_rows; ++i) {
    probe.emplace_back(probe_schema,
                       std::vector<Value>{Value(static_cast<int64_t>(
                           (i * 2654435761ULL) % (2 * distinct_keys)))});
  }

  double best = 0;
  size_t matches = 0;
  for (int rep = 0; rep < kTimingReps; ++rep) {
    // The operator is rebuilt per repetition: its build table is stateful,
    // and a fresh instance also keeps the cold-allocation cost (table
    // growth, scratch vectors) inside the measurement like a real query.
    auto op_result = MakeOperator(desc);
    if (!op_result.ok()) {
      std::fprintf(stderr, "FATAL: %s\n",
                   op_result.status().ToString().c_str());
      std::exit(1);
    }
    std::unique_ptr<PhysicalOperator> op = std::move(*op_result);
    ExecContext ctx;
    matches = 0;
    const auto start = Clock::now();
    // The executor's batch quantum: slices of the input stream appended
    // (refcounted copy, as a queue pop hands over) into a reused batch,
    // one ProcessBatch per slice.
    TupleBatch in, out;
    for (int port = 0; port <= 1; ++port) {
      const std::vector<Tuple>& rows = port == 0 ? build : probe;
      for (size_t pos = 0; pos < rows.size(); pos += batch) {
        const size_t n = std::min(batch, rows.size() - pos);
        in.Clear();
        for (size_t i = 0; i < n; ++i) {
          const Tuple& t = rows[pos + i];
          const uint64_t key = static_cast<uint64_t>(t.at(0).AsInt64());
          in.Append(t, static_cast<int>(key % kBuckets),
                    static_cast<uint32_t>(i));
        }
        ctx.ResetForBatch(n);
        out.Clear();
        (void)op->ProcessBatch(port, &in, &out, &ctx);
        matches += out.size();
      }
    }
    const double secs = SecondsSince(start);
    best = std::max(best,
                    static_cast<double>(build_rows + probe_rows) / secs);
  }
  *matches_out = matches;
  return best;
}

// ---- 3. tuple construction / copy / wire accounting ---------------------

double BenchTuples(size_t rows) {
  const SchemaPtr schema = MakeSchema({{"id", DataType::kInt64},
                                       {"score", DataType::kDouble},
                                       {"seq", DataType::kString}});
  std::vector<Tuple> kept;
  kept.reserve(rows);
  size_t wire = 0;
  const std::string payload = "MKVLAAGITALSLLAAGCSS";  // 20-char protein-ish
  const auto start = Clock::now();
  for (size_t i = 0; i < rows; ++i) {
    Tuple t(schema,
            std::vector<Value>{Value(static_cast<int64_t>(i)),
                               Value(0.5 * static_cast<double>(i)),
                               Value(payload)});
    wire += t.WireSize();
    Tuple copy = t;        // refcounted copy (recovery-log + queue pattern)
    wire += copy.WireSize();  // re-walk or memo hit, depending on layout
    kept.push_back(std::move(copy));
  }
  const double secs = SecondsSince(start);
  if (wire == 0) std::printf("impossible\n");  // keep `wire` alive
  return static_cast<double>(rows) / secs;
}

// ---- 4/5. end-to-end ----------------------------------------------------

double BenchChaosBatch() {
  const uint64_t seeds[] = {1, 13, 29, 47, 87};
  const auto start = Clock::now();
  for (const uint64_t seed : seeds) {
    const chaos::ChaosScenario scenario = chaos::GenerateScenario(seed);
    const chaos::ChaosRunResult result = chaos::RunScenario(scenario);
    if (!result.ok()) {
      std::fprintf(stderr, "FATAL: chaos seed %llu failed: %s\n",
                   static_cast<unsigned long long>(seed),
                   result.Report().c_str());
      std::exit(1);
    }
  }
  return 1000.0 * SecondsSince(start);
}

double BenchFig4() {
  ExperimentParams params;
  params.name = "hotpath-fig4-cell";
  params.query = QueryKind::kQ1;
  params.response = ResponseType::kRetrospective;
  params.num_evaluators = 3;
  params.adaptivity = true;
  params.repetitions = Repetitions();
  params.perturbations = {
      {0, PerturbSpec::Kind::kFactor, 20.0, 0, 0, 0, 0, 0},
      {1, PerturbSpec::Kind::kFactor, 20.0, 0, 0, 0, 0, 0}};
  const auto start = Clock::now();
  (void)MustRun(params);
  return 1000.0 * SecondsSince(start);
}

}  // namespace

int main(int argc, char** argv) {
  const char* baseline_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check <BENCH_hotpath.json>]\n",
                   argv[0]);
      return 2;
    }
  }

  const int reps = Repetitions();
  Banner("Hot-path wall-clock benchmark",
         "event kernel / hash join / tuple layer / end-to-end");

  const uint64_t event_target = 400'000ULL * static_cast<uint64_t>(reps);
  const size_t build_rows = 100'000 * static_cast<size_t>(reps);
  const size_t probe_rows = 2 * build_rows;
  const size_t tuple_rows = 300'000 * static_cast<size_t>(reps);

  Metrics metrics("hotpath");

  const double events_per_sec = BenchEvents(event_target);
  std::printf("%-24s %14.0f events/s\n", "event kernel", events_per_sec);
  metrics.Set("events_per_sec", events_per_sec);

  size_t matches = 0;
  const double join_tuples_per_sec =
      BenchJoin(build_rows, probe_rows, /*batch=*/1024, &matches);
  std::printf("%-24s %14.0f tuples/s   (%zu matches)\n", "hash join (1024)",
              join_tuples_per_sec, matches);
  metrics.Set("join_tuples_per_sec", join_tuples_per_sec);

  size_t batch1_matches = 0;
  const double join_batch1_tuples_per_sec =
      BenchJoin(build_rows, probe_rows, /*batch=*/1, &batch1_matches);
  std::printf("%-24s %14.0f tuples/s   (%zu matches)\n", "hash join (1)",
              join_batch1_tuples_per_sec, batch1_matches);
  metrics.Set("join_batch1_tuples_per_sec", join_batch1_tuples_per_sec);
  if (matches != batch1_matches) {
    std::fprintf(stderr, "FATAL: batch 1024/1 joins disagree: %zu vs %zu\n",
                 matches, batch1_matches);
    return 1;
  }

  const double tuple_ops_per_sec = BenchTuples(tuple_rows);
  std::printf("%-24s %14.0f rows/s\n", "tuple layer", tuple_ops_per_sec);
  metrics.Set("tuple_ops_per_sec", tuple_ops_per_sec);

  metrics.Set("hw_threads",
              static_cast<double>(std::thread::hardware_concurrency()));

  const double chaos_ms = BenchChaosBatch();
  std::printf("%-24s %14.1f wall ms    (seeds 1,13,29,47,87)\n",
              "chaos batch", chaos_ms);
  metrics.Set("chaos_batch_wall_ms", chaos_ms);

  const double fig4_ms = BenchFig4();
  std::printf("%-24s %14.1f wall ms    (%d reps)\n", "fig4 cell", fig4_ms,
              reps);
  metrics.Set("fig4_wall_ms", fig4_ms);

  metrics.WriteJson();

  if (baseline_path != nullptr) {
    double tolerance = 0.20;
    if (const char* env = std::getenv("GRIDQP_PERF_TOLERANCE")) {
      const double v = std::atof(env);
      if (v > 0 && v < 1) tolerance = v;
    }
    const struct {
      const char* key;
      double measured;
    } gates[] = {{"events_per_sec", events_per_sec},
                 {"join_tuples_per_sec", join_tuples_per_sec}};
    bool failed = false;
    for (const auto& gate : gates) {
      double baseline = 0.0;
      if (!ReadJsonMetric(baseline_path, gate.key, &baseline)) {
        std::fprintf(stderr, "FATAL: no %s in %s\n", gate.key, baseline_path);
        return 2;
      }
      const double floor = baseline * (1.0 - tolerance);
      std::printf("\nperf check: %s %.0f vs baseline %.0f (floor %.0f)\n",
                  gate.key, gate.measured, baseline, floor);
      if (gate.measured < floor) {
        std::fprintf(stderr,
                     "FAIL: %s regressed more than %.0f%% against %s\n",
                     gate.key, 100 * tolerance, baseline_path);
        failed = true;
      }
    }
    if (failed) return 1;
    std::printf("perf check OK\n");
  }
  return 0;
}
