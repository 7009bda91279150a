#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "chaos/invariants.h"
#include "chaos/scenario.h"
#include "common/strings.h"
#include "grid/perturbation.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/scheduler.h"
#include "sql/parser.h"
#include "storage/datagen.h"
#include "workload/driver.h"
#include "workload/experiment.h"
#include "workload/grid_setup.h"

namespace perfbench {

using gqp::AssessmentType;
using gqp::DriverConfig;
using gqp::DriverQueryRecord;
using gqp::DriverReport;
using gqp::GridOptions;
using gqp::GridSetup;
using gqp::PerturbSpec;
using gqp::QueryKind;
using gqp::QueryOptions;
using gqp::QueryResult;
using gqp::QueryStatsSnapshot;
using gqp::ResponseType;
using gqp::Result;
using gqp::SimTime;
using gqp::Status;
using gqp::TablePtr;
using gqp::WorkloadDriver;

namespace {

// --- the paper's set-up (EXPERIMENTS.md, ExperimentParams defaults) -----
constexpr double kWsCostMs = 0.21;
constexpr double kScanCostMs = 0.30;
constexpr double kQ2ScanCostMs = 3.5;
constexpr double kJoinProbeCostMs = 1.0;
constexpr double kJoinBuildCostMs = 0.5;
constexpr size_t kM1Frequency = 10;
constexpr size_t kMedWindow = 25;
constexpr double kThres = 0.20;
constexpr double kNoiseStddev = 0.05;
constexpr double kDriftSigma = 0.35;
constexpr double kDriftTauMs = 250.0;

// --- lossy_failover -------------------------------------------------------
// Loss-free virtual response time of each query at the lossy size on 3
// evaluators; the crash lands at a seeded fraction of it, so always
// mid-query.
constexpr double kLossyNominalQ1Ms = 325.0;
constexpr double kLossyNominalQ2Ms = 8800.0;

// --- tenant_overload --------------------------------------------------------
constexpr int kTenants = 3;
constexpr double kTenantRateQps = 8.0;  // about 2x what the slots drain
constexpr double kTenantHorizonMs = 3000.0;
constexpr double kTenantDeadlineMs = 8000.0;

/// splitmix64: the benchmark's own input generator, independent of the
/// program's Rng so a change to the program never changes the inputs.
class SeedStream {
 public:
  explicit SeedStream(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  /// A seeded permutation of 0..n-1 (Latin-hypercube strata).
  std::vector<int> Permutation(int n) {
    std::vector<int> p(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) p[static_cast<size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) std::swap(p[static_cast<size_t>(i)],
                                              p[static_cast<size_t>(Below(i + 1))]);
    return p;
  }

 private:
  uint64_t state_;
};

/// One simulation run: one fresh grid, drained once.
struct Cell {
  std::string label;
  QueryKind query = QueryKind::kQ1;
  int evaluators = 2;
  size_t sequences = 3000;
  size_t interactions = 4700;
  size_t sequence_length = 200;
  uint64_t data_seed = 1;
  uint64_t profile_seed = 1;
  AssessmentType assessment = AssessmentType::kA1;
  ResponseType response = ResponseType::kRetrospective;
  /// Explicit perturbations; every other evaluator gets background drift.
  std::vector<PerturbSpec> perturbations;
  bool drift = false;
  // lossy_failover
  double loss_rate = 0.0;
  int crash_evaluator = -1;
  double crash_at_ms = 0.0;
  // tenant_overload: an open-loop driver replaces the single query.
  bool open_loop = false;
  DriverConfig driver;
};

std::string Fmt(double v, int digits = 1) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// --- workload definitions -------------------------------------------------

/// paper_adapt: every (query x perturbation cell x grid size) of a fixed
/// design, Q1 once and Q2 three times per pass; the seed draws which machines are perturbed, the
/// Fig. 5 band, the assessment and response types and every data and
/// noise seed.
std::vector<Cell> PaperAdaptCells(uint64_t seed) {
  struct Type {
    const char* name;
    PerturbSpec::Kind kind;
    double level;
    bool all_machines;
  };
  const Type types[] = {
      {"none", PerturbSpec::Kind::kNone, 0, false},
      {"x10", PerturbSpec::Kind::kFactor, 10, false},
      {"x20", PerturbSpec::Kind::kFactor, 20, false},
      {"x30", PerturbSpec::Kind::kFactor, 30, false},
      {"sleep10ms", PerturbSpec::Kind::kSleep, 10, false},
      {"gauss30", PerturbSpec::Kind::kGaussianFactor, 30, false},
      {"x10-all", PerturbSpec::Kind::kFactor, 10, true},
  };
  struct Band {
    double lo, hi, stddev;
  };
  const Band bands[] = {{25, 35, 2.5}, {20, 40, 5.0}, {1, 60, 15.0}};

  SeedStream rng(seed ^ 0x5041504552ULL);
  const auto make_cell = [&](QueryKind query, const Type& type, int n) {
    Cell cell;
    cell.query = query;
    cell.evaluators = n;
    cell.data_seed = rng.Next() % 1'000'000'000ULL;
    cell.profile_seed = rng.Next() % 1'000'000'000ULL;
    cell.assessment =
        rng.Below(2) == 0 ? AssessmentType::kA1 : AssessmentType::kA2;
    // R2 cannot keep the partitioned hash join correct; Q2 is R1 only.
    const bool prospective = rng.Below(2) == 0;
    cell.response = query == QueryKind::kQ1 && prospective
                        ? ResponseType::kProspective
                        : ResponseType::kRetrospective;
    cell.drift = true;
    const Band& band = bands[rng.Below(3)];
    std::vector<int> victims;
    if (type.kind != PerturbSpec::Kind::kNone) {
      if (type.all_machines) {
        for (int e = 0; e < n; ++e) victims.push_back(e);
      } else {
        victims.push_back(rng.Below(n));
      }
    }
    for (int e : victims) {
      PerturbSpec spec;
      spec.evaluator = e;
      spec.kind = type.kind;
      if (type.kind == PerturbSpec::Kind::kFactor) spec.factor = type.level;
      if (type.kind == PerturbSpec::Kind::kSleep) spec.sleep_ms = type.level;
      if (type.kind == PerturbSpec::Kind::kGaussianFactor) {
        spec.mean = type.level;
        spec.stddev = band.stddev;
        spec.lo = band.lo;
        spec.hi = band.hi;
      }
      cell.perturbations.push_back(spec);
    }
    cell.label = gqp::StrCat(
        gqp::QueryKindName(query), " n=", n, " ", type.name,
        victims.empty() ? std::string()
                        : gqp::StrCat(" on ", victims.size() == 1
                                                  ? gqp::StrCat("e", victims[0])
                                                  : std::string("all")),
        type.kind == PerturbSpec::Kind::kGaussianFactor
            ? gqp::StrCat(" [", band.lo, ",", band.hi, "]")
            : std::string(),
        " ", gqp::AssessmentTypeToString(cell.assessment), "/",
        gqp::ResponseTypeToString(cell.response), " data=", cell.data_seed);
    return cell;
  };
  std::vector<Cell> cells;
  // Q2 runs three times as often as Q1: it is the longer, adaptive stream
  // (state moves, retrospective rounds), and the 1:3 mix puts the virtual
  // p50 inside the Q2 population rather than on the Q1/Q2 boundary.
  for (const auto& [query, replicates] :
       {std::pair{QueryKind::kQ1, 1}, std::pair{QueryKind::kQ2, 3}}) {
    for (int r = 0; r < replicates; ++r) {
      for (const Type& type : types) {
        for (int n : {2, 3}) cells.push_back(make_cell(query, type, n));
      }
    }
  }
  return cells;
}

/// lossy_failover: 8 Q1 and 8 Q2 runs on 3 evaluators; loss rate and
/// crash time are Latin-hypercube strata over [1%, 5%] and [20%, 60%] of
/// the query's loss-free duration, the crashed evaluator is uniform.
std::vector<Cell> LossyFailoverCells(uint64_t seed) {
  constexpr int kPerQuery = 8;
  SeedStream rng(seed ^ 0x4C4F535359ULL);
  std::vector<Cell> cells;
  for (QueryKind query : {QueryKind::kQ1, QueryKind::kQ2}) {
    const std::vector<int> loss_strata = rng.Permutation(kPerQuery);
    const std::vector<int> crash_strata = rng.Permutation(kPerQuery);
    for (int i = 0; i < kPerQuery; ++i) {
      Cell cell;
      cell.query = query;
      cell.evaluators = 3;
      cell.sequences = 1000;
      cell.interactions = 1500;
      cell.data_seed = rng.Next() % 1'000'000'000ULL;
      cell.profile_seed = rng.Next() % 1'000'000'000ULL;
      cell.loss_rate =
          0.01 + 0.04 * (loss_strata[static_cast<size_t>(i)] + rng.Uniform()) /
                     kPerQuery;
      const double crash_fraction =
          0.2 + 0.4 * (crash_strata[static_cast<size_t>(i)] + rng.Uniform()) /
                    kPerQuery;
      cell.crash_at_ms =
          crash_fraction *
          (query == QueryKind::kQ1 ? kLossyNominalQ1Ms : kLossyNominalQ2Ms);
      cell.crash_evaluator = rng.Below(3);
      cell.label = gqp::StrCat(gqp::QueryKindName(query), " n=3 loss=",
                               Fmt(cell.loss_rate * 100, 2), "% crash e",
                               cell.crash_evaluator, " at ",
                               Fmt(cell.crash_at_ms), "ms data=",
                               cell.data_seed);
      cells.push_back(std::move(cell));
    }
  }
  return cells;
}

/// tenant_overload: 48 grids, each pressed by 3 Poisson tenants whose
/// Q1/Q2/SA mix the seed draws.
std::vector<Cell> TenantOverloadCells(uint64_t seed) {
  constexpr int kGrids = 48;
  SeedStream rng(seed ^ 0x54454E414EULL);
  std::vector<Cell> cells;
  for (int g = 0; g < kGrids; ++g) {
    Cell cell;
    cell.open_loop = true;
    cell.evaluators = 2;
    cell.sequences = 100;
    cell.interactions = 150;
    cell.sequence_length = 16;
    cell.data_seed = rng.Next() % 1'000'000'000ULL;
    DriverConfig& config = cell.driver;
    config.seed = rng.Next();
    config.horizon_ms = kTenantHorizonMs;
    config.deadline_ms = kTenantDeadlineMs;
    std::string mix;
    for (int t = 0; t < kTenants; ++t) {
      gqp::TenantSpec tenant;
      tenant.name = gqp::StrCat("t", t);
      tenant.arrival_rate_qps = kTenantRateQps;
      tenant.weight_q1 = 0.2 + 0.8 * rng.Uniform();
      tenant.weight_q2 = 0.2 + 0.8 * rng.Uniform();
      tenant.weight_scan_agg = 0.2 + 0.8 * rng.Uniform();
      mix += gqp::StrCat(" ", tenant.name, "=", Fmt(tenant.weight_q1, 2), "/",
                         Fmt(tenant.weight_q2, 2), "/",
                         Fmt(tenant.weight_scan_agg, 2));
      config.tenants.push_back(std::move(tenant));
    }
    QueryOptions& base = config.base_options;
    base.adaptivity.enabled = true;
    base.adaptivity.response = ResponseType::kRetrospective;
    base.exec.monitoring_enabled = true;
    base.exec.recovery_log_enabled = true;
    base.scheduler.num_evaluators = cell.evaluators;
    cell.label = gqp::StrCat("grid ", g, " n=2 rate=", Fmt(kTenantRateQps),
                             "qps/tenant mix(Q1/Q2/SA)", mix,
                             " data=", cell.data_seed);
    cells.push_back(std::move(cell));
  }
  return cells;
}

// --- assembling one run -----------------------------------------------------

GridOptions GridOptionsFor(const Cell& cell) {
  GridOptions options;
  options.num_evaluators = cell.evaluators;
  options.adaptive = true;
  options.med.window = kMedWindow;
  options.med.thres_m = kThres;
  if (cell.crash_evaluator >= 0) {
    options.detect.enabled = true;
    options.reliable.enabled = true;
    options.reliable.jitter_seed = cell.profile_seed;
    options.loss_rate = cell.loss_rate;
    options.loss_seed = cell.data_seed ^ 0x1055C0DEULL;
  }
  if (cell.open_loop) {
    options.admission.enabled = true;
    // A short queue: overload turns into deterministic rejections.
    options.admission.max_concurrent_queries = 3;
    options.admission.queue_capacity = 2;
    options.admission.per_tenant_inflight_cap = 2;
  }
  return options;
}

QueryOptions QueryOptionsFor(const Cell& cell) {
  QueryOptions options;
  options.adaptivity.enabled = true;
  options.adaptivity.assessment = cell.assessment;
  options.adaptivity.response = cell.response;
  options.adaptivity.thres_a = kThres;
  options.adaptivity.thres_m = kThres;
  options.adaptivity.window = kMedWindow;
  options.exec.m1_frequency = kM1Frequency;
  options.exec.monitoring_enabled = true;
  options.exec.recovery_log_enabled = true;
  options.optimizer.costs.scan_cost_ms =
      cell.query == QueryKind::kQ2 ? kQ2ScanCostMs : kScanCostMs;
  options.optimizer.costs.join_probe_cost_ms = kJoinProbeCostMs;
  options.optimizer.costs.join_build_cost_ms = kJoinBuildCostMs;
  options.scheduler.num_evaluators = cell.evaluators;
  return options;
}

gqp::PerturbationPtr ProfileFor(const PerturbSpec& spec, uint64_t seed) {
  const uint64_t profile_seed = seed + 77 + static_cast<uint64_t>(spec.evaluator);
  switch (spec.kind) {
    case PerturbSpec::Kind::kNone:
      return std::make_shared<gqp::NoPerturbation>();
    case PerturbSpec::Kind::kFactor:
      return std::make_shared<gqp::GaussianFactorPerturbation>(
          spec.factor, spec.factor * kNoiseStddev, spec.factor * 0.5,
          spec.factor * 1.5, profile_seed);
    case PerturbSpec::Kind::kSleep:
      return std::make_shared<gqp::AddedDelayPerturbation>(spec.sleep_ms);
    case PerturbSpec::Kind::kGaussianFactor:
      return std::make_shared<gqp::GaussianFactorPerturbation>(
          spec.mean, spec.stddev, spec.lo, spec.hi, profile_seed);
  }
  return nullptr;
}

/// Oracle answers of one cell, computed once (outside every timed phase).
struct Oracle {
  std::map<QueryKind, std::multiset<std::string>> rows;
  std::map<QueryKind, size_t> max_fanout;
};

/// What the checks of one simulation run need.
struct RunContext {
  const Cell& cell;
  GridSetup* grid;
  const Oracle& oracle;
  const gqp::Table& interactions;
  Tracer* tracer;
  PassResult* pass;
  /// Every completed query's result, fingerprinted after the phase.
  std::vector<QueryResult> results;
};

/// Times Simulator events through the trace sink: the wall gap between
/// successive callbacks is the previous event's cost. Arrival events of
/// the open-loop driver (the first event at each pregenerated arrival
/// time) become dqp.submit spans.
class EventProbe {
 public:
  EventProbe(LogHistogram* gaps, Tracer* tracer, int parent,
             const std::vector<gqp::DriverArrival>* arrivals)
      : gaps_(gaps), tracer_(tracer), parent_(parent), arrivals_(arrivals) {}

  void OnEvent(SimTime t) {
    const int64_t now = NowNs();
    Close(now);
    last_ns_ = now;
    last_is_arrival_ = false;
    if (arrivals_ != nullptr && next_arrival_ < arrivals_->size() &&
        t == (*arrivals_)[next_arrival_].time_ms) {
      last_is_arrival_ = true;
      ++next_arrival_;
    }
  }
  /// Ends the gap of the last event (call when Run returns).
  void Close(int64_t now) {
    if (last_ns_ < 0) return;
    gaps_->Add(now - last_ns_);
    if (last_is_arrival_) tracer_->Add("dqp.submit", last_ns_, now, parent_);
    last_ns_ = -1;
  }

 private:
  LogHistogram* gaps_;
  Tracer* tracer_;
  int parent_;
  const std::vector<gqp::DriverArrival>* arrivals_;
  size_t next_arrival_ = 0;
  int64_t last_ns_ = -1;
  bool last_is_arrival_ = false;
};

void Max(std::map<std::string, double>* c, const std::string& key, double v) {
  double& slot = (*c)[key];
  slot = std::max(slot, v);
}

/// Adds one query's coordinator-side stats snapshot.
void AddSnapshot(const QueryStatsSnapshot& s, std::map<std::string, double>* c) {
  (*c)["monitor.raw_m1"] += static_cast<double>(s.raw_m1);
  (*c)["monitor.raw_m2"] += static_cast<double>(s.raw_m2);
  (*c)["monitor.notifications"] += static_cast<double>(s.med_notifications);
  (*c)["adapt.proposals"] += static_cast<double>(s.diagnoser_proposals);
  (*c)["adapt.rounds_started"] += static_cast<double>(s.rounds_started);
  (*c)["adapt.rounds_applied"] += static_cast<double>(s.rounds_applied);
  (*c)["ft.resent_tuples"] += static_cast<double>(s.resent_tuples);
  (*c)["ft.discarded_tuples"] += static_cast<double>(s.discarded_tuples);
}

/// Reads the grid-wide counters of one drained simulation.
void HarvestGrid(GridSetup* grid, std::map<std::string, double>* c) {
  gqp::Simulator* sim = grid->simulator();
  (*c)["sim.events"] += static_cast<double>(sim->events_executed());
  (*c)["sim.virt_ms"] += sim->Now();

  const gqp::NetworkStats& net = grid->network()->stats();
  (*c)["net.messages"] += static_cast<double>(net.messages_sent);
  (*c)["net.bytes"] += static_cast<double>(net.bytes_sent);
  (*c)["net.drops"] +=
      static_cast<double>(net.loss_drops + net.partition_drops);

  if (const gqp::ReliableTransport* reliable = grid->bus()->reliable()) {
    const gqp::ReliableStats& r = reliable->stats();
    (*c)["rpc.sent"] += static_cast<double>(r.sent);
    (*c)["rpc.retransmits"] += static_cast<double>(r.retransmits);
    (*c)["rpc.dedup_hits"] += static_cast<double>(r.dedup_hits);
    (*c)["rpc.abandoned"] += static_cast<double>(r.abandoned);
    (*c)["rpc.delivered"] += static_cast<double>(r.delivered);
  }
  if (const gqp::HeartbeatMonitor* monitor = grid->monitor()) {
    const gqp::DetectStats& d = monitor->stats();
    (*c)["detect.suspicions"] += static_cast<double>(d.suspicions_raised);
    (*c)["detect.false_suspicions"] +=
        static_cast<double>(d.suspicions_cleared);
    (*c)["detect.confirmed"] += static_cast<double>(d.failures_confirmed);
    for (int i = 0; i < grid->num_evaluators(); ++i) {
      if (const gqp::Heartbeater* hb = grid->heartbeater(i)) {
        (*c)["detect.heartbeats"] += static_cast<double>(hb->beats_sent());
      }
    }
  }
  if (const gqp::AdmissionController* admission = grid->gdqs()->admission()) {
    const gqp::AdmissionStats& a = admission->stats();
    (*c)["dqp.admitted"] += static_cast<double>(a.admitted);
    (*c)["dqp.rejected"] += static_cast<double>(a.rejected_queue_full);
    (*c)["dqp.shed"] += static_cast<double>(a.shed_queued + a.shed_running);
    Max(c, "dqp.queue_peak", static_cast<double>(a.queue_peak));
  }

  for (int host = 0; host < grid->num_hosts(); ++host) {
    gqp::Gqes* gqes = grid->gqes_on(static_cast<gqp::HostId>(host));
    if (gqes == nullptr) continue;
    for (const gqp::FragmentExecutor* exec : gqes->Executors()) {
      const gqp::FragmentStats& fs = exec->stats();
      (*c)["exec.tuples_processed"] += static_cast<double>(fs.tuples_processed);
      (*c)["exec.tuples_emitted"] += static_cast<double>(fs.tuples_emitted);
      (*c)["exec.idle_wait_virt_ms"] += fs.idle_wait_ms;
      Max(c, "exec.queue_hwm", static_cast<double>(fs.queue_high_watermark));
      Max(c, "exec.parked_peak", static_cast<double>(fs.parked_peak));
    }
  }
  std::vector<gqp::GridNode*> nodes = {grid->coordinator_node(),
                                       grid->data_node()};
  for (int i = 0; i < grid->num_evaluators(); ++i) {
    nodes.push_back(grid->evaluator_node(i));
  }
  for (const gqp::GridNode* node : nodes) {
    (*c)["exec.work_items"] += static_cast<double>(node->stats().work_items);
    // Sum in tag order: the stats map is unordered, and a fixed summation
    // order keeps the totals bit-identical run to run.
    const std::map<std::string, double> by_tag(
        node->stats().busy_ms_by_tag.begin(),
        node->stats().busy_ms_by_tag.end());
    for (const auto& [tag, ms] : by_tag) {
      const char* bucket = tag.rfind("ws:", 0) == 0      ? "ws"
                           : tag == "op:hash_join"       ? "join"
                           : tag == "op:scan"            ? "scan"
                                                         : nullptr;
      if (bucket != nullptr) {
        (*c)[gqp::StrCat("exec.busy_virt_ms.", bucket)] += ms;
      }
    }
  }
}

void MixRows(const std::vector<gqp::Tuple>& rows, Fingerprint* fp) {
  std::vector<std::string> rendered;
  rendered.reserve(rows.size());
  for (const gqp::Tuple& row : rows) rendered.push_back(row.ToString());
  std::sort(rendered.begin(), rendered.end());
  for (const std::string& r : rendered) fp->Mix(r);
}

}  // namespace

// --- runner ------------------------------------------------------------------

struct WorkloadRunner::Impl {
  std::vector<Cell> cells;
  /// Per cell, filled on first use.
  std::vector<std::unique_ptr<Oracle>> oracles;
  int next_run_id = 0;

  /// One simulation run; appends to `pass`.
  void RunCell(size_t index, Tracer* tracer, PassResult* pass);
  Status SetUp(const Cell& cell, Tracer* tracer, std::unique_ptr<GridSetup>* grid,
               TablePtr* sequences, TablePtr* interactions);
  const Oracle& OracleFor(size_t index, const TablePtr& sequences,
                          const TablePtr& interactions);
  /// Fetches, checks and records one completed query; true when it passed.
  bool FinishQuery(RunContext* run, int query_id, QueryKind kind);
  /// Classifies every arrival of a drained open-loop run.
  void CollectOpenLoop(RunContext* run, const WorkloadDriver& driver);
  /// Checks the single query of a drained closed-loop run.
  void CollectClosedLoop(RunContext* run, int query_id);
  /// Compiles `kind` the way the coordinator does, one span per stage.
  Status ProbePlan(GridSetup* grid, QueryKind kind, const QueryOptions& options,
                   Tracer* tracer);
  void Fail(PassResult* pass, const Cell& cell, const std::string& what) {
    pass->failures.push_back(gqp::StrCat("[", cell.label, "] ", what));
  }
};

Status WorkloadRunner::Impl::SetUp(const Cell& cell, Tracer* tracer,
                                   std::unique_ptr<GridSetup>* grid,
                                   TablePtr* sequences,
                                   TablePtr* interactions) {
  {
    ScopedSpan span(tracer, "storage.datagen");
    gqp::ProteinSequencesSpec spec;
    spec.num_rows = cell.sequences;
    spec.sequence_length = cell.sequence_length;
    spec.seed = cell.data_seed;
    *sequences = gqp::GenerateProteinSequences(spec);
  }
  {
    ScopedSpan span(tracer, "storage.datagen");
    gqp::ProteinInteractionsSpec spec;
    spec.num_rows = cell.interactions;
    spec.num_orfs = cell.sequences;
    spec.seed = cell.data_seed + 1000003;
    *interactions = gqp::GenerateProteinInteractions(spec);
  }
  {
    ScopedSpan span(tracer, "grid.init");
    *grid = std::make_unique<GridSetup>(GridOptionsFor(cell));
    GQP_RETURN_IF_ERROR((*grid)->Initialize());
  }
  for (const TablePtr& table : {*sequences, *interactions}) {
    ScopedSpan span(tracer, "grid.add_table");
    GQP_RETURN_IF_ERROR((*grid)->AddTable(table));
  }
  {
    ScopedSpan span(tracer, "grid.add_web_service");
    GQP_RETURN_IF_ERROR((*grid)->AddWebService(
        "EntropyAnalyser", gqp::DataType::kDouble, kWsCostMs));
  }
  const std::string tag = gqp::PerturbTag(cell.query);
  std::vector<bool> perturbed(static_cast<size_t>(cell.evaluators), false);
  for (const PerturbSpec& spec : cell.perturbations) {
    ScopedSpan span(tracer, "grid.perturb");
    perturbed[static_cast<size_t>(spec.evaluator)] = true;
    GQP_RETURN_IF_ERROR((*grid)->PerturbEvaluator(
        spec.evaluator, tag, ProfileFor(spec, cell.profile_seed)));
  }
  if (cell.drift) {
    for (int i = 0; i < cell.evaluators; ++i) {
      if (perturbed[static_cast<size_t>(i)]) continue;
      ScopedSpan span(tracer, "grid.perturb");
      GQP_RETURN_IF_ERROR((*grid)->PerturbEvaluator(
          i, tag,
          std::make_shared<gqp::DriftPerturbation>(
              kDriftSigma, kDriftTauMs,
              cell.profile_seed + 177 + static_cast<uint64_t>(i))));
    }
  }
  return Status::OK();
}

const Oracle& WorkloadRunner::Impl::OracleFor(size_t index,
                                              const TablePtr& sequences,
                                              const TablePtr& interactions) {
  std::unique_ptr<Oracle>& slot = oracles[index];
  if (slot == nullptr) {
    slot = std::make_unique<Oracle>();
    const Cell& cell = cells[index];
    std::vector<QueryKind> kinds = {cell.query};
    if (cell.open_loop) kinds = {QueryKind::kQ1, QueryKind::kQ2};
    for (QueryKind kind : kinds) {
      slot->rows[kind] = gqp::chaos::OracleRows(kind, *sequences, *interactions);
      slot->max_fanout[kind] =
          gqp::chaos::MaxOutputFanout(kind, *sequences, *interactions);
    }
  }
  return *slot;
}

Status WorkloadRunner::Impl::ProbePlan(GridSetup* grid, QueryKind kind,
                                       const QueryOptions& options,
                                       Tracer* tracer) {
  Result<gqp::SelectQuery> parsed = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "plan.parse");
    parsed = gqp::ParseSelect(gqp::QuerySql(kind));
  }
  if (!parsed.ok()) return parsed.status();
  Result<gqp::LogicalNodePtr> bound = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "plan.bind");
    bound = gqp::BindSelect(*parsed, *grid->catalog());
  }
  if (!bound.ok()) return bound.status();
  Result<gqp::PhysicalPlan> physical = Status::Internal("not run");
  {
    ScopedSpan span(tracer, "plan.optimize");
    physical = gqp::CreatePhysicalPlan(*bound, options.optimizer);
  }
  if (!physical.ok()) return physical.status();
  ScopedSpan span(tracer, "plan.schedule");
  return gqp::SchedulePlan(*physical, *grid->registry(), options.scheduler)
      .status();
}

bool WorkloadRunner::Impl::FinishQuery(RunContext* run, int query_id,
                                       QueryKind kind) {
  const Cell& cell = run->cell;
  PassResult* pass = run->pass;
  gqp::Gdqs* gdqs = run->grid->gdqs();
  Result<QueryResult> result = Status::Internal("not run");
  Result<QueryStatsSnapshot> stats = Status::Internal("not run");
  {
    ScopedSpan span(run->tracer, "dqp.collect");
    result = gdqs->GetResult(query_id);
    stats = gdqs->CollectStats(query_id);
  }
  if (!result.ok() || !stats.ok()) {
    ++pass->failed;
    Fail(pass, cell, gqp::StrCat("q", query_id, " completed without a result"));
    return false;
  }
  AddSnapshot(*stats, &pass->counts);

  ScopedSpan span(run->tracer, "bench.check");
  // Crash replay may duplicate rows (at-least-once); nothing else may.
  const bool crashed = cell.crash_evaluator >= 0;
  std::vector<std::string> violations;
  if (kind == QueryKind::kScanAgg) {
    gqp::chaos::CheckAggregateResults(run->interactions, result->rows, crashed,
                                      stats->resent_tuples, &violations);
  } else {
    gqp::chaos::CheckResults(run->oracle.rows.at(kind), result->rows, crashed,
                             stats->resent_tuples,
                             run->oracle.max_fanout.at(kind), &violations);
  }
  gqp::chaos::CheckConservation(run->grid, query_id, gdqs->reported_failures(),
                                &violations);
  if (crashed) {
    gqp::chaos::ChaosScenario scenario;
    scenario.failures.push_back(
        gqp::chaos::FailureEvent{cell.crash_at_ms, cell.crash_evaluator});
    gqp::chaos::CheckDetection(run->grid->monitor(), scenario, &violations);
  }
  for (const std::string& v : violations) {
    Fail(pass, cell, gqp::StrCat("q", query_id, " ", v));
  }
  if (violations.empty()) {
    ++pass->completed;
    pass->virt_resp_ms.push_back(result->response_time_ms);
  } else {
    ++pass->failed;
  }
  run->results.push_back(std::move(*result));
  return violations.empty();
}

void WorkloadRunner::Impl::CollectOpenLoop(RunContext* run,
                                           const WorkloadDriver& driver) {
  const Cell& cell = run->cell;
  PassResult* pass = run->pass;
  DriverReport report;
  {
    ScopedSpan span(run->tracer, "workload.collect");
    report = driver.Collect(run->grid);
  }
  for (const DriverQueryRecord& record : report.queries) {
    ++pass->attempted;
    switch (record.outcome) {
      case gqp::QueryOutcome::kComplete:
        FinishQuery(run, record.query_id, record.kind);
        break;
      case gqp::QueryOutcome::kRejected:
        ++pass->refused;
        break;
      case gqp::QueryOutcome::kAborted:
        // A running query shed under queue pressure is a refusal, not an
        // error; every other abort (deadline, execution error) is.
        if (record.detail.find("shed under") != std::string::npos) {
          ++pass->refused;
        } else {
          ++pass->failed;
          Fail(pass, cell, gqp::StrCat("q", record.query_id,
                                       " aborted: ", record.detail));
        }
        break;
      case gqp::QueryOutcome::kUnresolved:
        ++pass->failed;
        Fail(pass, cell, gqp::StrCat("q", record.query_id,
                                     " unresolved: ", record.detail));
        break;
    }
  }
  if (!report.trichotomy_ok) {
    Fail(pass, cell, "driver report breaks the terminal trichotomy");
  }
  if (const gqp::AdmissionController* admission =
          run->grid->gdqs()->admission()) {
    const gqp::AdmissionStats& a = admission->stats();
    if (a.rejected_queue_full + a.shed_queued != report.rejected) {
      Fail(pass, cell, "admission ledger disagrees with client rejections");
    }
    if (admission->live() != 0 || admission->queue_depth() != 0) {
      Fail(pass, cell, "admission state not drained");
    }
  }
  pass->virt_s += cell.driver.horizon_ms / 1000.0;
}

void WorkloadRunner::Impl::CollectClosedLoop(RunContext* run, int query_id) {
  PassResult* pass = run->pass;
  ++pass->attempted;
  if (query_id < 0) {
    ++pass->failed;  // the submission itself failed
    return;
  }
  gqp::Gdqs* gdqs = run->grid->gdqs();
  const Status status = gdqs->ExecutionStatus(query_id);
  if (!gdqs->QueryComplete(query_id) || !status.ok()) {
    ++pass->failed;
    Fail(pass, run->cell,
         gqp::StrCat("query did not complete: ", status.ToString()));
    return;
  }
  if (FinishQuery(run, query_id, run->cell.query)) {
    pass->virt_s += run->results.back().response_time_ms / 1000.0;
  }
}

void WorkloadRunner::Impl::RunCell(size_t index, Tracer* tracer,
                                   PassResult* pass) {
  const Cell& cell = cells[index];
  tracer->set_run_id(next_run_id++);
  const uint64_t completed_before = pass->completed;
  const uint64_t refused_before = pass->refused;
  const uint64_t failed_before = pass->failed;
  std::unique_ptr<GridSetup> grid;
  TablePtr sequences;
  TablePtr interactions;

  // --- set-up: grid, tables, services, perturbations --------------------
  const int64_t setup_start = NowNs();
  Status setup_status;
  {
    ScopedSpan span(tracer, "run.setup");
    setup_status = SetUp(cell, tracer, &grid, &sequences, &interactions);
  }
  pass->setup_s += static_cast<double>(NowNs() - setup_start) / 1e9;
  if (!setup_status.ok()) {
    Fail(pass, cell, gqp::StrCat("set-up failed: ", setup_status.ToString()));
    return;
  }
  const Oracle& oracle = OracleFor(index, sequences, interactions);
  gqp::Simulator* sim = grid->simulator();
  sim->set_max_events(30'000'000ULL);

  // The open-loop driver's arrivals are pregenerated input, like tables.
  std::unique_ptr<WorkloadDriver> driver;
  if (cell.open_loop) {
    ScopedSpan span(tracer, "workload.generate");
    driver = std::make_unique<WorkloadDriver>(cell.driver);
  }
  const QueryOptions options =
      cell.open_loop ? cell.driver.base_options : QueryOptionsFor(cell);
  if (tracer->enabled()) {
    ScopedSpan span(tracer, "run.plan_probe");
    std::vector<QueryKind> kinds = {cell.query};
    if (cell.open_loop) {
      kinds = {QueryKind::kQ1, QueryKind::kQ2, QueryKind::kScanAgg};
    }
    for (QueryKind kind : kinds) {
      const Status status = ProbePlan(grid.get(), kind, options, tracer);
      if (!status.ok()) {
        Fail(pass, cell, gqp::StrCat("plan probe: ", status.ToString()));
      }
    }
  }

  // --- measured phase: submit, drain, collect, check ----------------------
  RunContext run{cell, grid.get(), oracle, *interactions, tracer, pass, {}};
  const int64_t measured_start = NowNs();
  {
    ScopedSpan measured(tracer, "run.measured");
    if (cell.crash_evaluator >= 0) {
      sim->Schedule(cell.crash_at_ms, [g = grid.get(), tracer,
                                       e = cell.crash_evaluator] {
        ScopedSpan span(tracer, "grid.fail_evaluator");
        (void)g->FailEvaluator(e);
      });
    }
    int query_id = -1;
    if (cell.open_loop) {
      ScopedSpan span(tracer, "workload.schedule_arrivals");
      driver->ScheduleArrivals(grid.get());
    } else {
      ScopedSpan span(tracer, "dqp.submit");
      Result<int> id =
          grid->gdqs()->SubmitQuery(gqp::QuerySql(cell.query), options);
      if (id.ok()) {
        query_id = *id;
      } else {
        Fail(pass, cell, gqp::StrCat("submit failed: ", id.status().ToString()));
      }
    }

    Status run_status;
    {
      ScopedSpan span(tracer, "sim.run");
      std::unique_ptr<EventProbe> probe;
      if (tracer->enabled()) {
        probe = std::make_unique<EventProbe>(
            &pass->event_gaps, tracer, span.id(),
            driver != nullptr ? &driver->arrivals() : nullptr);
        sim->set_trace_sink([p = probe.get()](SimTime t, gqp::EventId) {
          p->OnEvent(t);
        });
      }
      run_status = sim->Run();
      if (probe != nullptr) {
        probe->Close(NowNs());
        sim->set_trace_sink(nullptr);
      }
    }
    if (!run_status.ok()) {
      Fail(pass, cell, gqp::StrCat("simulation did not drain: ",
                                   run_status.ToString()));
    }
    if (cell.open_loop) {
      CollectOpenLoop(&run, *driver);
    } else {
      CollectClosedLoop(&run, query_id);
    }
  }
  const double measured_ms = static_cast<double>(NowNs() - measured_start) / 1e6;
  pass->measured_s += measured_ms / 1000.0;
  pass->run_wall_ms.push_back(measured_ms);

  // --- outside the timed phases: counters, fingerprint, teardown ----------
  HarvestGrid(grid.get(), &pass->counts);
  pass->counts["storage.rows_generated"] +=
      static_cast<double>(sequences->num_rows() + interactions->num_rows());
  pass->counts["dqp.submits"] += static_cast<double>(
      driver != nullptr ? driver->arrivals().size() : 1);
  Fingerprint fp;
  fp.Mix(pass->fingerprint);
  fp.Mix(cell.label);
  fp.Mix(static_cast<uint64_t>(sim->events_executed()));
  fp.Mix(sim->Now());
  for (const QueryResult& result : run.results) {
    pass->counts["bench.result_rows"] += static_cast<double>(result.rows.size());
    fp.Mix(static_cast<uint64_t>(result.query_id));
    fp.Mix(result.response_time_ms);
    MixRows(result.rows, &fp);
  }
  pass->fingerprint = fp.value();
  pass->run_notes.push_back(gqp::StrCat(
      cell.label, " -> virt_end=", Fmt(sim->Now()), "ms events=",
      sim->events_executed(), " completed=", pass->completed - completed_before,
      " refused=", pass->refused - refused_before, " failed=",
      pass->failed - failed_before));
  {
    ScopedSpan span(tracer, "grid.teardown");
    grid.reset();
  }
}

WorkloadRunner::WorkloadRunner(Workload workload, uint64_t seed)
    : impl_(std::make_unique<Impl>()) {
  switch (workload) {
    case Workload::kPaperAdapt:
      impl_->cells = PaperAdaptCells(seed);
      break;
    case Workload::kTenantOverload:
      impl_->cells = TenantOverloadCells(seed);
      break;
    case Workload::kLossyFailover:
      impl_->cells = LossyFailoverCells(seed);
      break;
  }
  impl_->oracles.resize(impl_->cells.size());
}

WorkloadRunner::~WorkloadRunner() = default;

size_t WorkloadRunner::runs_per_pass() const { return impl_->cells.size(); }

PassResult WorkloadRunner::RunPass(Tracer* tracer) {
  PassResult pass;
  pass.span_begin = tracer->spans().size();
  for (size_t i = 0; i < impl_->cells.size(); ++i) {
    impl_->RunCell(i, tracer, &pass);
  }
  pass.span_end = tracer->spans().size();
  Fingerprint fp;
  fp.Mix(pass.fingerprint);
  for (const auto& [name, value] : pass.counts) {
    fp.Mix(name);
    fp.Mix(value);
  }
  for (double v : pass.virt_resp_ms) fp.Mix(v);
  fp.Mix(pass.attempted);
  fp.Mix(pass.completed);
  fp.Mix(pass.failed);
  fp.Mix(pass.refused);
  pass.fingerprint = fp.value();
  for (size_t i = pass.span_begin; i < pass.span_end; ++i) {
    const Span& span = tracer->spans()[i];
    pass.call_us[span.name].push_back(
        static_cast<double>(span.end_ns - span.start_ns) / 1e3);
  }
  return pass;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kPaperAdapt:
      return "paper_adapt";
    case Workload::kTenantOverload:
      return "tenant_overload";
    case Workload::kLossyFailover:
      return "lossy_failover";
  }
  return "?";
}

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w : {Workload::kPaperAdapt, Workload::kTenantOverload,
                     Workload::kLossyFailover}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

}  // namespace perfbench
