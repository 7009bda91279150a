#include "chaos/runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "chaos/invariants.h"
#include "chaos/trace.h"
#include "common/strings.h"
#include "storage/datagen.h"
#include "workload/grid_setup.h"

namespace gqp {
namespace chaos {

namespace {

PerturbationPtr MakeProfile(const PerturbationEvent& ev) {
  switch (ev.kind) {
    case PerturbationEvent::Kind::kConstantFactor:
      return std::make_shared<ConstantFactorPerturbation>(ev.p0);
    case PerturbationEvent::Kind::kAddedDelay:
      return std::make_shared<AddedDelayPerturbation>(ev.p0);
    case PerturbationEvent::Kind::kGaussianFactor:
      return std::make_shared<GaussianFactorPerturbation>(
          ev.p0, ev.p1, ev.p2, ev.p3, ev.profile_seed);
    case PerturbationEvent::Kind::kDrift:
      return std::make_shared<DriftPerturbation>(ev.p0, ev.p1,
                                                 ev.profile_seed);
    case PerturbationEvent::Kind::kStep: {
      std::vector<StepPerturbation::Step> steps;
      steps.reserve(ev.steps.size());
      for (const auto& [start_ms, factor] : ev.steps) {
        steps.push_back(StepPerturbation::Step{start_ms, factor});
      }
      return std::make_shared<StepPerturbation>(std::move(steps));
    }
    case PerturbationEvent::Kind::kClear:
      return nullptr;
  }
  return nullptr;
}

void InstallPerturbation(GridSetup* grid, const PerturbationEvent& ev,
                         const std::string& tag) {
  if (ev.kind == PerturbationEvent::Kind::kClear) {
    grid->evaluator_node(ev.evaluator)->ClearPerturbations();
    return;
  }
  PerturbationPtr profile = MakeProfile(ev);
  if (ev.node_wide) {
    grid->evaluator_node(ev.evaluator)->SetNodePerturbation(
        std::move(profile));
  } else {
    (void)grid->PerturbEvaluator(ev.evaluator, tag, std::move(profile));
  }
}

std::string DumpExecutors(GridSetup* grid, int query_id) {
  std::string out;
  const int num_hosts = grid->num_hosts();
  for (int host = 0; host < num_hosts; ++host) {
    Gqes* gqes = grid->gqes_on(static_cast<HostId>(host));
    if (gqes == nullptr) continue;
    for (FragmentExecutor* exec : gqes->Executors()) {
      if (exec->plan().id.query != query_id) continue;
      out += StrCat("\n    ", exec->DebugString());
    }
  }
  return out;
}

}  // namespace

std::string ChaosRunResult::Report() const {
  std::string out;
  if (!status.ok()) out = StrCat("run error: ", status.ToString(), "\n");
  for (const std::string& v : violations) out += v + "\n";
  if (!ok()) out += StrCat("repro: ", repro, "\n");
  return out;
}

std::string ChaosRunResult::Summary() const {
  std::string out = status.ok() ? "" : status.ToString();
  for (const std::string& v : violations) {
    out += StrCat(out.empty() ? "" : " ", v);
  }
  return out;
}

ChaosRunResult RunScenario(const ChaosScenario& scenario,
                           const ChaosRunOptions& options) {
  ChaosRunResult result;
  result.repro =
      ReproCommand(scenario.seed, scenario.profile, scenario.vector_batch_size);

  GridOptions grid_options;
  grid_options.num_evaluators = scenario.num_evaluators;
  grid_options.evaluator_capacities = scenario.capacities;
  grid_options.link = scenario.initial_link;
  grid_options.adaptive = scenario.adaptivity;
  grid_options.med.window = scenario.med_window;
  grid_options.med.thres_m = scenario.thres_m;
  grid_options.detect.enabled = scenario.failure_detection;
  grid_options.detect.heartbeat_interval_ms = scenario.heartbeat_interval_ms;
  grid_options.reliable.enabled = scenario.failure_detection;
  grid_options.loss_rate = scenario.loss_rate;
  grid_options.loss_seed = scenario.seed ^ 0x1055C0DEULL;
  grid_options.standby_enabled = scenario.coordinator_standby;
  grid_options.admission = scenario.admission;

  GridSetup grid(grid_options);
  result.status = grid.Initialize();
  if (!result.status.ok()) return result;

  Simulator* sim = grid.simulator();
  EventTraceRecorder recorder(options.keep_trace);
  recorder.Attach(sim);
  sim->set_max_events(options.max_events);

  // Datasets, seeded from the scenario.
  ProteinSequencesSpec seq_spec;
  seq_spec.num_rows = scenario.sequences;
  seq_spec.sequence_length = scenario.sequence_length;
  seq_spec.seed = scenario.seed;
  const TablePtr sequences = GenerateProteinSequences(seq_spec);
  ProteinInteractionsSpec inter_spec;
  inter_spec.num_rows = scenario.interactions;
  inter_spec.num_orfs = scenario.sequences;
  inter_spec.seed = scenario.seed + 1000003;
  const TablePtr interactions = GenerateProteinInteractions(inter_spec);

  result.status = grid.AddTable(sequences);
  if (!result.status.ok()) return result;
  result.status = grid.AddTable(interactions);
  if (!result.status.ok()) return result;
  result.status = grid.AddWebService("EntropyAnalyser", DataType::kDouble,
                                     scenario.ws_cost_ms);
  if (!result.status.ok()) return result;

  // Chaos schedule: perturbations, failures and link shifts fire as
  // simulator events at their scenario times.
  const std::string tag = PerturbTag(scenario.query);
  for (const PerturbationEvent& ev : scenario.perturbations) {
    if (ev.at_ms <= 0.0) {
      InstallPerturbation(&grid, ev, tag);
    } else {
      sim->ScheduleAt(ev.at_ms, [&grid, &ev, tag] {
        InstallPerturbation(&grid, ev, tag);
      });
    }
  }
  for (const FailureEvent& ev : scenario.failures) {
    sim->ScheduleAt(ev.at_ms,
                    [&grid, &ev] { (void)grid.FailEvaluator(ev.evaluator); });
  }
  for (const LinkShiftEvent& ev : scenario.link_shifts) {
    sim->ScheduleAt(ev.at_ms,
                    [&grid, &ev] { grid.network()->SetAllLinks(ev.params); });
  }
  for (const PartitionEvent& ev : scenario.partitions) {
    sim->ScheduleAt(ev.at_ms, [&grid, &ev] {
      grid.network()->BeginPartition(grid.evaluator_node(ev.evaluator)->id());
    });
    sim->ScheduleAt(ev.at_ms + ev.duration_ms, [&grid, &ev] {
      grid.network()->EndPartition(grid.evaluator_node(ev.evaluator)->id());
    });
  }
  for (const StallEvent& ev : scenario.stalls) {
    sim->ScheduleAt(ev.at_ms, [&grid, &ev] {
      if (Heartbeater* hb = grid.heartbeater(ev.evaluator)) {
        hb->Stall(ev.at_ms + ev.duration_ms);
      }
    });
  }
  if (scenario.coordinator_kill) {
    sim->ScheduleAt(scenario.coordinator_kill_at_ms,
                    [&grid] { (void)grid.FailCoordinator(); });
  }

  QueryOptions query_options;
  query_options.adaptivity.enabled = scenario.adaptivity;
  query_options.adaptivity.assessment = scenario.assessment;
  query_options.adaptivity.response = scenario.response;
  query_options.adaptivity.thres_a = scenario.thres_a;
  query_options.adaptivity.thres_m = scenario.thres_m;
  query_options.adaptivity.window = scenario.med_window;
  query_options.exec.m1_frequency = scenario.m1_frequency;
  query_options.exec.checkpoint_interval = scenario.checkpoint_interval;
  query_options.exec.buffer_tuples = scenario.buffer_tuples;
  query_options.exec.monitoring_enabled = scenario.adaptivity;
  query_options.exec.recovery_log_enabled = scenario.adaptivity;
  query_options.exec.flow_control_enabled = scenario.flow_control;
  query_options.exec.memory_budget_bytes = scenario.memory_budget_bytes;
  query_options.exec.vector_batch_size = scenario.vector_batch_size;
  query_options.optimizer.costs.join_probe_cost_ms =
      scenario.join_probe_cost_ms;
  query_options.optimizer.costs.join_build_cost_ms =
      scenario.join_build_cost_ms;
  query_options.scheduler.num_evaluators = scenario.num_evaluators;
  query_options.deadline_ms = scenario.deadline_ms;

  // Each query kind scans at its own cost (Q2 at the scenario's).
  const auto options_for = [&](QueryKind kind) {
    QueryOptions options = query_options;
    if (kind == QueryKind::kQ2) {
      options.optimizer.costs.scan_cost_ms = scenario.q2_scan_cost_ms;
    }
    return options;
  };

  // The workload: either the storm's open-loop arrivals or the base query
  // plus the concurrent ones (empty for most profiles, so those runs
  // schedule zero extra events). Both sources end up as one list of
  // submission records, base query first.
  std::optional<WorkloadDriver> driver;
  std::vector<DriverQueryRecord> submitted;
  int base_id = -1;
  if (!scenario.storm.tenants.empty()) {
    DriverConfig storm = scenario.storm;
    storm.base_options = query_options;
    driver.emplace(storm);
    driver->ScheduleArrivals(&grid);
  } else {
    Result<int> query = grid.gdqs()->SubmitQuery(QuerySql(scenario.query),
                                                 options_for(scenario.query));
    if (!query.ok()) {
      result.status = query.status();
      return result;
    }
    base_id = *query;
    submitted.resize(1 + scenario.extra_queries.size());
    submitted[0].query_id = base_id;
    submitted[0].kind = scenario.query;
    for (size_t i = 0; i < scenario.extra_queries.size(); ++i) {
      const ConcurrentQuery& q = scenario.extra_queries[i];
      submitted[i + 1].kind = q.kind;
      submitted[i + 1].submit_ms = q.submit_at_ms;
      QueryOptions extra_options = options_for(q.kind);
      // R2 cannot preserve correctness for the partitioned stateful join;
      // per-query override, same rule the generator applies to the base.
      if (q.kind == QueryKind::kQ2) {
        extra_options.adaptivity.response = ResponseType::kRetrospective;
      }
      // Submission happens at virtual time, while the base query is
      // already executing.
      sim->ScheduleAt(q.submit_at_ms, [&grid, &submitted, i, q,
                                       extra_options] {
        Result<int> id =
            grid.gdqs()->SubmitQuery(QuerySql(q.kind), extra_options);
        if (id.ok()) submitted[i + 1].query_id = *id;
      });
    }
  }

  // --- invariant (d): termination --------------------------------------
  const Status run_status = sim->Run();
  EventTraceRecorder::Detach(sim);
  result.trace_hash = recorder.hash();
  result.trace_events = recorder.events();
  if (options.keep_trace) result.trace = recorder.trace();
  result.final_time_ms = sim->Now();

  // After a takeover the standby is the authority for every original query
  // id (it proxies retried incarnations and serves mirrored results);
  // otherwise the primary GDQS answers directly. Invariant checks run
  // against the FINAL id — a retried query's executors live under its new
  // id, the released originals are gone.
  StandbyCoordinator* standby = grid.standby();
  const bool took_over = standby != nullptr && standby->TakenOver();
  const auto final_id = [&](int id) {
    return took_over ? standby->FinalQueryId(id) : id;
  };
  const auto query_complete = [&](int id) {
    return took_over ? standby->QueryComplete(id)
                     : grid.gdqs()->QueryComplete(id);
  };
  const auto execution_status = [&](int id) {
    return took_over ? standby->ExecutionStatus(id)
                     : grid.gdqs()->ExecutionStatus(id);
  };
  const auto get_result = [&](int id) {
    return took_over ? standby->GetResult(id) : grid.gdqs()->GetResult(id);
  };
  const auto collect_stats = [&](int id) {
    if (took_over && final_id(id) != id) {
      return standby->gdqs()->CollectStats(final_id(id));
    }
    return grid.gdqs()->CollectStats(id);
  };
  std::set<HostId> reported_failures = grid.gdqs()->reported_failures();
  if (standby != nullptr) {
    const auto& extra = standby->gdqs()->reported_failures();
    reported_failures.insert(extra.begin(), extra.end());
  }

  // Control-plane counters (kept even on violation paths — they are the
  // first thing a red seed's diagnosis needs).
  result.net = grid.network()->stats();
  if (grid.bus()->reliable() != nullptr) {
    result.transport = grid.bus()->reliable()->stats();
  }
  if (grid.monitor() != nullptr) {
    result.detect = grid.monitor()->stats();
    for (int i = 0; i < scenario.num_evaluators; ++i) {
      if (const Heartbeater* hb = grid.heartbeater(i)) {
        result.heartbeats_sent += hb->beats_sent();
        result.heartbeats_suppressed += hb->beats_suppressed();
      }
    }
  }
  if (standby != nullptr) {
    result.takeover = standby->stats();
    if (const MirrorLog* log = grid.gdqs()->mirror_log()) {
      result.mirror_entries = log->entries_appended();
      result.mirror_acked = log->entries_truncated();
    }
    for (int host = 0; host < grid.num_hosts(); ++host) {
      Gqes* gqes = grid.gqes_on(static_cast<HostId>(host));
      if (gqes == nullptr) continue;
      result.stale_epoch_dropped += gqes->stats().stale_epoch_dropped;
      result.epoch_updates += gqes->stats().epoch_updates;
      for (const FragmentExecutor* exec : gqes->Executors()) {
        result.stale_epoch_dropped += exec->epoch_guard().stale_dropped();
      }
    }
  }
  const AdmissionController* admission = grid.gdqs()->admission();
  if (admission != nullptr) result.admission = admission->stats();

  // Terminal states. The driver classifies its own arrivals (it knows
  // which coordinator took each one); the base and concurrent queries are
  // classified here the same way.
  if (driver.has_value()) {
    result.workload = driver->Collect(&grid);
  } else {
    for (DriverQueryRecord& record : submitted) {
      const Status status = record.query_id < 0
                                ? Status::Internal("submission failed")
                                : execution_status(record.query_id);
      if (status.IsRejected()) {
        record.outcome = gqp::QueryOutcome::kRejected;
      } else if (!status.ok()) {
        record.outcome = gqp::QueryOutcome::kAborted;
      } else if (query_complete(record.query_id)) {
        record.outcome = gqp::QueryOutcome::kComplete;
      }
      if (!status.ok()) record.detail = status.ToString();
    }
  }
  const std::vector<DriverQueryRecord>& records =
      driver.has_value() ? result.workload.queries : submitted;
  // Only an admission controller may reject or shed a query; without one
  // every query must complete.
  const auto allowed = [&](gqp::QueryOutcome outcome) {
    return outcome == gqp::QueryOutcome::kComplete ||
           (admission != nullptr && outcome != gqp::QueryOutcome::kUnresolved);
  };
  result.completed = std::all_of(
      records.begin(), records.end(),
      [&](const DriverQueryRecord& r) { return allowed(r.outcome); });

  std::vector<std::string>& violations = result.violations;
  if (!run_status.ok()) {
    std::string executors;
    for (const DriverQueryRecord& record : records) {
      if (record.outcome != gqp::QueryOutcome::kUnresolved) continue;
      executors += DumpExecutors(&grid, final_id(record.query_id));
    }
    violations.push_back(
        StrCat("[termination] simulator did not drain: ",
               run_status.ToString(), executors));
    return result;
  }

  // A confirmed false suspicion triggers the same recovery resends as a
  // real crash, so it widens the at-least-once budget the same way.
  const bool failures_injected = !scenario.failures.empty() ||
                                 result.detect.failures_confirmed > 0;
  // Bounds need the largest tuple the pipeline can carry (a join output
  // concatenates one row of each input before projection).
  size_t max_row = 0;
  size_t max_inter = 0;
  uint64_t dataset_bytes = 0;
  if (scenario.flow_control) {
    for (const Tuple& row : sequences->rows()) {
      max_row = std::max(max_row, row.WireSize());
      dataset_bytes += row.WireSize();
    }
    for (const Tuple& row : interactions->rows()) {
      max_inter = std::max(max_inter, row.WireSize());
      dataset_bytes += row.WireSize();
    }
  }

  // The oracle answer and duplicate budget of each query kind, computed
  // once per run however many queries of that kind complete.
  struct KindOracle {
    std::multiset<std::string> rows;
    size_t fanout = 1;
  };
  std::map<QueryKind, KindOracle> oracles;
  const auto oracle_for = [&](QueryKind kind) -> const KindOracle& {
    auto [it, inserted] = oracles.try_emplace(kind);
    if (inserted) {
      it->second.fanout = MaxOutputFanout(kind, *sequences, *interactions);
      if (kind != QueryKind::kScanAgg) {
        it->second.rows = OracleRows(kind, *sequences, *interactions);
      }
    }
    return it->second;
  };

  // Monitoring attribution (g) needs every M1/M2 event that was sent
  // delivered to its MED and every executor's counters intact: no loss,
  // no partition, no crash (injected or confirmed) and no takeover.
  const bool check_monitoring =
      scenario.adaptivity && scenario.loss_rate == 0.0 &&
      scenario.partitions.empty() && !failures_injected &&
      !scenario.coordinator_kill && !took_over;
  // The slices of every query that ran, for (g)'s site-wide sum; only
  // complete when no query that ran was left out (rejected ones never
  // deployed, so they emitted nothing).
  uint64_t m1_slices = 0;
  uint64_t m2_slices = 0;
  bool all_slices = true;

  // Every submitted query is held to the same invariants: a terminal
  // state it is allowed to reach and, once complete, a correct result
  // multiset (a), tuple conservation (b), bounded memory (f) and
  // monitoring attribution (g), all scoped per query.
  for (const DriverQueryRecord& record : records) {
    // Rejections and sheds are the workload report's to account for.
    if (record.outcome != gqp::QueryOutcome::kComplete &&
        allowed(record.outcome)) {
      all_slices &= record.outcome == gqp::QueryOutcome::kRejected;
      continue;
    }
    QueryOutcome outcome;
    outcome.query_id = record.query_id;
    outcome.kind = record.kind;
    const size_t before = violations.size();
    if (record.outcome == gqp::QueryOutcome::kUnresolved) {
      violations.push_back(StrCat(
          "[trichotomy] query (", QueryKindName(record.kind), ", submitted t",
          record.submit_ms, ") drained without a terminal state",
          DumpExecutors(&grid, final_id(record.query_id))));
    } else if (record.outcome != gqp::QueryOutcome::kComplete) {
      violations.push_back(
          StrCat("[termination] query (", QueryKindName(record.kind),
                 ") did not complete: ", record.detail));
    } else {
      Result<QueryResult> rows = get_result(record.query_id);
      Result<QueryStatsSnapshot> stats = collect_stats(record.query_id);
      if (!rows.ok() || !stats.ok()) {
        violations.push_back(StrCat(
            "[results] completed query has no result: ",
            (rows.ok() ? stats.status() : rows.status()).ToString()));
      } else {
        outcome.completed = true;
        outcome.rows = rows->rows.size();
        outcome.submit_ms = rows->submit_time_ms;
        outcome.response_ms = rows->response_time_ms;
        outcome.stats = *stats;
        if (record.query_id == base_id) {
          result.response_ms = rows->response_time_ms;
          for (const Tuple& row : rows->rows) {
            result.result_rows.push_back(row.ToString());
          }
          result.stats = *stats;
        }
        const KindOracle& oracle = oracle_for(record.kind);
        const size_t fanout = oracle.fanout;
        if (record.kind == QueryKind::kScanAgg) {
          CheckAggregateResults(*interactions, rows->rows, failures_injected,
                                stats->resent_tuples, &violations);
        } else {
          CheckResults(oracle.rows, rows->rows, failures_injected,
                       stats->resent_tuples, fanout, &violations);
        }
        const int id = final_id(record.query_id);
        CheckConservation(&grid, id, reported_failures, &violations);
        if (scenario.flow_control) {
          CheckBoundedMemory(&grid, id, max_row + max_inter, fanout,
                             dataset_bytes, &violations);
        }
        if (check_monitoring) {
          CheckMonitoring(&grid, id, *stats, &violations);
          m1_slices += stats->raw_m1;
          m2_slices += stats->raw_m2;
        }
      }
    }
    all_slices &= outcome.completed;
    for (size_t v = before; v < violations.size(); ++v) {
      violations[v] += StrCat(" [q", record.query_id, "]");
    }
    result.per_query.push_back(outcome);
  }

  if (check_monitoring && all_slices) {
    CheckMonitoringTotals(&grid, m1_slices, m2_slices, &violations);
  }

  // --- invariant (e): detection latency ---------------------------------
  CheckDetection(grid.monitor(), scenario, &violations);

  // Admission accounting: the bounded queue must actually have been
  // bounded, every rejection the clients saw must match the controller's
  // own ledger, and nothing may be left admitted or queued after drain.
  if (admission != nullptr) {
    const size_t capacity = admission->config().queue_capacity;
    if (result.admission.queue_peak > capacity) {
      violations.push_back(StrCat("[admission] queue peak ",
                                  result.admission.queue_peak,
                                  " exceeded the configured capacity ",
                                  capacity));
    }
    const uint64_t rejected = static_cast<uint64_t>(std::count_if(
        records.begin(), records.end(), [](const DriverQueryRecord& r) {
          return r.outcome == gqp::QueryOutcome::kRejected;
        }));
    if (result.admission.rejected_queue_full + result.admission.shed_queued !=
        rejected) {
      violations.push_back(StrCat(
          "[admission] controller counted ",
          result.admission.rejected_queue_full, " queue-full + ",
          result.admission.shed_queued, " shed rejections but clients saw ",
          rejected));
    }
    if (admission->live() != 0 || admission->queue_depth() != 0) {
      violations.push_back(StrCat(
          "[admission] drained simulation left live=", admission->live(),
          " queued=", admission->queue_depth()));
    }
  }

  return result;
}

}  // namespace chaos

namespace {

// The calibrated per-tuple costs of the paper runs (EXPERIMENTS.md); Q2
// ships its tuples through slower GDS wrappers, Q1 scans at the CostModel
// default.
constexpr double kPaperQ2ScanCostMs = 3.5;
constexpr double kPaperJoinProbeCostMs = 1.0;
constexpr double kPaperJoinBuildCostMs = 0.5;
/// Correlation time of the unperturbed evaluators' load drift.
constexpr double kDriftTauMs = 250.0;

/// One repetition of a paper cell as a zero-fault scenario: its explicit
/// perturbations and the drift of every other evaluator install at t=0;
/// no failures, link shifts, partitions or stalls.
chaos::ChaosScenario CellScenario(const ExperimentParams& params,
                                  uint64_t seed) {
  using Kind = chaos::PerturbationEvent::Kind;
  chaos::ChaosScenario s;
  static_cast<RunSpec&>(s) = params;
  s.seed = seed;
  s.q2_scan_cost_ms = kPaperQ2ScanCostMs;
  s.join_probe_cost_ms = kPaperJoinProbeCostMs;
  s.join_build_cost_ms = kPaperJoinBuildCostMs;
  // The default caps and no global budget: the cell's own memory budget
  // stands.
  s.admission.enabled = params.admission_control;
  std::vector<bool> perturbed(static_cast<size_t>(params.num_evaluators),
                              false);
  for (const PerturbSpec& spec : params.perturbations) {
    perturbed[static_cast<size_t>(spec.evaluator)] = true;
    // kNone stays the event's default: a constant factor of 1.
    chaos::PerturbationEvent ev;
    ev.evaluator = spec.evaluator;
    ev.profile_seed = seed + 77 + static_cast<uint64_t>(spec.evaluator);
    switch (spec.kind) {
      case PerturbSpec::Kind::kNone:
        break;
      case PerturbSpec::Kind::kFactor:
        ev.p0 = spec.factor;
        if (params.noise_stddev > 0) {
          ev.kind = Kind::kGaussianFactor;
          ev.p1 = spec.factor * params.noise_stddev;
          ev.p2 = spec.factor * 0.5;
          ev.p3 = spec.factor * 1.5;
        }
        break;
      case PerturbSpec::Kind::kSleep:
        ev.kind = Kind::kAddedDelay;
        ev.p0 = spec.sleep_ms;
        break;
      case PerturbSpec::Kind::kGaussianFactor:
        ev.kind = Kind::kGaussianFactor;
        ev.p0 = spec.mean;
        ev.p1 = spec.stddev;
        ev.p2 = spec.lo;
        ev.p3 = spec.hi;
        break;
    }
    s.perturbations.push_back(std::move(ev));
  }
  for (int i = 0; i < params.num_evaluators && params.drift_sigma > 0; ++i) {
    if (perturbed[static_cast<size_t>(i)]) continue;
    chaos::PerturbationEvent drift;
    drift.evaluator = i;
    drift.kind = Kind::kDrift;
    drift.p0 = params.drift_sigma;
    drift.p1 = kDriftTauMs;
    drift.profile_seed = seed + 177 + static_cast<uint64_t>(i);
    s.perturbations.push_back(std::move(drift));
  }
  return s;
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentParams& params) {
  ExperimentResult result;
  for (const PerturbSpec& spec : params.perturbations) {
    if (spec.evaluator < 0 || spec.evaluator >= params.num_evaluators) {
      result.error =
          Status::OutOfRange(StrCat("paper cell '", params.name,
                                    "': perturbation targets unknown "
                                    "evaluator ",
                                    spec.evaluator))
              .ToString();
      return result;
    }
  }
  double total = 0.0;
  for (int rep = 0; rep < params.repetitions; ++rep) {
    const uint64_t seed = params.seed + static_cast<uint64_t>(rep);
    const chaos::ChaosRunResult run =
        chaos::RunScenario(CellScenario(params, seed));
    // A clean run without a base-query outcome was rejected by admission.
    if (!run.ok() || run.per_query.empty()) {
      // The report names the cell, not a chaos_repro command: no
      // generated scenario reproduces a paper cell.
      result.error = StrCat("paper cell '", params.name, "' repetition seed ",
                            seed, ": ",
                            run.ok() ? "the query did not complete"
                                     : run.Summary());
      return result;
    }
    result.rep_times_ms.push_back(run.response_ms);
    result.rep_rows.push_back(run.result_rows.size());
    result.stats = run.stats;
    total += run.response_ms;
  }
  result.ok = true;
  result.response_ms = total / static_cast<double>(params.repetitions);
  return result;
}

double Normalized(const ExperimentResult& result,
                  const ExperimentResult& baseline) {
  if (!result.ok || !baseline.ok || baseline.response_ms <= 0) return 0.0;
  return result.response_ms / baseline.response_ms;
}

}  // namespace gqp
