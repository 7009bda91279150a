#include "chaos/runner.h"

#include <algorithm>
#include <functional>
#include <memory>
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

/// Multi-tenant storm (D16): the open-loop workload driver replaces the
/// single base query; the per-query invariant is the terminal trichotomy
/// plus per-completed-query result correctness, and the admission
/// controller's caps are checked against its own counters.
ChaosRunResult RunTenantStorm(const ChaosScenario& scenario,
                              const ChaosRunOptions& options) {
  ChaosRunResult result;
  const std::string repro =
      ReproCommand(scenario.seed, scenario.profile, scenario.vector_batch_size);

  GridOptions grid_options;
  grid_options.num_evaluators = scenario.num_evaluators;
  grid_options.evaluator_capacities = scenario.capacities;
  grid_options.link = scenario.initial_link;
  grid_options.adaptive = true;
  grid_options.med.window = scenario.med_window;
  grid_options.med.thres_m = scenario.thres_m;
  grid_options.detect.enabled = true;
  grid_options.detect.heartbeat_interval_ms = scenario.heartbeat_interval_ms;
  grid_options.reliable.enabled = true;
  grid_options.admission.enabled = true;
  grid_options.admission.max_concurrent_queries = scenario.storm_max_concurrent;
  grid_options.admission.queue_capacity =
      static_cast<size_t>(scenario.storm_queue_capacity);
  grid_options.admission.per_tenant_inflight_cap = scenario.storm_per_tenant_cap;
  // Each admitted query's share of the global pool lands near the
  // scenario's per-query budget.
  grid_options.admission.global_memory_budget_bytes =
      static_cast<uint64_t>(scenario.memory_budget_bytes) *
      static_cast<uint64_t>(scenario.storm_max_concurrent);
  grid_options.admission.shed_enabled = true;

  GridSetup grid(grid_options);
  result.status = grid.Initialize();
  if (!result.status.ok()) return result;

  EventTraceRecorder recorder(options.keep_trace);
  recorder.Attach(grid.simulator());
  grid.simulator()->set_max_events(options.max_events);

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

  for (const FailureEvent& ev : scenario.failures) {
    grid.simulator()->Schedule(
        ev.at_ms, [&grid, &ev] { (void)grid.FailEvaluator(ev.evaluator); });
  }

  DriverConfig driver_config;
  driver_config.seed = scenario.seed ^ 0x7E4A47ULL;
  driver_config.horizon_ms = scenario.storm_horizon_ms;
  driver_config.deadline_ms = scenario.deadline_ms;
  driver_config.max_queries = 300;
  for (int i = 0; i < scenario.storm_tenants; ++i) {
    TenantSpec tenant;
    tenant.name = StrCat("t", i);
    tenant.arrival_rate_qps = scenario.storm_rate_qps;
    if (i == 0) {
      // The heaviest tenant: periodic bursts on top of the base rate —
      // the shedding target when sustained queue pressure hits.
      tenant.burst_period_ms = scenario.storm_horizon_ms / 3.0;
      tenant.burst_duty = 0.4;
      tenant.burst_multiplier = scenario.storm_burst_multiplier;
    }
    tenant.weight_q1 = 1.0;
    tenant.weight_q2 = 0.5;
    tenant.weight_scan_agg = 0.5;
    driver_config.tenants.push_back(std::move(tenant));
  }
  QueryOptions base;
  base.adaptivity.enabled = true;
  base.adaptivity.assessment = scenario.assessment;
  base.adaptivity.response = ResponseType::kRetrospective;
  base.adaptivity.thres_a = scenario.thres_a;
  base.adaptivity.thres_m = scenario.thres_m;
  base.adaptivity.window = scenario.med_window;
  base.exec.m1_frequency = scenario.m1_frequency;
  base.exec.checkpoint_interval = scenario.checkpoint_interval;
  base.exec.buffer_tuples = scenario.buffer_tuples;
  base.exec.monitoring_enabled = true;
  base.exec.recovery_log_enabled = true;
  base.exec.flow_control_enabled = scenario.flow_control;
  base.exec.memory_budget_bytes = scenario.memory_budget_bytes;
  base.scheduler.num_evaluators = scenario.num_evaluators;
  driver_config.base_options = base;

  WorkloadDriver driver(driver_config);
  driver.ScheduleArrivals(&grid);

  const Status run_status = grid.simulator()->Run();
  EventTraceRecorder::Detach(grid.simulator());
  result.trace_hash = recorder.hash();
  result.trace_events = recorder.events();
  if (options.keep_trace) result.trace = recorder.trace();
  result.final_time_ms = grid.simulator()->Now();

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
  if (const AdmissionController* admission = grid.gdqs()->admission()) {
    result.admission = admission->stats();
  }

  if (!run_status.ok()) {
    result.violations.push_back(
        StrCat("[termination] simulator did not drain: ",
               run_status.ToString(), " — repro: ", repro));
    return result;
  }

  result.workload = driver.Collect(&grid);
  result.completed = result.workload.trichotomy_ok;

  std::vector<std::string> violations;
  for (const DriverQueryRecord& record : result.workload.queries) {
    if (record.outcome == gqp::QueryOutcome::kUnresolved) {
      violations.push_back(StrCat(
          "[trichotomy] query ", record.query_id, " (tenant t",
          record.tenant, ", ", QueryKindName(record.kind), ", submitted t",
          record.submit_ms, ") drained without a terminal state: ",
          record.detail));
    }
  }

  // Per-completed-query correctness, under at-least-once bounds (one
  // evaluator crash is always injected mid-storm).
  const std::set<HostId> reported_failures = grid.gdqs()->reported_failures();
  for (const DriverQueryRecord& record : result.workload.queries) {
    if (record.outcome != gqp::QueryOutcome::kComplete) continue;
    Result<QueryResult> rows = grid.gdqs()->GetResult(record.query_id);
    if (!rows.ok()) {
      violations.push_back(StrCat("[results] completed query ",
                                  record.query_id, " has no result: ",
                                  rows.status().ToString()));
      continue;
    }
    Result<QueryStatsSnapshot> stats =
        grid.gdqs()->CollectStats(record.query_id);
    const uint64_t resent = stats.ok() ? stats->resent_tuples : 0;
    const size_t before = violations.size();
    if (record.kind == QueryKind::kScanAgg) {
      CheckAggregateResults(*interactions, rows->rows,
                            /*failures_injected=*/true, resent, &violations);
    } else {
      CheckResults(OracleRows(record.kind, *sequences, *interactions),
                   rows->rows, /*failures_injected=*/true, resent,
                   MaxOutputFanout(record.kind, *sequences, *interactions),
                   &violations);
    }
    CheckConservation(&grid, record.query_id, reported_failures, &violations);
    for (size_t v = before; v < violations.size(); ++v) {
      violations[v] += StrCat(" [q", record.query_id, "]");
    }
    result.per_query.push_back(QueryOutcome{
        record.query_id, record.kind, true, rows->rows.size(),
        record.latency_ms, stats.ok() ? stats->queued_bytes_peak : 0,
        stats.ok() ? stats->rounds_applied : 0});
  }

  // Admission accounting: the bounded queue must actually have been
  // bounded, every rejection the clients saw must match the controller's
  // own ledger, and nothing may be left admitted or queued after drain.
  if (result.admission.queue_peak >
      static_cast<size_t>(scenario.storm_queue_capacity)) {
    violations.push_back(StrCat(
        "[admission] queue peak ", result.admission.queue_peak,
        " exceeded the configured capacity ", scenario.storm_queue_capacity));
  }
  if (result.admission.rejected_queue_full + result.admission.shed_queued !=
      result.workload.rejected) {
    violations.push_back(StrCat(
        "[admission] controller counted ",
        result.admission.rejected_queue_full, " queue-full + ",
        result.admission.shed_queued, " shed rejections but clients saw ",
        result.workload.rejected));
  }
  if (const AdmissionController* admission = grid.gdqs()->admission()) {
    if (admission->live() != 0 || admission->queue_depth() != 0) {
      violations.push_back(StrCat(
          "[admission] drained simulation left live=", admission->live(),
          " queued=", admission->queue_depth()));
    }
  }

  for (std::string& v : violations) {
    result.violations.push_back(StrCat(v, " — repro: ", repro));
  }
  return result;
}

}  // namespace

std::string ChaosRunResult::Report() const {
  std::string out;
  if (!status.ok()) out = StrCat("run error: ", status.ToString(), "\n");
  for (const std::string& v : violations) out += v + "\n";
  return out;
}

ChaosRunResult RunScenario(const ChaosScenario& scenario,
                           const ChaosRunOptions& options) {
  if (scenario.tenant_storm) return RunTenantStorm(scenario, options);
  ChaosRunResult result;
  const std::string repro =
      ReproCommand(scenario.seed, scenario.profile, scenario.vector_batch_size);

  GridOptions grid_options;
  grid_options.num_evaluators = scenario.num_evaluators;
  grid_options.evaluator_capacities = scenario.capacities;
  grid_options.link = scenario.initial_link;
  grid_options.adaptive = true;
  grid_options.med.window = scenario.med_window;
  grid_options.med.thres_m = scenario.thres_m;
  // Failure detection + reliable control plane run in EVERY chaos
  // scenario: crashes must be discovered through missed heartbeats, never
  // reported by the harness.
  grid_options.detect.enabled = true;
  grid_options.detect.heartbeat_interval_ms = scenario.heartbeat_interval_ms;
  grid_options.reliable.enabled = true;
  grid_options.loss_rate = scenario.loss_rate;
  grid_options.loss_seed = scenario.seed ^ 0x1055C0DEULL;
  grid_options.standby_enabled = scenario.standby;

  GridSetup grid(grid_options);
  result.status = grid.Initialize();
  if (!result.status.ok()) return result;

  Simulator* sim = grid.simulator();
  EventTraceRecorder recorder(options.keep_trace);
  recorder.Attach(sim);
  sim->set_max_events(options.max_events);

  // Datasets, seeded from the scenario (same derivation as the experiment
  // harness so chaos results stay comparable to the paper runs).
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
  query_options.adaptivity.enabled = true;
  query_options.adaptivity.assessment = scenario.assessment;
  query_options.adaptivity.response = scenario.response;
  query_options.adaptivity.thres_a = scenario.thres_a;
  query_options.adaptivity.thres_m = scenario.thres_m;
  query_options.adaptivity.window = scenario.med_window;
  query_options.exec.m1_frequency = scenario.m1_frequency;
  query_options.exec.checkpoint_interval = scenario.checkpoint_interval;
  query_options.exec.buffer_tuples = scenario.buffer_tuples;
  query_options.exec.monitoring_enabled = true;
  query_options.exec.recovery_log_enabled = true;
  query_options.exec.flow_control_enabled = scenario.flow_control;
  query_options.exec.memory_budget_bytes = scenario.memory_budget_bytes;
  query_options.exec.vector_batch_size = scenario.vector_batch_size;
  query_options.scheduler.num_evaluators = scenario.num_evaluators;
  query_options.deadline_ms = scenario.deadline_ms;

  Result<int> query = grid.gdqs()->SubmitQuery(QuerySql(scenario.query),
                                               query_options);
  if (!query.ok()) {
    result.status = query.status();
    return result;
  }

  // Concurrent queries (kMultiQuery only; the vector is empty in every
  // other profile, so legacy runs schedule zero extra events). Submission
  // happens at virtual time, while the base query is already executing.
  std::vector<int> extra_ids(scenario.extra_queries.size(), -1);
  for (size_t i = 0; i < scenario.extra_queries.size(); ++i) {
    const ConcurrentQuery& q = scenario.extra_queries[i];
    QueryOptions extra_options = query_options;
    // R2 cannot preserve correctness for the partitioned stateful join;
    // per-query override, same rule the generator applies to the base.
    if (q.kind == QueryKind::kQ2) {
      extra_options.adaptivity.response = ResponseType::kRetrospective;
    }
    sim->ScheduleAt(
        q.submit_at_ms, [&grid, &extra_ids, i, q, extra_options] {
          Result<int> id =
              grid.gdqs()->SubmitQuery(QuerySql(q.kind), extra_options);
          if (id.ok()) extra_ids[i] = *id;
        });
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

  result.completed = query_complete(*query);

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

  if (!run_status.ok()) {
    result.violations.push_back(
        StrCat("[termination] simulator did not drain: ",
               run_status.ToString(), " — repro: ", repro,
               DumpExecutors(&grid, *query)));
    return result;
  }
  if (!result.completed) {
    result.violations.push_back(StrCat(
        "[termination] query never completed (events=",
        sim->events_executed(),
        ", t=", result.final_time_ms, " ms) — repro: ", repro,
        DumpExecutors(&grid, *query)));
    return result;
  }
  const Status exec_status = execution_status(*query);
  if (!exec_status.ok()) {
    result.violations.push_back(
        StrCat("[termination] execution error: ", exec_status.ToString(),
               " — repro: ", repro));
    return result;
  }

  Result<QueryResult> query_result = get_result(*query);
  if (!query_result.ok()) {
    result.status = query_result.status();
    return result;
  }
  result.response_ms = query_result->response_time_ms;
  for (const Tuple& row : query_result->rows) {
    result.result_rows.push_back(row.ToString());
  }
  Result<QueryStatsSnapshot> stats = collect_stats(*query);
  if (stats.ok()) result.stats = *stats;
  result.per_query.push_back(QueryOutcome{
      *query, scenario.query, true, query_result->rows.size(),
      result.response_ms, result.stats.queued_bytes_peak,
      result.stats.rounds_applied});

  // --- invariants (a) + (b) + (e) ---------------------------------------
  std::vector<std::string> violations;
  const std::multiset<std::string> oracle =
      OracleRows(scenario.query, *sequences, *interactions);
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
  CheckResults(oracle, query_result->rows, failures_injected,
               result.stats.resent_tuples,
               MaxOutputFanout(scenario.query, *sequences, *interactions),
               &violations);
  CheckConservation(&grid, final_id(*query), reported_failures, &violations);
  CheckDetection(grid.monitor(), scenario, &violations);
  if (scenario.flow_control) {
    CheckBoundedMemory(
        &grid, final_id(*query), max_row + max_inter,
        MaxOutputFanout(scenario.query, *sequences, *interactions),
        dataset_bytes, &violations);
  }

  // Every concurrent query is held to the same invariants: correct result
  // multiset, tuple conservation and bounded memory, all scoped per query.
  for (size_t i = 0; i < scenario.extra_queries.size(); ++i) {
    const ConcurrentQuery& q = scenario.extra_queries[i];
    QueryOutcome outcome;
    outcome.query_id = extra_ids[i];
    outcome.kind = q.kind;
    const size_t before = violations.size();
    if (extra_ids[i] < 0 || !query_complete(extra_ids[i])) {
      violations.push_back(StrCat("[termination] concurrent query ", i + 1,
                                  " never completed"));
    } else if (const Status st = execution_status(extra_ids[i]); !st.ok()) {
      violations.push_back(StrCat(
          "[termination] concurrent query execution error: ", st.ToString()));
    } else {
      outcome.completed = true;
      Result<QueryResult> extra_result = get_result(extra_ids[i]);
      Result<QueryStatsSnapshot> extra_stats = collect_stats(extra_ids[i]);
      if (extra_result.ok() && extra_stats.ok()) {
        outcome.rows = extra_result->rows.size();
        outcome.response_ms = extra_result->response_time_ms;
        outcome.queued_bytes_peak = extra_stats->queued_bytes_peak;
        outcome.rounds_applied = extra_stats->rounds_applied;
        CheckResults(OracleRows(q.kind, *sequences, *interactions),
                     extra_result->rows, failures_injected,
                     extra_stats->resent_tuples,
                     MaxOutputFanout(q.kind, *sequences, *interactions),
                     &violations);
        CheckConservation(&grid, final_id(extra_ids[i]), reported_failures,
                          &violations);
        if (scenario.flow_control) {
          CheckBoundedMemory(&grid, final_id(extra_ids[i]),
                             max_row + max_inter,
                             MaxOutputFanout(q.kind, *sequences,
                                             *interactions),
                             dataset_bytes, &violations);
        }
      }
    }
    for (size_t v = before; v < violations.size(); ++v) {
      violations[v] += StrCat(" [q", extra_ids[i], "]");
    }
    result.per_query.push_back(outcome);
  }

  for (std::string& v : violations) {
    result.violations.push_back(StrCat(v, " — repro: ", repro));
  }
  return result;
}

}  // namespace chaos
}  // namespace gqp
