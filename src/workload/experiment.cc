#include "workload/experiment.h"

#include "common/logging.h"
#include "common/strings.h"
#include "plan/cost_model.h"
#include "storage/datagen.h"

namespace gqp {

std::string QuerySql(QueryKind kind) {
  switch (kind) {
    case QueryKind::kQ1:
      return "select EntropyAnalyser(p.sequence) from protein_sequences p";
    case QueryKind::kQ2:
      return "select i.orf2 from protein_sequences p, protein_interactions i "
             "where i.orf1 = p.orf";
    case QueryKind::kScanAgg:
      return "select i.orf1, count(*) from protein_interactions i "
             "group by i.orf1";
  }
  return "";
}

std::string QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kQ1:
      return "Q1";
    case QueryKind::kQ2:
      return "Q2";
    case QueryKind::kScanAgg:
      return "SA";
  }
  return "?";
}

std::string PerturbTag(QueryKind kind) {
  switch (kind) {
    case QueryKind::kQ1:
      return CostModel::WsTag("EntropyAnalyser");
    case QueryKind::kQ2:
      return CostModel::JoinTag();
    case QueryKind::kScanAgg:
      return CostModel::AggregateTag();
  }
  return "";
}

namespace {

/// One repetition; returns the response time (or error via result).
Status RunOnce(const ExperimentParams& params, uint64_t seed,
               double* response_ms, size_t* rows,
               QueryStatsSnapshot* stats_out) {
  GridOptions grid_options;
  grid_options.num_evaluators = params.num_evaluators;
  grid_options.adaptive = params.adaptivity;
  grid_options.med.window = params.med_window;
  grid_options.med.thres_m = params.thres_m;
  grid_options.detect.enabled = params.failure_detection;
  grid_options.reliable.enabled = params.failure_detection;
  grid_options.standby_enabled = params.coordinator_standby;
  grid_options.admission.enabled = params.admission_control;

  GridSetup grid(grid_options);
  GQP_RETURN_IF_ERROR(grid.Initialize());

  // Datasets (fresh per repetition, seeded).
  ProteinSequencesSpec seq_spec;
  seq_spec.num_rows = params.sequences;
  seq_spec.sequence_length = params.sequence_length;
  seq_spec.seed = seed;
  GQP_RETURN_IF_ERROR(grid.AddTable(GenerateProteinSequences(seq_spec)));

  ProteinInteractionsSpec inter_spec;
  inter_spec.num_rows = params.interactions;
  inter_spec.num_orfs = params.sequences;
  inter_spec.seed = seed + 1000003;
  GQP_RETURN_IF_ERROR(
      grid.AddTable(GenerateProteinInteractions(inter_spec)));

  GQP_RETURN_IF_ERROR(grid.AddWebService("EntropyAnalyser",
                                         DataType::kDouble,
                                         params.ws_cost_ms));

  // Perturbations: explicit specs first, then background noise for
  // evaluators without one.
  const std::string tag = PerturbTag(params.query);
  std::vector<bool> perturbed(static_cast<size_t>(params.num_evaluators),
                              false);
  for (const PerturbSpec& spec : params.perturbations) {
    if (spec.evaluator < 0 || spec.evaluator >= params.num_evaluators) {
      return Status::OutOfRange(
          StrCat("perturbation targets unknown evaluator ", spec.evaluator));
    }
    perturbed[static_cast<size_t>(spec.evaluator)] = true;
    PerturbationPtr profile;
    switch (spec.kind) {
      case PerturbSpec::Kind::kNone:
        profile = std::make_shared<NoPerturbation>();
        break;
      case PerturbSpec::Kind::kFactor:
        if (params.noise_stddev > 0) {
          profile = std::make_shared<GaussianFactorPerturbation>(
              spec.factor, spec.factor * params.noise_stddev,
              spec.factor * 0.5, spec.factor * 1.5,
              seed + 77 + static_cast<uint64_t>(spec.evaluator));
        } else {
          profile = std::make_shared<ConstantFactorPerturbation>(spec.factor);
        }
        break;
      case PerturbSpec::Kind::kSleep:
        profile = std::make_shared<AddedDelayPerturbation>(spec.sleep_ms);
        break;
      case PerturbSpec::Kind::kGaussianFactor:
        profile = std::make_shared<GaussianFactorPerturbation>(
            spec.mean, spec.stddev, spec.lo, spec.hi,
            seed + 77 + static_cast<uint64_t>(spec.evaluator));
        break;
    }
    GQP_RETURN_IF_ERROR(
        grid.PerturbEvaluator(spec.evaluator, tag, std::move(profile)));
  }
  if (params.drift_sigma > 0) {
    for (int i = 0; i < params.num_evaluators; ++i) {
      if (perturbed[static_cast<size_t>(i)]) continue;
      GQP_RETURN_IF_ERROR(grid.PerturbEvaluator(
          i, tag,
          std::make_shared<DriftPerturbation>(
              params.drift_sigma, params.drift_tau_ms,
              seed + 177 + static_cast<uint64_t>(i))));
    }
  }

  // Query options.
  QueryOptions options;
  options.adaptivity.enabled = params.adaptivity;
  options.adaptivity.assessment = params.assessment;
  options.adaptivity.response = params.response;
  options.adaptivity.thres_a = params.thres_a;
  options.adaptivity.thres_m = params.thres_m;
  options.adaptivity.window = params.med_window;
  options.exec.m1_frequency = params.m1_frequency;
  options.exec.monitoring_enabled = params.adaptivity;
  options.exec.recovery_log_enabled = params.adaptivity;
  options.exec.flow_control_enabled = params.flow_control;
  options.exec.memory_budget_bytes = params.memory_budget_bytes;
  options.optimizer.costs.scan_cost_ms =
      (params.query == QueryKind::kQ2 && params.q2_scan_cost_ms > 0)
          ? params.q2_scan_cost_ms
          : params.scan_cost_ms;
  options.optimizer.costs.join_probe_cost_ms = params.join_probe_cost_ms;
  options.optimizer.costs.join_build_cost_ms = params.join_build_cost_ms;
  options.scheduler.num_evaluators = params.num_evaluators;

  GQP_ASSIGN_OR_RETURN(int query_id,
                       grid.gdqs()->SubmitQuery(QuerySql(params.query),
                                                options));
  GQP_RETURN_IF_ERROR(grid.simulator()->Run());
  if (!grid.gdqs()->QueryComplete(query_id)) {
    GQP_RETURN_IF_ERROR(grid.gdqs()->ExecutionStatus(query_id));
    return Status::Internal(
        StrCat("query did not complete (", params.name,
               "); events executed: ", grid.simulator()->events_executed()));
  }
  GQP_RETURN_IF_ERROR(grid.gdqs()->ExecutionStatus(query_id));

  GQP_ASSIGN_OR_RETURN(QueryResult result,
                       grid.gdqs()->GetResult(query_id));
  GQP_ASSIGN_OR_RETURN(QueryStatsSnapshot stats,
                       grid.gdqs()->CollectStats(query_id));
  *response_ms = result.response_time_ms;
  *rows = result.rows.size();
  *stats_out = stats;
  return Status::OK();
}

}  // namespace

ExperimentResult RunExperiment(const ExperimentParams& params) {
  ExperimentResult result;
  double total = 0.0;
  for (int rep = 0; rep < params.repetitions; ++rep) {
    double response = 0.0;
    size_t rows = 0;
    QueryStatsSnapshot stats;
    const Status s =
        RunOnce(params, params.seed + static_cast<uint64_t>(rep), &response,
                &rows, &stats);
    if (!s.ok()) {
      result.ok = false;
      result.error = s.ToString();
      return result;
    }
    result.rep_times_ms.push_back(response);
    result.rep_rows.push_back(rows);
    result.stats = stats;
    total += response;
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
