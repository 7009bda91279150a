#include "workload/experiment.h"

#include "plan/cost_model.h"

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

}  // namespace gqp
