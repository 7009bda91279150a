#include "exec/operator_driver.h"

#include "common/interner.h"
#include "common/logging.h"
#include "monitor/monitoring_events.h"

namespace gqp {

OperatorDriver::OperatorDriver(GridNode* node,
                               const FragmentInstancePlan* plan,
                               FragmentStats* stats, Hooks hooks)
    : node_(node),
      plan_(plan),
      fragment_(&plan->fragment),
      stats_(stats),
      hooks_(std::move(hooks)) {}

OperatorDriver::~OperatorDriver() = default;

Status OperatorDriver::BuildAndOpen() {
  const bool is_scan = fragment_->IsScanLeaf();
  if (is_scan) {
    const PhysOpDesc& scan_desc = fragment_->ops.front();
    scan_tag_ = InternString(scan_desc.cost_tag);
    scan_cost_ms_ = scan_desc.base_cost_ms;
  }
  const size_t first_op = is_scan ? 1 : 0;
  for (size_t i = first_op; i < fragment_->ops.size(); ++i) {
    GQP_ASSIGN_OR_RETURN(std::unique_ptr<PhysicalOperator> op,
                         MakeOperator(fragment_->ops[i]));
    ops_.push_back(std::move(op));
  }
  for (size_t i = 0; i + 1 < ops_.size(); ++i) {
    ops_[i]->set_next(ops_[i + 1].get());
  }
  for (auto& op : ops_) {
    GQP_RETURN_IF_ERROR(op->Open(&ctx_));
  }
  return Status::OK();
}

Status OperatorDriver::RunScanRow(const Tuple& row) {
  ctx_.ResetForTuple();
  ctx_.Charge(scan_tag_, scan_cost_ms_);
  if (!ops_.empty()) {
    return ops_.front()->Process(0, row, -1, &ctx_);
  }
  ctx_.out.push_back(row);
  return Status::OK();
}

Status OperatorDriver::RunTuple(int port, const Tuple& tuple, int bucket) {
  ctx_.ResetForTuple();
  return ops_.front()->Process(port, tuple, bucket, &ctx_);
}

Status OperatorDriver::RunScanBatch(const Table& table, size_t start,
                                    size_t n) {
  ctx_.ResetForBatch(n);
  num_steps_ = 0;
  BeginStep(n, nullptr);
  ctx_.ChargeN(scan_tag_, scan_cost_ms_, n);
  EndStep();
  if (ops_.empty()) {
    for (size_t i = 0; i < n; ++i) {
      ctx_.out.push_back(table.row(start + i));
      ctx_.out_origin.push_back(static_cast<uint32_t>(i));
    }
    ExpandBatchCharges();
    return Status::OK();
  }
  scan_batch_.Clear();
  scan_batch_.Reserve(n);
  for (size_t i = 0; i < n; ++i) {
    scan_batch_.Append(table.row(start + i), -1, static_cast<uint32_t>(i));
  }
  return RunChainBatch(0, &scan_batch_);
}

Status OperatorDriver::RunBatch(int port, TupleBatch* in) {
  ctx_.ResetForBatch(in->size());
  num_steps_ = 0;
  return RunChainBatch(port, in);
}

Status OperatorDriver::RunChainBatch(int port, TupleBatch* in) {
  TupleBatch* cur = in;
  TupleBatch* next = &scratch_a_;
  for (auto& op : ops_) {
    next->Clear();
    // The chain's first step takes the input rows (or the scan rows) one
    // to one; later steps take the previous operator's derived rows.
    BeginStep(cur->size(), cur == in ? nullptr : &cur->parents());
    const Status s = op->ProcessBatch(port, cur, next, &ctx_);
    EndStep();
    GQP_RETURN_IF_ERROR(s);
    // Ping-pong: the consumed batch becomes the next stage's output
    // scratch (the caller's `in` is scratch to it as well).
    TupleBatch* spent = cur == in ? &scratch_b_ : cur;
    cur = next;
    next = spent;
    port = 0;
  }
  const size_t rows = cur->size();
  ctx_.out.reserve(ctx_.out.size() + rows);
  ctx_.out_origin.reserve(ctx_.out_origin.size() + rows);
  for (size_t i = 0; i < rows; ++i) {
    ctx_.out.push_back(cur->TakeTuple(i));
    ctx_.out_origin.push_back(cur->origin(i));
  }
  ExpandBatchCharges();
  return Status::OK();
}

void OperatorDriver::BeginStep(size_t rows,
                               const std::vector<uint32_t>* parents) {
  // Step storage persists across batches, so assigning reuses capacity.
  if (num_steps_ == steps_.size()) steps_.emplace_back();
  BatchStep& step = steps_[num_steps_++];
  step.rows = rows;
  if (parents != nullptr) {
    step.parents.assign(parents->begin(), parents->end());
  } else {
    step.parents.clear();
  }
  step.charges_begin = ctx_.row_charges.size();
  step.charges_end = step.charges_begin;
}

void OperatorDriver::ExpandBatchCharges() {
  ctx_.charges.clear();
  if (num_steps_ == 0) return;
  step_cursor_.assign(num_steps_, 0);
  for (size_t row = 0; row < steps_[0].rows; ++row) ChargeRow(0, row);
}

void OperatorDriver::ChargeRow(size_t step, size_t row) {
  const BatchStep& s = steps_[step];
  for (size_t c = s.charges_begin; c < s.charges_end; ++c) {
    ctx_.charges.push_back(ctx_.row_charges[c]);
  }
  if (step + 1 == num_steps_) return;
  // Operators emit in input-row order, so the rows derived from `row` are
  // the next contiguous run of the following step.
  const BatchStep& child_step = steps_[step + 1];
  size_t& child = step_cursor_[step + 1];
  while (child < child_step.rows &&
         (child_step.parents.empty() ? child
                                     : child_step.parents[child]) == row) {
    ChargeRow(step + 1, child++);
  }
}

void OperatorDriver::FinishPorts(size_t num_ports) {
  for (size_t p = 0; p < num_ports; ++p) {
    for (auto& op : ops_) {
      const Status s = op->FinishPort(static_cast<int>(p), &ctx_);
      if (!s.ok()) hooks_.fail(s);
    }
  }
}

bool OperatorDriver::FinishChain() {
  ctx_.ResetForTuple();
  if (ops_.empty()) return false;
  const Status s = ops_.front()->Finish(&ctx_);
  if (!s.ok()) hooks_.fail(s);
  return true;
}

void OperatorDriver::PurgeBuckets(const std::vector<int>& buckets) {
  for (auto& op : ops_) op->PurgeBuckets(buckets);
}

OperatorDriver::M1Sample OperatorDriver::TakeM1(uint64_t tuples_processed,
                                                uint64_t tuples_emitted) {
  M1Sample sample;
  sample.cost_per_tuple_ms = m1_cost_ms_ / static_cast<double>(m1_tuples_);
  sample.wait_per_tuple_ms = m1_wait_ms_ / static_cast<double>(m1_tuples_);
  sample.selectivity = tuples_processed > 0
                           ? static_cast<double>(tuples_emitted) /
                                 static_cast<double>(tuples_processed)
                           : 1.0;
  m1_tuples_ = 0;
  m1_cost_ms_ = 0.0;
  m1_wait_ms_ = 0.0;
  return sample;
}

void OperatorDriver::MaybeEmitM1(bool has_producer) {
  if (!plan_->config.monitoring_enabled || plan_->config.m1_frequency == 0 ||
      plan_->adaptivity.med.host == kInvalidHost || !has_producer) {
    return;
  }
  if (m1_tuples_ < plan_->config.m1_frequency) return;
  const M1Sample sample =
      TakeM1(stats_->tuples_processed, stats_->tuples_emitted);
  ++stats_->m1_sent;
  node_->SubmitWork(kExchangeTag, plan_->config.monitor_emit_cost_ms,
                    nullptr);
  const Status s = hooks_.send_to(
      plan_->adaptivity.med,
      std::make_shared<M1Payload>(plan_->id, sample.cost_per_tuple_ms,
                                  sample.wait_per_tuple_ms,
                                  sample.selectivity,
                                  stats_->tuples_processed));
  if (!s.ok()) {
    GQP_LOG_WARN << "M1 emission failed: " << s.ToString();
  }
}

const std::vector<Tuple>& OperatorDriver::Results() const {
  static const std::vector<Tuple> kEmpty;
  for (const auto& op : ops_) {
    if (const auto* collect = dynamic_cast<const CollectOperator*>(op.get())) {
      return collect->results();
    }
  }
  return kEmpty;
}

const HashJoinOperator* OperatorDriver::FindHashJoin() const {
  for (const auto& op : ops_) {
    if (const auto* join = dynamic_cast<const HashJoinOperator*>(op.get())) {
      return join;
    }
  }
  return nullptr;
}

}  // namespace gqp
