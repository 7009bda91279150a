#include "exec/operators.h"

#include <algorithm>

#include "common/interner.h"
#include "common/logging.h"
#include "common/strings.h"

namespace gqp {

Status PhysicalOperator::Open(ExecContext*) { return Status::OK(); }

Status PhysicalOperator::FinishPort(int, ExecContext*) {
  return Status::OK();
}

Status PhysicalOperator::Finish(TupleBatch*, ExecContext*) {
  return Status::OK();
}

void PhysicalOperator::PurgeBuckets(const std::vector<int>&) {}

// ---- Filter ------------------------------------------------------------

FilterOperator::FilterOperator(const PhysOpDesc& desc)
    : predicate_(desc.predicate),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status FilterOperator::ProcessBatch(int, TupleBatch* in, TupleBatch* out,
                                    ExecContext* ctx) {
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  std::vector<unsigned char>& mask = ctx->mask;
  mask.assign(n, 0);
  for (size_t i = 0; i < n; ++i) {
    GQP_ASSIGN_OR_RETURN(Value v,
                         predicate_->Eval(in->tuple(i), ctx->functions));
    mask[i] = ValueIsTrue(v) ? 1 : 0;
  }
  for (size_t i = 0; i < n; ++i) {
    if (mask[i] != 0) out->AppendDerived(in->TakeTuple(i), *in, i);
  }
  return Status::OK();
}

// ---- Project -----------------------------------------------------------

ProjectOperator::ProjectOperator(const PhysOpDesc& desc)
    : exprs_(desc.exprs),
      out_schema_(desc.out_schema),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status ProjectOperator::ProcessBatch(int, TupleBatch* in, TupleBatch* out,
                                     ExecContext* ctx) {
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.clear();
    values.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) {
      GQP_ASSIGN_OR_RETURN(Value v, e->Eval(in->tuple(i), ctx->functions));
      values.push_back(std::move(v));
    }
    out->AppendDerived(Tuple(out_schema_, std::move(values)), *in, i);
  }
  return Status::OK();
}

// ---- OperationCall -----------------------------------------------------

OperationCallOperator::OperationCallOperator(const PhysOpDesc& desc)
    : ws_name_(desc.ws_name),
      arg_col_(desc.arg_col),
      out_schema_(desc.out_schema),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status OperationCallOperator::ProcessBatch(int, TupleBatch* in,
                                           TupleBatch* out,
                                           ExecContext* ctx) {
  const size_t n = in->size();
  if (n == 0) return Status::OK();
  ctx->ChargeN(tag_, cost_ms_, n);
  // One registry lookup for the whole batch (it copies a std::function).
  GQP_ASSIGN_OR_RETURN(FunctionRegistry::Fn fn,
                       ctx->functions->Find(ws_name_));
  std::vector<Value> args(1);
  for (size_t i = 0; i < n; ++i) {
    const Tuple& tuple = in->tuple(i);
    if (arg_col_ >= tuple.size()) {
      return Status::OutOfRange(StrCat("operation call argument column ",
                                       arg_col_, " out of range"));
    }
    args[0] = tuple.at(arg_col_);
    GQP_ASSIGN_OR_RETURN(Value result, fn(args));
    std::vector<Value> values(tuple.data(), tuple.data() + tuple.size());
    values.push_back(std::move(result));
    out->AppendDerived(Tuple(out_schema_, std::move(values)), *in, i);
  }
  return Status::OK();
}

// ---- HashJoin ----------------------------------------------------------

namespace {

/// A row's build-table index: unpartitioned rows (bucket -1) share table 0.
size_t BucketIndex(int bucket) {
  return static_cast<size_t>(bucket < 0 ? 0 : bucket);
}

}  // namespace

HashJoinOperator::HashJoinOperator(const PhysOpDesc& desc)
    : build_key_(desc.build_key),
      probe_key_(desc.probe_key),
      out_schema_(desc.out_schema),
      probe_cost_ms_(desc.base_cost_ms),
      build_cost_ms_(desc.build_cost_ms),
      tag_(InternString(desc.cost_tag)),
      bucket_reserve_hint_(
          desc.estimated_build_rows /
              static_cast<size_t>(std::max(desc.build_partitions, 1)) +
          1) {}

FlatJoinTable& HashJoinOperator::TableForBucket(size_t bucket) {
  if (bucket >= state_.size()) state_.resize(bucket + 1);
  FlatJoinTable& table = state_[bucket];
  if (table.empty()) table.Reserve(bucket_reserve_hint_);
  return table;
}

Status HashJoinOperator::ProcessBatch(int port, TupleBatch* in,
                                      TupleBatch* out, ExecContext* ctx) {
  const size_t n = in->size();
  if (port == 0) {
    ctx->ChargeN(tag_, build_cost_ms_, n);
    // Pass 1: pre-size each touched bucket's table for its share of the
    // batch, so it grows at most once per batch and the prefetches below
    // target its final slot array.
    for (size_t i = 0; i < n; ++i) {
      const size_t bucket = BucketIndex(in->bucket(i));
      if (bucket >= batch_bucket_rows_.size()) {
        batch_bucket_rows_.resize(bucket + 1, 0);
      }
      ++batch_bucket_rows_[bucket];
    }
    for (size_t i = 0; i < n; ++i) {
      const size_t bucket = BucketIndex(in->bucket(i));
      size_t& rows = batch_bucket_rows_[bucket];
      if (rows == 0) continue;  // already sized
      FlatJoinTable& table = TableForBucket(bucket);
      table.Reserve(table.size() + rows);
      rows = 0;
    }
    // Pass 2: hash the key column and prefetch each row's destination
    // slot, so the insert loop's slot-array misses overlap with the
    // following rows' hashing.
    hash_scratch_.clear();
    hash_scratch_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Tuple& tuple = in->tuple(i);
      if (build_key_ >= tuple.size()) {
        return Status::OutOfRange("build key column out of range");
      }
      const uint64_t hash = tuple.at(build_key_).JoinHash();
      hash_scratch_.push_back(hash);
      state_[BucketIndex(in->bucket(i))].Prefetch(hash);
    }
    // Pass 3: insert.
    for (size_t i = 0; i < n; ++i) {
      const Tuple& tuple = in->tuple(i);
      const size_t bucket = BucketIndex(in->bucket(i));
      // Only the first duplicate is logged: inputs with duplicate rows
      // would otherwise log once per row on the hot path. The counter
      // still sees every one.
      if (state_[bucket].Insert(hash_scratch_[i], tuple) &&
          ++duplicate_build_inserts_ == 1) {
        GQP_LOG_WARN << "hash join: duplicate build insert, key="
                     << tuple.at(build_key_).ToString()
                     << " bucket=" << bucket;
      }
      if (in->origin(i) < ctx->row_retained.size()) {
        ctx->row_retained[in->origin(i)] = 1;
      }
    }
    return Status::OK();
  }
  if (port == 1) {
    ctx->ChargeN(tag_, probe_cost_ms_, n);
    // Pass 1: hash the key column and prefetch each row's slot, so the
    // table's cache misses overlap with the next rows' hashing instead of
    // stalling the probe loop.
    hash_scratch_.clear();
    hash_scratch_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Tuple& tuple = in->tuple(i);
      if (probe_key_ >= tuple.size()) {
        return Status::OutOfRange("probe key column out of range");
      }
      const uint64_t hash = tuple.at(probe_key_).JoinHash();
      hash_scratch_.push_back(hash);
      const size_t bucket = BucketIndex(in->bucket(i));
      if (bucket < state_.size()) state_[bucket].Prefetch(hash);
    }
    // Pass 2a: scan the (cache-resident) slot tags for each row's
    // candidate chain head; CandidateSlot prefetches the candidate's
    // entry, so the entry-vector misses of the whole batch overlap.
    cand_scratch_.clear();
    cand_scratch_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const size_t bucket = BucketIndex(in->bucket(i));
      cand_scratch_.push_back(bucket < state_.size()
                                  ? state_[bucket].CandidateSlot(
                                        hash_scratch_[i])
                                  : FlatJoinTable::kNoSlot);
    }
    // Pass 2b: confirm each candidate against its (now cached) entry.
    head_scratch_.clear();
    head_scratch_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      uint32_t head = 0;
      if (cand_scratch_[i] != FlatJoinTable::kNoSlot) {
        const size_t bucket = BucketIndex(in->bucket(i));
        head = state_[bucket].ConfirmHead(hash_scratch_[i],
                                          cand_scratch_[i]);
      }
      head_scratch_.push_back(head);
    }
    // Pass 3: walk the chains and emit. A short lookahead prefetches the
    // build payloads ~kLookahead rows before the emit touches them —
    // far enough to cover a memory round trip, near enough that the
    // lines are still resident when consumed (a whole-batch prefetch
    // pass floods the L2 instead).
    constexpr size_t kLookahead = 12;
    for (size_t i = 0; i < n; ++i) {
      if (i + kLookahead < n && head_scratch_[i + kLookahead] != 0) {
        const size_t pf_bucket = BucketIndex(in->bucket(i + kLookahead));
        state_[pf_bucket].PrefetchMatchPayload(head_scratch_[i + kLookahead]);
      }
      const uint32_t head = head_scratch_[i];
      if (head == 0) continue;
      const size_t bucket = BucketIndex(in->bucket(i));
      const Tuple& tuple = in->tuple(i);
      const Value& key = tuple.at(probe_key_);
      state_[bucket].ForEachMatchFrom(head, [&](const Tuple& build_tuple) {
        // Hash collision: the stored key is the build tuple's key column.
        if (build_tuple.at(build_key_) != key) return;
        out->AppendDerived(Tuple::Concat(out_schema_, build_tuple, tuple),
                           *in, i);
      });
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrCat("hash join has no input port ", port));
}

void HashJoinOperator::PurgeBuckets(const std::vector<int>& buckets) {
  for (const int b : buckets) {
    const size_t idx = BucketIndex(b);
    if (idx < state_.size()) state_[idx].Clear();
  }
}

size_t HashJoinOperator::StateSize() const {
  size_t count = 0;
  for (const FlatJoinTable& table : state_) count += table.size();
  return count;
}

size_t HashJoinOperator::StateSizeForBucket(int bucket) const {
  const size_t idx = BucketIndex(bucket);
  return idx < state_.size() ? state_[idx].size() : 0;
}

// ---- HashAggregate -------------------------------------------------------

namespace {

/// Unambiguous group-key encoding: type tag + length-prefixed rendering.
std::string EncodeGroupKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    const std::string s = v.ToString();
    key.push_back(static_cast<char>('0' + static_cast<int>(v.type())));
    key += std::to_string(s.size());
    key.push_back(':');
    key += s;
  }
  return key;
}

}  // namespace

HashAggregateOperator::HashAggregateOperator(const PhysOpDesc& desc)
    : group_exprs_(desc.group_exprs),
      aggs_(desc.aggs),
      out_schema_(desc.out_schema),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status HashAggregateOperator::Accumulate(GroupState* group,
                                         const Tuple& tuple,
                                         ExecContext* ctx) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    Accumulator& acc = group->accums[i];
    Value v;
    if (spec.arg != nullptr) {
      GQP_ASSIGN_OR_RETURN(v, spec.arg->Eval(tuple, ctx->functions));
      // SQL semantics: aggregates ignore nulls.
      if (v.is_null()) continue;
    }
    switch (spec.kind) {
      case AggKind::kCount:
        ++acc.count;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        ++acc.count;
        acc.sum += v.ToNumeric();
        break;
      case AggKind::kMin:
        if (!acc.has_value || v < acc.min) acc.min = v;
        acc.has_value = true;
        break;
      case AggKind::kMax:
        if (!acc.has_value || acc.max < v) acc.max = v;
        acc.has_value = true;
        break;
    }
  }
  return Status::OK();
}

Status HashAggregateOperator::ProcessBatch(int port, TupleBatch* in,
                                           TupleBatch* out,
                                           ExecContext* ctx) {
  (void)out;  // an aggregate absorbs its batch; output comes from Finish
  if (port != 0) {
    return Status::InvalidArgument("hash aggregate has a single input port");
  }
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  std::vector<Value> group_values;
  for (size_t i = 0; i < n; ++i) {
    const Tuple& tuple = in->tuple(i);
    const int bucket = in->bucket(i) < 0 ? 0 : in->bucket(i);
    group_values.clear();
    group_values.reserve(group_exprs_.size());
    for (const ExprPtr& e : group_exprs_) {
      GQP_ASSIGN_OR_RETURN(Value v, e->Eval(tuple, ctx->functions));
      group_values.push_back(std::move(v));
    }
    const std::string key = EncodeGroupKey(group_values);
    auto [it, inserted] = state_[bucket].try_emplace(key);
    if (inserted) {
      it->second.group_values = std::move(group_values);
      it->second.accums.resize(aggs_.size());
    }
    GQP_RETURN_IF_ERROR(Accumulate(&it->second, tuple, ctx));
    if (in->origin(i) < ctx->row_retained.size()) {
      ctx->row_retained[in->origin(i)] = 1;
    }
  }
  return Status::OK();
}

Value HashAggregateOperator::Finalize(const AggSpec& spec,
                                      const Accumulator& acc) const {
  switch (spec.kind) {
    case AggKind::kCount:
      return Value(acc.count);
    case AggKind::kSum:
      if (acc.count == 0) return Value::Null();
      if (spec.result_type == DataType::kInt64) {
        return Value(static_cast<int64_t>(acc.sum));
      }
      return Value(acc.sum);
    case AggKind::kAvg:
      if (acc.count == 0) return Value::Null();
      return Value(acc.sum / static_cast<double>(acc.count));
    case AggKind::kMin:
      return acc.has_value ? acc.min : Value::Null();
    case AggKind::kMax:
      return acc.has_value ? acc.max : Value::Null();
  }
  return Value::Null();
}

Status HashAggregateOperator::Finish(TupleBatch* out, ExecContext* ctx) {
  ctx->ChargeN(tag_, cost_ms_, GroupCount());
  for (const auto& [bucket, groups] : state_) {
    for (const auto& [key, group] : groups) {
      std::vector<Value> values = group.group_values;
      for (size_t i = 0; i < aggs_.size(); ++i) {
        values.push_back(Finalize(aggs_[i], group.accums[i]));
      }
      out->Append(Tuple(out_schema_, std::move(values)), -1,
                  static_cast<uint32_t>(out->size()));
    }
  }
  state_.clear();
  return Status::OK();
}

void HashAggregateOperator::PurgeBuckets(const std::vector<int>& buckets) {
  for (const int b : buckets) state_.erase(b < 0 ? 0 : b);
}

size_t HashAggregateOperator::GroupCount() const {
  size_t count = 0;
  for (const auto& [bucket, groups] : state_) count += groups.size();
  return count;
}

// ---- Collect -----------------------------------------------------------

CollectOperator::CollectOperator(const PhysOpDesc& desc)
    : cost_ms_(desc.base_cost_ms), tag_(InternString(desc.cost_tag)) {}

Status CollectOperator::ProcessBatch(int, TupleBatch* in, TupleBatch* out,
                                     ExecContext* ctx) {
  (void)out;  // collect is a sink
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  for (size_t i = 0; i < n; ++i) results_.push_back(in->TakeTuple(i));
  return Status::OK();
}

// ---- Factory -----------------------------------------------------------

Result<std::unique_ptr<PhysicalOperator>> MakeOperator(
    const PhysOpDesc& desc) {
  switch (desc.kind) {
    case PhysOpKind::kScan:
      return Status::InvalidArgument(
          "scans are driven by the fragment executor, not the chain");
    case PhysOpKind::kFilter:
      return std::unique_ptr<PhysicalOperator>(new FilterOperator(desc));
    case PhysOpKind::kProject:
      return std::unique_ptr<PhysicalOperator>(new ProjectOperator(desc));
    case PhysOpKind::kHashJoin:
      return std::unique_ptr<PhysicalOperator>(new HashJoinOperator(desc));
    case PhysOpKind::kOperationCall:
      return std::unique_ptr<PhysicalOperator>(
          new OperationCallOperator(desc));
    case PhysOpKind::kHashAggregate:
      return std::unique_ptr<PhysicalOperator>(
          new HashAggregateOperator(desc));
    case PhysOpKind::kCollect:
      return std::unique_ptr<PhysicalOperator>(new CollectOperator(desc));
  }
  return Status::Internal("unknown operator kind");
}

}  // namespace gqp
