#include "exec/exchange_producer.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace gqp {

ExchangeProducer::ExchangeProducer(SubplanId self, OutputWiring wiring,
                                   ExecConfig config, Hooks hooks)
    : self_(self),
      wiring_(std::move(wiring)),
      config_(config),
      hooks_(std::move(hooks)) {}

Status ExchangeProducer::Open() {
  if (wiring_.consumers.empty()) {
    return Status::InvalidArgument("exchange producer needs >= 1 consumer");
  }
  GQP_ASSIGN_OR_RETURN(policy_,
                       MakePolicy(wiring_.desc, wiring_.initial_weights));
  buffers_.resize(wiring_.consumers.size());
  pending_overhead_ms_.resize(wiring_.consumers.size(), 0.0);
  credit_.Configure(wiring_.consumers.size(),
                    config_.flow_control_enabled ? config_.credit_window_bytes
                                                 : 0);
  stats_.tuples_to_consumer.assign(wiring_.consumers.size(), 0);
  stats_.tuples_sent_to_consumer.assign(wiring_.consumers.size(), 0);
  return Status::OK();
}

Status ExchangeProducer::RouteAndBuffer(const Tuple& tuple, uint64_t seq,
                                        bool resend) {
  int bucket = -1;
  const int idx = policy_->Route(tuple, &bucket);
  if (idx < 0 || idx >= num_consumers()) {
    return Status::Internal(StrCat("policy routed to invalid consumer ", idx));
  }
  const size_t uidx = static_cast<size_t>(idx);

  if (config_.recovery_log_enabled) {
    log_.Append(LogRecord{seq, bucket, idx, tuple});
    pending_overhead_ms_[uidx] += config_.log_append_cost_ms;
  }
  pending_overhead_ms_[uidx] += config_.exchange_route_cost_ms;

  buffers_[uidx].push_back(RoutedTuple{seq, bucket, tuple});
  ++stats_.tuples_to_consumer[uidx];
  if (resend) ++stats_.resent_tuples;
  credit_.Charge(idx, RoutedTupleWireBytes(tuple.WireSize()), resend);

  if (buffers_[uidx].size() >= config_.buffer_tuples) {
    return Flush(idx, resend);
  }
  return Status::OK();
}

Result<uint64_t> ExchangeProducer::Offer(const Tuple& tuple) {
  if (input_finished_) {
    return Status::FailedPrecondition("Offer after FinishInput");
  }
  ++stats_.tuples_offered;
  const uint64_t seq = next_seq_++;
  GQP_RETURN_IF_ERROR(RouteAndBuffer(tuple, seq, /*resend=*/false));
  return seq;
}

Status ExchangeProducer::Flush(int idx, bool resend) {
  const size_t uidx = static_cast<size_t>(idx);
  if (dead_consumers_.count(idx) > 0) {
    buffers_[uidx].clear();
    return Status::OK();
  }
  if (buffers_[uidx].empty()) return Status::OK();

  auto batch = std::make_shared<TupleBatchPayload>(
      wiring_.desc.id, self_, wiring_.desc.consumer_port, resend,
      round_epoch_, std::move(buffers_[uidx]));
  buffers_[uidx].clear();
  const double cost =
      config_.exchange_send_cost_ms + pending_overhead_ms_[uidx];
  pending_overhead_ms_[uidx] = 0.0;
  ++stats_.buffers_sent;
  const size_t tuple_count = batch->tuples().size();
  const size_t wire_bytes = batch->WireSize();

  // The send happens when the CPU work completes, preserving causality.
  hooks_.submit_work(cost, [this, idx, batch, cost, tuple_count,
                            wire_bytes]() {
    const Status s = hooks_.send(idx, batch);
    if (!s.ok()) {
      GQP_LOG_WARN << "exchange " << wiring_.desc.id
                   << ": send failed: " << s.ToString();
      return;
    }
    stats_.tuples_sent_to_consumer[static_cast<size_t>(idx)] += tuple_count;
    if (hooks_.on_buffer_sent) {
      hooks_.on_buffer_sent(idx, cost, tuple_count, wire_bytes);
    }
  });
  return Status::OK();
}

Status ExchangeProducer::FlushPartialBuffers() {
  for (int idx = 0; idx < num_consumers(); ++idx) {
    GQP_RETURN_IF_ERROR(Flush(idx, /*resend=*/false));
  }
  return Status::OK();
}

Status ExchangeProducer::SendEos() {
  eos_sent_ = true;
  for (int idx = 0; idx < num_consumers(); ++idx) {
    if (dead_consumers_.count(idx) > 0) continue;
    GQP_RETURN_IF_ERROR(Flush(idx, /*resend=*/false));
    auto eos = std::make_shared<EosPayload>(wiring_.desc.id, self_,
                                            wiring_.desc.consumer_port);
    hooks_.submit_work(config_.exchange_send_cost_ms, [this, idx, eos]() {
      const Status s = hooks_.send(idx, eos);
      if (!s.ok()) {
        GQP_LOG_WARN << "exchange " << wiring_.desc.id
                     << ": EOS send failed: " << s.ToString();
      }
    });
  }
  return Status::OK();
}

Status ExchangeProducer::FinishInput() {
  if (input_finished_) return Status::OK();
  input_finished_ = true;
  if (round_.has_value()) {
    // EOS is deferred until the retrospective round completes, so resent
    // tuples always precede the end-of-stream markers.
    return Status::OK();
  }
  return SendEos();
}

void ExchangeProducer::OnAck(const AckPayload& ack) {
  // Fence acks from consumers already declared dead (false suspicion:
  // the consumer is alive and still flushing). Its records were recovered
  // to survivors; a stale ack must not prune the log copy they now own.
  for (int c = 0; c < num_consumers(); ++c) {
    if (wiring_.consumers[static_cast<size_t>(c)].id == ack.consumer()) {
      if (dead_consumers_.count(c) > 0) return;
      break;
    }
  }
  log_.AckBatch(ack.seqs());
  if (hooks_.on_acked) hooks_.on_acked(ack.seqs());
}

bool ExchangeProducer::OnCreditGrant(const CreditGrantPayload& grant) {
  if (!credit_.enabled()) return false;
  for (int c = 0; c < num_consumers(); ++c) {
    if (wiring_.consumers[static_cast<size_t>(c)].id == grant.consumer()) {
      if (dead_consumers_.count(c) > 0) return false;  // voided link
      return credit_.OnGrant(c, grant.released_bytes());
    }
  }
  return false;
}

double ExchangeProducer::ProgressFraction() const {
  if (input_finished_) return 1.0;
  if (wiring_.estimated_rows == 0) return 0.0;
  const double f = static_cast<double>(stats_.tuples_offered) /
                   static_cast<double>(wiring_.estimated_rows);
  return std::min(f, 1.0);
}

Status ExchangeProducer::HandleRedistribute(
    const RedistributeRequestPayload& request) {
  if (round_.has_value()) {
    // The Responder serializes rounds; a concurrent request is a protocol
    // violation — reject rather than corrupt the in-flight dance.
    ++stats_.redistributions_rejected;
    hooks_.on_round_done(request.round(), false);
    return Status::FailedPrecondition("redistribution round already active");
  }
  if (eos_sent_ && (!config_.recovery_log_enabled || log_.empty())) {
    // Stream fully delivered and nothing left to move.
    ++stats_.redistributions_rejected;
    hooks_.on_round_done(request.round(), false);
    return Status::OK();
  }

  if (!request.retrospective()) {
    // R2 (prospective): only future tuples are affected.
    Result<std::vector<BucketMove>> moves =
        policy_->UpdateWeights(request.weights());
    if (!moves.ok()) {
      ++stats_.redistributions_rejected;
      hooks_.on_round_done(request.round(), false);
      return moves.status();
    }
    ++stats_.redistributions_applied;
    hooks_.on_round_done(request.round(), true);
    return Status::OK();
  }

  // R1 (retrospective).
  if (!config_.recovery_log_enabled) {
    ++stats_.redistributions_rejected;
    hooks_.on_round_done(request.round(), false);
    return Status::FailedPrecondition(
        "retrospective response requires the recovery log");
  }

  // Crashed consumers first: they stop receiving anything, and their
  // recovery-log records are recovered to survivors (the fault-tolerance
  // substrate of Smith & Watson working as designed).
  for (const int dead : request.dead_consumers()) {
    if (dead >= 0 && dead < num_consumers()) {
      dead_consumers_.insert(dead);
      // Epoch fence for flow control too: a dead consumer can never
      // release its bytes; its link stops gating.
      credit_.VoidConsumer(dead);
    }
  }

  GQP_ASSIGN_OR_RETURN(std::vector<BucketMove> moves,
                       policy_->UpdateWeights(request.weights()));

  InFlightRound round;
  round.id = request.round();
  round.recall_before_seq = next_seq_;
  round.claim = ++rounds_opened_;
  // From here on every tuple is routed by the new map; stamp outgoing
  // batches so a consumer whose StateMoveRequest processing lags (it may
  // defer mid-tuple) cannot purge them — they are exactly the tuples the
  // recall watermark above excludes, so nobody would ever resend them.
  round_epoch_ = round.id;
  GQP_LOG_DEBUG << "producer " << self_.ToString() << " round " << round.id
                << " opened: recall_before_seq=" << round.recall_before_seq;
  round.lost.resize(static_cast<size_t>(num_consumers()));
  round.gained.resize(static_cast<size_t>(num_consumers()));
  round.purge_all = policy_->kind() == PolicyKind::kWeightedRoundRobin;
  // A crashed consumer may have held records of ANY bucket — including
  // buckets that migrated away from it in earlier rounds while it kept
  // the (unacknowledged) results. Recovery therefore recalls the whole
  // log, and every survivor must reply with what it holds so only the
  // truly lost records are resent.
  round.recovery = !request.dead_consumers().empty();
  if (!round.purge_all) {
    for (const BucketMove& m : moves) {
      round.lost[static_cast<size_t>(m.from_consumer)].push_back(m.bucket);
      round.gained[static_cast<size_t>(m.to_consumer)].push_back(m.bucket);
    }
  }
  for (int c = 0; c < num_consumers(); ++c) {
    if (dead_consumers_.count(c) > 0) continue;  // no reply will come
    if (round.purge_all || round.recovery ||
        !round.lost[static_cast<size_t>(c)].empty()) {
      round.awaiting_reply.insert(c);
    }
  }
  // A dead consumer's processed set is unknown and assumed empty: every
  // unacknowledged record it held is resent to survivors. Clear its
  // buffered (unsent) tuples; they are in the log and will be recalled.
  for (const int dead : request.dead_consumers()) {
    if (dead >= 0 && dead < num_consumers()) {
      buffers_[static_cast<size_t>(dead)].clear();
    }
  }

  // Pull moved tuples out of the unsent buffers first; they are in the log
  // and will be resent through the new routing (avoids duplicates). The
  // consumer never saw these tuples, so their credit is un-charged here —
  // the resend re-charges them on whichever link the new map picks.
  for (int c = 0; c < num_consumers(); ++c) {
    auto& buf = buffers_[static_cast<size_t>(c)];
    size_t purged_bytes = 0;
    if (round.purge_all || round.recovery) {
      for (const RoutedTuple& t : buf) {
        purged_bytes += RoutedTupleWireBytes(t.tuple.WireSize());
      }
      buf.clear();
      credit_.Uncharge(c, purged_bytes);
      continue;
    }
    const auto& lost = round.lost[static_cast<size_t>(c)];
    if (lost.empty()) continue;
    buf.erase(std::remove_if(buf.begin(), buf.end(),
                             [&lost, &purged_bytes](const RoutedTuple& t) {
                               if (std::find(lost.begin(), lost.end(),
                                             t.bucket) == lost.end()) {
                                 return false;
                               }
                               purged_bytes +=
                                   RoutedTupleWireBytes(t.tuple.WireSize());
                               return true;
                             }),
              buf.end());
    credit_.Uncharge(c, purged_bytes);
  }

  // Notify live consumers. Purgers reply; gain-only consumers just park.
  for (int c = 0; c < num_consumers(); ++c) {
    const size_t uc = static_cast<size_t>(c);
    if (dead_consumers_.count(c) > 0) continue;
    if (!round.purge_all && !round.recovery && round.lost[uc].empty() &&
        round.gained[uc].empty()) {
      continue;
    }
    auto msg = std::make_shared<StateMoveRequestPayload>(
        round.id, wiring_.desc.id, self_, wiring_.desc.consumer_port,
        round.purge_all, round.recovery, round.lost[uc], round.gained[uc],
        coordinator_epoch_);
    const int idx = c;
    hooks_.submit_work(config_.exchange_send_cost_ms, [this, idx, msg]() {
      const Status s = hooks_.send(idx, msg);
      if (!s.ok()) {
        GQP_LOG_WARN << "exchange " << wiring_.desc.id
                     << ": StateMoveRequest send failed: " << s.ToString();
      }
    });
  }

  round_ = std::move(round);
  if (round_->awaiting_reply.empty()) {
    // Nothing to recall (e.g. weights changed without bucket moves).
    return CompleteRound();
  }
  return Status::OK();
}

std::string ExchangeProducer::DebugString() const {
  std::string out =
      StrCat("eos=", eos_sent_, " input_finished=", input_finished_,
             " log=", log_.size());
  size_t buffered = 0;
  for (const auto& buf : buffers_) buffered += buf.size();
  if (buffered > 0) out += StrCat(" buffered=", buffered);
  if (!dead_consumers_.empty()) {
    out += StrCat(" dead_consumers=", dead_consumers_.size());
  }
  if (round_.has_value()) {
    out += StrCat(" round=", round_->id, " awaiting_reply={");
    bool first = true;
    for (const int c : round_->awaiting_reply) {
      if (!first) out += " ";
      first = false;
      out += StrCat(c);
    }
    out += "}";
  }
  return out;
}

Status ExchangeProducer::HandleStateMoveReply(
    const StateMoveReplyPayload& reply) {
  if (!round_.has_value() || reply.round() != round_->id) {
    GQP_LOG_WARN << "exchange " << wiring_.desc.id
                 << ": stale StateMoveReply for round " << reply.round();
    return Status::OK();
  }
  const SubplanId& consumer = reply.consumer();
  int idx = -1;
  for (int c = 0; c < num_consumers(); ++c) {
    if (wiring_.consumers[static_cast<size_t>(c)].id == consumer) {
      idx = c;
      break;
    }
  }
  if (idx < 0) {
    return Status::NotFound("StateMoveReply from unknown consumer");
  }
  // Fence: a consumer declared dead mid-round (its reply raced the
  // ConsumerLost) must not claim records — the recovery round assumes its
  // processed set is empty and resends to survivors.
  if (dead_consumers_.count(idx) > 0) return Status::OK();
  round_->awaiting_reply.erase(idx);
  // Processed claims are sticky: the consumer's outputs hold the results
  // as long as it lives, so later rounds must not resend those records
  // either, even ones that do not consult it (e.g. its bucket moved on).
  // Retained (state-resident) claims are only as durable as the bucket
  // ownership: they suppress resending for this round only. Both lists
  // arrive sorted, so each is one ordered walk over the log.
  log_.Claim(reply.processed_seqs(), round_->claim, idx);
  log_.Claim(reply.retained_seqs(), round_->claim, /*consumer=*/-1);
  if (round_->awaiting_reply.empty()) return CompleteRound();
  return Status::OK();
}

Status ExchangeProducer::HandleConsumerLost(const SubplanId& consumer) {
  int idx = -1;
  for (int c = 0; c < num_consumers(); ++c) {
    if (wiring_.consumers[static_cast<size_t>(c)].id == consumer) {
      idx = c;
      break;
    }
  }
  if (idx < 0) return Status::OK();
  dead_consumers_.insert(idx);
  // Void the flow-control link: its bytes can never be released by the
  // dead consumer, and a blocked producer must not stay parked waiting
  // for a grant that cannot come.
  credit_.VoidConsumer(idx);
  // Unsent buffered tuples are in the log; the recovery round recalls and
  // reroutes them.
  buffers_[static_cast<size_t>(idx)].clear();
  if (round_.has_value() && round_->awaiting_reply.erase(idx) > 0 &&
      round_->awaiting_reply.empty()) {
    // Its processed set is unknown and assumed empty: anything it had not
    // acknowledged is recalled by the recovery round that follows.
    return CompleteRound();
  }
  return Status::OK();
}

Status ExchangeProducer::CompleteRound() {
  InFlightRound round = std::move(*round_);
  round_.reset();

  // Extract the recalled tuples from the log: everything in a moved
  // bucket (or everything, for purge_all) that no consumer has fully
  // processed.
  std::vector<int> moved_buckets;
  for (const auto& lost : round.lost) {
    moved_buckets.insert(moved_buckets.end(), lost.begin(), lost.end());
  }
  std::sort(moved_buckets.begin(), moved_buckets.end());

  std::vector<LogRecord> recalled = log_.Extract(
      [this, &round, &moved_buckets](const LogRecord& rec) {
        if (rec.seq >= round.recall_before_seq) return false;
        // A reply of this round claimed it (processed or retained).
        if (rec.round_claim == round.claim) return false;
        // A surviving consumer claimed this record in an earlier round:
        // its outputs still hold the results.
        if (rec.claimed_by >= 0 && dead_consumers_.count(rec.claimed_by) == 0) {
          return false;
        }
        if (round.purge_all || round.recovery) return true;
        return std::binary_search(moved_buckets.begin(), moved_buckets.end(),
                                  rec.bucket);
      });
  // Processed-but-unacked records stay in the log: "processed" only means
  // the consumer holds the derived results, and those are durable nowhere
  // else until the downstream acknowledgment cascades back. Dropping them
  // here would make the results unrecoverable if that consumer crashes
  // later. The pending acknowledgments prune them in due course.

  // Re-route under the new policy. Buckets are stable; only ownership
  // changed. Charge the paper's "log management" overhead.
  const double extract_cost =
      static_cast<double>(recalled.size()) * config_.log_extract_cost_ms;
  if (extract_cost > 0) hooks_.submit_work(extract_cost, nullptr);
  if (!recalled.empty() && Logger::Enabled(LogLevel::kDebug)) {
    std::string seqs;
    for (const LogRecord& rec : recalled) seqs += StrCat(" ", rec.seq);
    GQP_LOG_DEBUG << "producer " << self_.ToString() << " round " << round.id
                  << ": recalled" << seqs;
  }
  // Resends bypass the credit gate: the RestoreComplete markers below must
  // follow them on the same links, and parked consumers cannot release
  // credit until those markers arrive. The burst still charges the links
  // (the consumers will release it as they drain), and its size feeds the
  // bounded-memory slack term.
  credit_.BeginRecallBurst();
  for (const LogRecord& rec : recalled) {
    GQP_RETURN_IF_ERROR(RouteAndBuffer(rec.tuple, rec.seq, /*resend=*/true));
  }
  // Flush every consumer so RestoreComplete markers follow all resends.
  for (int c = 0; c < num_consumers(); ++c) {
    GQP_RETURN_IF_ERROR(Flush(c, /*resend=*/true));
  }
  credit_.EndRecallBurst();

  // Close the round at every consumer that saw its StateMoveRequest: the
  // marker follows all resent tuples on the same link, so its arrival
  // proves the consumer has everything (gained buckets also unpark).
  for (int c = 0; c < num_consumers(); ++c) {
    const size_t uc = static_cast<size_t>(c);
    if (dead_consumers_.count(c) > 0) continue;
    if (!round.purge_all && !round.recovery && round.gained[uc].empty() &&
        round.lost[uc].empty()) {
      continue;
    }
    auto msg = std::make_shared<RestoreCompletePayload>(
        round.id, wiring_.desc.id, self_, wiring_.desc.consumer_port,
        round.gained[uc], round.purge_all);
    const int idx = c;
    hooks_.submit_work(config_.exchange_send_cost_ms, [this, idx, msg]() {
      const Status s = hooks_.send(idx, msg);
      if (!s.ok()) {
        GQP_LOG_WARN << "exchange " << wiring_.desc.id
                     << ": RestoreComplete send failed: " << s.ToString();
      }
    });
  }

  ++stats_.redistributions_applied;
  hooks_.on_round_done(round.id, true);

  if (input_finished_ && !eos_sent_) {
    return SendEos();
  }
  return Status::OK();
}

}  // namespace gqp
