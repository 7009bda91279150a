#include "exec/fragment_executor.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"

namespace gqp {
namespace {

std::string ProducerKey(const SubplanId& id) { return id.ToString(); }

}  // namespace

FragmentExecutor::FragmentExecutor(MessageBus* bus, GridNode* node,
                                   Network* network,
                                   FragmentInstancePlan plan,
                                   TablePtr scan_table)
    : GridService(bus, node->id(), plan.id.ToString()),
      node_(node),
      network_(network),
      plan_(std::move(plan)),
      scan_table_(std::move(scan_table)) {}

FragmentExecutor::~FragmentExecutor() = default;

Status FragmentExecutor::Prepare() {
  GQP_RETURN_IF_ERROR(ValidateInstancePlan(plan_, scan_table_.get()));
  epoch_guard_.Advance(plan_.coordinator_epoch);

  auto send_to = [this](const Address& to, PayloadPtr payload) {
    return SendTo(to, std::move(payload));
  };
  auto fail = [this](const Status& s) { Fail(s); };

  driver_ = std::make_unique<OperatorDriver>(
      node_, &plan_, &stats_, OperatorDriver::Hooks{send_to, fail});
  GQP_RETURN_IF_ERROR(driver_->BuildAndOpen());

  ingress_ = std::make_unique<IngressManager>();
  ingress_->set_epoch_guard(&epoch_guard_);
  queues_ = std::make_unique<PortQueueManager>(
      node_, simulator(), &plan_.config, plan_.id, &plan_.adaptivity, &stats_,
      PortQueueManager::Hooks{
          send_to,
          [this](int port, const std::string& key) {
            return ingress_->Fenced(port, key);
          }});
  state_ = std::make_unique<StateManager>(node_, &plan_.config, plan_.id,
                                          &stats_,
                                          StateManager::Hooks{send_to, fail});
  state_->set_epoch_guard(&epoch_guard_);
  for (const InputWiring& wiring : plan_.inputs) {
    ingress_->AddPort(wiring.num_producers);
    queues_->AddPort(wiring.num_producers);
    state_->AddPort();
  }

  if (plan_.output.has_value()) {
    egress_ = std::make_unique<EgressAdapter>(
        node_, network_, &plan_, &stats_,
        EgressAdapter::Hooks{send_to,
                             [this](const std::vector<uint64_t>& seqs) {
                               state_->OnOutputsAcked(seqs, finished_);
                             },
                             fail});
    egress_->set_epoch_guard(&epoch_guard_);
    GQP_RETURN_IF_ERROR(egress_->Open());
  }

  return Start();  // register the service endpoint
}

Status FragmentExecutor::Begin() {
  if (began_) return Status::OK();
  began_ = true;
  idle_since_ = simulator()->Now();
  idle_tracking_ = true;
  MaybeProcess();
  return Status::OK();
}

void FragmentExecutor::Fail(const Status& status) {
  if (exec_status_.ok()) exec_status_ = status;
  GQP_LOG_ERROR << "fragment " << plan_.id.ToString()
                << " failed: " << status.ToString();
}

// ---- message dispatch ----------------------------------------------------

void FragmentExecutor::HandleMessage(const Message& msg) {
  // A released instance no longer participates: the retried incarnation of
  // its query owns fresh instance keys, so anything still addressed here
  // is stale traffic of the old incarnation.
  if (abandoned_) return;
  if (PayloadAs<BeginPayload>(msg.payload) != nullptr) {
    const Status s = Begin();
    if (!s.ok()) Fail(s);
    return;
  }
  if (const auto* batch = PayloadAs<TupleBatchPayload>(msg.payload)) {
    return OnTupleBatch(msg, *batch);
  }
  if (const auto* eos = PayloadAs<EosPayload>(msg.payload)) {
    return OnEos(*eos);
  }
  if (const auto* lost = PayloadAs<ProducerLostPayload>(msg.payload)) {
    return OnProducerLost(*lost);
  }
  if (const auto* lost = PayloadAs<ConsumerLostPayload>(msg.payload)) {
    if (egress_ != nullptr && egress_->HandleConsumerLost(*lost)) {
      MaybeProcess();
      CheckCompletion();
    }
    return;
  }
  if (const auto* ack = PayloadAs<AckPayload>(msg.payload)) {
    if (ExchangeProducer* producer = mutable_producer()) {
      producer->OnAck(*ack);
      // The ack may have drained the recovery log: retained inputs become
      // releasable only once every output is durable downstream.
      MaybeAckRetained();
    }
    return;
  }
  if (const auto* grant = PayloadAs<CreditGrantPayload>(msg.payload)) {
    ExchangeProducer* producer = mutable_producer();
    if (producer != nullptr && producer->OnCreditGrant(*grant)) {
      MaybeProcess();  // headroom may be back: re-probe the driver
    }
    return;
  }
  if (const auto* redistribute =
          PayloadAs<RedistributeRequestPayload>(msg.payload)) {
    if (egress_ == nullptr) {
      GQP_LOG_WARN << "redistribute request at fragment without an output";
    } else {
      egress_->HandleRedistribute(*redistribute);
    }
    return;
  }
  if (PayloadAs<StateMoveRequestPayload>(msg.payload) != nullptr ||
      PayloadAs<RestoreCompletePayload>(msg.payload) != nullptr) {
    // Defer while a tuple is mid-processing, and keep arrival order: a
    // RestoreComplete must never overtake the StateMoveRequest that set
    // up the buckets it clears.
    if (processing_ || !deferred_state_moves_.empty()) {
      deferred_state_moves_.push_back(msg);
    } else {
      DispatchStateMove(msg);
    }
    return;
  }
  if (const auto* reply = PayloadAs<StateMoveReplyPayload>(msg.payload)) {
    if (egress_ != nullptr) egress_->HandleStateMoveReply(*reply);
    return;
  }
  if (const auto* progress = PayloadAs<ProgressRequestPayload>(msg.payload)) {
    const ExchangeProducer* p = producer();
    const Status s = SendTo(
        msg.from,
        std::make_shared<ProgressReplyPayload>(
            progress->round(), plan_.id,
            p != nullptr ? p->ProgressFraction() : 1.0,
            p != nullptr ? p->eos_sent() : true,
            p != nullptr ? p->log_size() : 0));
    if (!s.ok()) Fail(s);
    return;
  }
  if (PayloadAs<CompletionGrantPayload>(msg.payload) != nullptr) {
    return OnCompletionGrant();
  }
  GQP_LOG_DEBUG << "fragment " << plan_.id.ToString()
                << ": unhandled payload "
                << (msg.payload ? msg.payload->TypeName() : "null");
}

void FragmentExecutor::DispatchStateMove(const Message& msg) {
  const bool stateful = plan_.fragment.Stateful();
  if (const auto* move = PayloadAs<StateMoveRequestPayload>(msg.payload)) {
    const int port = move->consumer_port();
    if (!ingress_->ValidPort(port)) {
      return Fail(Status::OutOfRange("StateMoveRequest for invalid port"));
    }
    const std::string key = ProducerKey(move->producer());
    // Fence: a round opened by an already-lost producer would stay open
    // with no ProducerLost left to clean it up, leaving the fragment
    // unfinishable. Ignore the stale request entirely.
    if (ingress_->Fenced(port, key)) return;
    TrackProducer(port, move->producer(), msg.from, move->exchange_id());
    state_->ApplyStateMove(*move, key, msg.from, stateful, queues_.get(),
                           driver_.get());
  } else if (const auto* restore =
                 PayloadAs<RestoreCompletePayload>(msg.payload)) {
    const int port = restore->consumer_port();
    const std::string key = ProducerKey(restore->producer());
    // Fence stale markers too: a lost producer's rounds were already
    // abandoned in OnProducerLost.
    if (ingress_->ValidPort(port) && ingress_->Fenced(port, key)) return;
    state_->ApplyRestoreComplete(*restore, key, stateful, queues_.get());
  }
  MaybeProcess();
  CheckCompletion();
}

void FragmentExecutor::TrackProducer(int port, const SubplanId& producer,
                                     const Address& address,
                                     int exchange_id) {
  // Both registrations run at every call site with the same key: the two
  // producer maps then see the identical insertion sequence as the
  // pre-split executor's single map, keeping iteration-order-sensitive
  // paths (retained-ack sweep, completion flush) on the golden order.
  const std::string key = ProducerKey(producer);
  queues_->RegisterProducer(port, key, address, exchange_id);
  state_->RegisterProducer(port, key, address, exchange_id);
}

void FragmentExecutor::OnTupleBatch(const Message& msg,
                                    const TupleBatchPayload& batch) {
  const int port = batch.consumer_port();
  if (!ingress_->ValidPort(port)) {
    Fail(Status::OutOfRange(StrCat("tuple batch for invalid port ", port)));
    return;
  }
  const std::string key = ProducerKey(batch.producer());
  // Epoch fence: once a producer is reported lost, recovery owns its
  // rows. Count them received (conservation ledger) but never process.
  if (ingress_->Fenced(port, key)) {
    stats_.tuples_received += batch.tuples().size();
    stats_.tuples_fenced += batch.tuples().size();
    return;
  }
  TrackProducer(port, batch.producer(), msg.from, batch.exchange_id());
  stats_.tuples_received += batch.tuples().size();
  queues_->EnqueueBatch(port, key, batch);
  // New work may re-open a fragment that had offered completion — or one
  // that already finished: a recovery resend may arrive post-completion.
  // Resume, reprocess, and finish (incl. EOS + completion report) again.
  if (finished_) {
    finished_ = false;
    if (ExchangeProducer* producer = mutable_producer()) producer->Reopen();
  }
  completion_offered_ = false;
  MaybeProcess();
}

void FragmentExecutor::OnEos(const EosPayload& eos) {
  const int port = eos.consumer_port();
  if (!ingress_->ValidPort(port)) {
    Fail(Status::OutOfRange(StrCat("EOS for invalid port ", port)));
    return;
  }
  ingress_->MarkEos(port, ProducerKey(eos.producer()));
  MaybeProcess();
  CheckCompletion();
}

void FragmentExecutor::OnProducerLost(const ProducerLostPayload& lost) {
  const int port = lost.consumer_port();
  if (!ingress_->ValidPort(port)) return;
  // Keep whatever the crashed producer already delivered (those outputs
  // are valid); just stop waiting for its end-of-stream marker, and
  // abandon its open rounds (no RestoreComplete will ever arrive).
  const std::string key = ProducerKey(lost.producer());
  if (!ingress_->MarkLostIfCurrent(port, key, lost.coordinator_epoch())) {
    return;  // stale-epoch command of a deposed coordinator (D14)
  }
  state_->AbandonProducer(key);
  MaybeProcess();
  CheckCompletion();
}

// ---- driver ----------------------------------------------------------------

void FragmentExecutor::GoIdle() {
  // Going idle: ship sub-threshold credit batches now — an upstream
  // producer blocked on them has no other way to make progress. A blocked
  // chain thus always unblocks bottom-up from the root.
  queues_->FlushCreditGrants();
  if (!idle_tracking_) {
    idle_tracking_ = true;
    idle_since_ = simulator()->Now();
  }
}

void FragmentExecutor::MaybeProcess() {
  if (abandoned_) return;
  if (!began_ || processing_ || finished_ || dispatching_control_) return;

  // Flow-control gate (D11): with a saturated output link, starting
  // another input tuple would only pile more bytes onto the starved
  // consumer. Park the driver; the pending CreditGrant re-probes it.
  if (egress_ != nullptr && egress_->BlockedOnCredit()) return GoIdle();

  if (plan_.fragment.IsScanLeaf()) {
    if (scan_row_ < scan_table_->num_rows()) {
      processing_ = true;
      ProcessScanBatch();
    } else {
      CheckCompletion();
    }
    return;
  }

  const int port = queues_->PickRunnablePort(
      [this](int q) { return ingress_->EosComplete(q); });
  if (port < 0) return GoIdle();
  if (idle_tracking_) {
    driver_->AccumulateWait(simulator()->Now() - idle_since_);
    idle_tracking_ = false;
  }
  processing_ = true;
  ProcessQueuedBatch(port);
}

bool FragmentExecutor::BucketBlocked(int bucket) const {
  return !state_->build_recovery_empty() ||
         state_->AwaitingRestore(bucket) || state_->Frozen(bucket);
}

void FragmentExecutor::ProcessScanBatch() {
  const size_t remaining = scan_table_->num_rows() - scan_row_;
  const size_t batch = std::max<size_t>(plan_.config.vector_batch_size, 1);
  const size_t n = remaining < batch ? remaining : batch;
  const Status s = driver_->RunScanBatch(*scan_table_, scan_row_, n);
  scan_row_ += n;
  if (!s.ok()) {
    Fail(s);
    processing_ = false;
    return;
  }
  stats_.tuples_processed += n;
  node_->SubmitComposite(driver_->ctx()->charges, [this, n](double actual_ms) {
    if (abandoned_) return;
    driver_->AccumulateBatchCost(actual_ms, n);
    (void)DeliverOutputs(driver_->ctx());
    driver_->MaybeEmitM1(producer() != nullptr);
    processing_ = false;
    MaybeProcess();
  });
}

void FragmentExecutor::ProcessQueuedBatch(int port) {
  // Pop up to a batch of runnable tuples. Parking is re-checked before
  // every pop: the front may turn blocked mid-batch (a blocked tuple must
  // never ride along with runnable ones — bucket state cannot change
  // while we pop, but the *front* changes with each pop).
  const size_t batch = std::max<size_t>(plan_.config.vector_batch_size, 1);
  popped_.clear();
  while (popped_.size() < batch) {
    if (port > 0) {
      queues_->ParkBlocked(
          port, [this](int bucket) { return BucketBlocked(bucket); });
    }
    if (queues_->QueueEmpty(port)) break;
    popped_.push_back(queues_->PopFront(port));
    // The tuple leaves the bounded queue here; its bytes stop counting
    // against the producer's window (operator state is not budgeted).
    const QueuedTuple& qt = popped_.back();
    queues_->ReleaseCredit(port, qt.producer_key, qt.wire_bytes);
  }
  if (popped_.empty()) {
    processing_ = false;
    MaybeProcess();
    return;
  }

  // The completion needs only each popped tuple's identity, so the rows
  // move into the chain input.
  in_batch_.Clear();
  for (size_t i = 0; i < popped_.size(); ++i) {
    in_batch_.Append(std::move(popped_[i].rt.tuple), popped_[i].rt.bucket,
                     static_cast<uint32_t>(i));
  }
  const Status s = driver_->RunBatch(port, &in_batch_);
  if (!s.ok()) {
    Fail(s);
    processing_ = false;
    return;
  }
  stats_.tuples_processed += popped_.size();

  // popped_ stays untouched until the completion runs: processing_ keeps
  // the driver from starting another batch before then.
  node_->SubmitComposite(
      driver_->ctx()->charges, [this, port](double actual_ms) {
        if (abandoned_) return;
        const size_t n = popped_.size();
        driver_->AccumulateBatchCost(actual_ms, n);
        ExecContext* ctx = driver_->ctx();
        // DeliverOutputs clears ctx->out but leaves out_origin: seqs[i]
        // belongs to the input row out_origin[i] (origins are
        // non-decreasing — every operator emits in input-row order).
        const std::vector<uint64_t> output_seqs = DeliverOutputs(ctx);
        size_t next_out = 0;
        for (size_t i = 0; i < n; ++i) {
          row_seqs_.clear();
          while (next_out < output_seqs.size() &&
                 ctx->out_origin[next_out] == i) {
            row_seqs_.push_back(output_seqs[next_out]);
            ++next_out;
          }
          state_->RecordProcessed(port, popped_[i].producer_key,
                                  popped_[i].rt.seq, popped_[i].rt.bucket,
                                  ctx->row_retained[i] != 0, row_seqs_,
                                  producer() != nullptr, finished_);
        }
        processing_ = false;
        // Handle state moves that raced with this batch: every popped seq
        // is now in the processed set, so the purge/reply stay consistent.
        // The driver stays suppressed until every deferred control message
        // is dispatched — otherwise the first handler would start new
        // tuple work and later purges/replies would race with it again.
        dispatching_control_ = true;
        std::vector<Message> deferred;
        deferred.swap(deferred_state_moves_);
        for (const Message& m : deferred) DispatchStateMove(m);
        dispatching_control_ = false;
        driver_->MaybeEmitM1(producer() != nullptr);
        MaybeProcess();
        CheckCompletion();
      });
}

std::vector<uint64_t> FragmentExecutor::DeliverOutputs(ExecContext* ctx) {
  stats_.tuples_emitted += ctx->out.size();
  if (egress_ == nullptr) {
    ctx->out.clear();
    return {};
  }
  return egress_->Deliver(&ctx->out);
}

void FragmentExecutor::MaybeAckRetained() {
  if (!finished_) return;
  // Outputs are durable once nothing remains in the recovery log (the
  // root has no producer: its outputs ARE the delivered result).
  if (producer() != nullptr && !producer()->log().empty()) return;
  state_->AckAllRetained();
}

// ---- completion ------------------------------------------------------------

std::string FragmentExecutor::DebugString() const {
  std::string out = StrCat(plan_.id.ToString(), ": began=", began_,
                           " finished=", finished_, " processing=",
                           processing_, " offered=", completion_offered_,
                           " dead=", node_->dead());
  if (plan_.fragment.IsScanLeaf()) {
    out += StrCat(" scan_row=", scan_row_, "/", scan_table_->num_rows());
  }
  for (size_t p = 0; p < plan_.inputs.size(); ++p) {
    const int port = static_cast<int>(p);
    out += StrCat(" port", p, "={queue=", queues_->queue_size(port),
                  " parked=", queues_->parked_size(port), " eos=",
                  ingress_->eos_count(port), "/",
                  ingress_->num_producers(port), " lost=",
                  ingress_->lost_count(port), " acks_pending=",
                  state_->AcksPendingTotal(port), "}");
  }
  if (state_ != nullptr) out += state_->DebugSuffix();
  if (producer() != nullptr) {
    out += StrCat(" producer={", producer()->DebugString(), "}");
  }
  if (!exec_status_.ok()) out += StrCat(" error=", exec_status_.ToString());
  return out;
}

bool FragmentExecutor::LocallyDrained() const {
  if (processing_) return false;
  if (plan_.fragment.IsScanLeaf()) {
    return scan_row_ >= scan_table_->num_rows();
  }
  return state_->quiescent() && ingress_->AllEosComplete() &&
         queues_->AllQueuesEmpty();
}

void FragmentExecutor::CheckCompletion() {
  if (finished_ || !began_ || !LocallyDrained()) return;

  // Partitioned consumers must confirm with the Responder that no
  // retrospective redistribution can still route work to them.
  const bool needs_handshake =
      plan_.adaptivity.enabled && plan_.fragment.partitioned &&
      !plan_.fragment.IsScanLeaf() &&
      plan_.adaptivity.responder.host != kInvalidHost;
  if (!needs_handshake) {
    FinishFragment();
    return;
  }
  if (completion_offered_) return;
  completion_offered_ = true;
  const Status s =
      SendTo(plan_.adaptivity.responder,
             std::make_shared<CompletionOfferPayload>(plan_.id));
  if (!s.ok()) Fail(s);
}

void FragmentExecutor::OnCompletionGrant() {
  if (finished_) return;
  if (!LocallyDrained()) {
    // In-flight resends arrived between our offer and the grant; drain
    // them and re-offer.
    completion_offered_ = false;
    MaybeProcess();
    return;
  }
  FinishFragment();
}

void FragmentExecutor::FinishFragment() {
  if (finished_) return;
  finished_ = true;

  driver_->FinishPorts(plan_.inputs.size());
  if (driver_->FinishChain()) {
    (void)DeliverOutputs(driver_->ctx());
  }

  // Drain remaining acknowledgments (the paper's "checkpoints are
  // returned ... when tuples are not needed any more"). Retained
  // (state-resident) tuples are NOT unneeded yet: MaybeAckRetained
  // releases them once the recovery log drains.
  state_->FlushAllAcks();

  if (ExchangeProducer* producer = mutable_producer()) {
    const Status s = producer->FinishInput();
    if (!s.ok()) Fail(s);
  }
  MaybeAckRetained();

  if (plan_.coordinator.host != kInvalidHost) {
    const Status s =
        SendTo(plan_.coordinator,
               std::make_shared<FragmentCompletePayload>(
                   plan_.id, stats_.tuples_processed, stats_.tuples_emitted));
    if (!s.ok()) Fail(s);
  }
}

}  // namespace gqp
