#include "dqp/gdqs.h"

#include <algorithm>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "detect/monitor.h"
#include "dqp/dqp_messages.h"
#include "dqp/failover_messages.h"
#include "monitor/monitoring_events.h"
#include "plan/binder.h"

namespace gqp {

Gdqs::Gdqs(MessageBus* bus, GridNode* node, Network* network,
           Catalog* catalog, ResourceRegistry* registry)
    : GridService(bus, node->id(), "gdqs"),
      node_(node),
      network_(network),
      catalog_(catalog),
      registry_(registry) {}

Gdqs::~Gdqs() = default;

void Gdqs::AddGqes(Gqes* gqes) { gqes_.push_back(gqes); }

Gqes* Gdqs::GqesOnHost(HostId host) const {
  for (Gqes* g : gqes_) {
    if (g->host() == host) return g;
  }
  return nullptr;
}

Result<int> Gdqs::SubmitQuery(
    const std::string& sql, const QueryOptions& options,
    std::function<void(const QueryResult&)> on_complete) {
  // Satellite backstop: a runaway submission loop fails loudly instead of
  // OOMing the simulation, admission control or not.
  if (active_queries_ + pending_admissions_.size() >= max_active_queries_) {
    return Status::ResourceExhausted(
        StrCat("coordinator at capacity: ", max_active_queries_,
               " simultaneously-registered queries (max_active_queries)"));
  }
  if (admission_ != nullptr) {
    return SubmitWithAdmission(sql, options, std::move(on_complete));
  }
  return LaunchQuery(sql, options, std::move(on_complete), /*forced_id=*/-1,
                     simulator()->Now(), options.deadline_ms,
                     /*admission_managed=*/false);
}

Result<int> Gdqs::LaunchQuery(
    const std::string& sql, const QueryOptions& options,
    std::function<void(const QueryResult&)> on_complete, int forced_id,
    SimTime submit_time, double watchdog_ms, bool admission_managed) {
  GQP_ASSIGN_OR_RETURN(LogicalNodePtr logical, PlanSql(sql, *catalog_));
  GQP_ASSIGN_OR_RETURN(PhysicalPlan physical,
                       CreatePhysicalPlan(logical, options.optimizer));

  if (options.adaptivity.enabled &&
      options.adaptivity.response == ResponseType::kProspective &&
      physical.HasStatefulPartitionedFragment()) {
    return Status::InvalidArgument(
        "prospective response (R2) cannot preserve correctness for "
        "partitioned stateful operators; use retrospective response (R1)");
  }

  SchedulerOptions sched = options.scheduler;
  if (sched.coordinator == kInvalidHost) sched.coordinator = host();
  // Schedule around every host whose failure this coordinator has acted
  // on: deploying there would wait on a dead host's ack until the
  // deadline. Confirmed knowledge only — a merely-suspected host still
  // gets work.
  for (const HostId failed : reported_failures_) {
    sched.exclude_hosts.insert(failed);
  }
  GQP_ASSIGN_OR_RETURN(ScheduledPlan scheduled,
                       SchedulePlan(physical, *registry_, sched));

  QueryState state;
  state.id = forced_id >= 0 ? forced_id : next_query_id_++;
  state.scheduled = std::move(scheduled);
  state.options = options;
  state.submit_time = submit_time;
  state.on_complete = std::move(on_complete);
  state.admission_live = admission_managed;
  for (const FragmentDesc& f : state.scheduled.plan.fragments) {
    if (f.IsRoot()) state.root_fragment = f.id;
    if (f.partitioned && state.scheduled.NumInstances(f.id) > 1) {
      state.monitored_fragment = f.id;
    }
  }
  state.root_instance = SubplanId{state.id, state.root_fragment, 0};

  // A takeover resumes adaptivity from the last mirrored W rather than
  // rediscovering the imbalance: override the scheduler's initial weights
  // on the monitored fragment's input exchanges when the shape matches.
  if (!options.initial_weights_override.empty() &&
      state.monitored_fragment >= 0) {
    for (const ExchangeDesc* ex :
         state.scheduled.plan.InputsOf(state.monitored_fragment)) {
      auto& weights =
          state.scheduled.initial_weights[static_cast<size_t>(ex->id)];
      if (weights.size() == options.initial_weights_override.size()) {
        weights = options.initial_weights_override;
      }
    }
  }

  if (options.adaptivity.enabled && state.monitored_fragment >= 0) {
    GQP_RETURN_IF_ERROR(SetUpAdaptivity(&state));
  }
  GQP_RETURN_IF_ERROR(Deploy(&state));

  // Watch the evaluators for the lifetime of the query: failure detection
  // only matters while work is in flight, and an idle detector would keep
  // the simulation from draining.
  if (detector_ != nullptr) {
    detector_->Activate();
    state.detector_active = true;
  }

  if (mirroring_) {
    MirrorEntry reg;
    reg.kind = MirrorEntryKind::kQueryRegistered;
    reg.query_id = state.id;
    reg.sql = sql;
    reg.adaptivity = options.adaptivity;
    reg.exec = options.exec;
    reg.optimizer = options.optimizer;
    reg.scheduler = options.scheduler;
    reg.submit_time_ms = state.submit_time;
    reg.deadline_ms = options.deadline_ms;
    reg.tenant = options.tenant;
    Mirror(std::move(reg));
    MirrorDetectorEpoch();
    MirrorEntry dep;
    dep.kind = MirrorEntryKind::kDeployed;
    dep.query_id = state.id;
    dep.credit_window_bytes = state.derived_credit_window;
    Mirror(std::move(dep));
  }

  const int id = state.id;
  state.active_counted = true;
  ++active_queries_;
  auto [it, inserted] = queries_.emplace(id, std::move(state));
  (void)inserted;
  if (watchdog_ms > 0) {
    it->second.deadline_event =
        simulator()->Schedule(watchdog_ms, [this, id] { OnDeadline(id); });
  }
  return id;
}

void Gdqs::ConfigureAdmission(const AdmissionConfig& config) {
  if (!config.enabled) return;
  admission_ = std::make_unique<AdmissionController>(config);
  // Pressure-driven shedding (D16): every node's MED forwards
  // QueuePressurePayloads verbatim on the monitoring topic; the
  // coordinator listens so sustained pressure anywhere in the grid can
  // trigger a shed round. No subscription — no extra traffic — when
  // shedding is off.
  if (config.shed_enabled) {
    for (Gqes* g : gqes_) {
      const Status s =
          Subscribe(Address{g->host(), "med"}, kTopicMonitoringAverages);
      if (!s.ok()) {
        GQP_LOG_WARN << "admission pressure subscription on host "
                     << g->host() << " failed: " << s.ToString();
      }
    }
  }
}

Result<int> Gdqs::SubmitWithAdmission(
    const std::string& sql, const QueryOptions& options,
    std::function<void(const QueryResult&)> on_complete) {
  const SimTime now = simulator()->Now();
  const int id = next_query_id_++;
  RejectReason reason = RejectReason::kNone;
  if (admission_->OnSubmit(options.tenant, id, &reason) ==
      AdmissionOutcome::kRejected) {
    RecordRejected(id, options.tenant, reason, now);
    return id;
  }
  PendingSubmission pending;
  pending.sql = sql;
  pending.options = options;
  pending.on_complete = std::move(on_complete);
  pending.submit_time = now;
  auto [it, inserted] = pending_admissions_.emplace(id, std::move(pending));
  (void)inserted;
  if (mirroring_) {
    MirrorEntry entry;
    entry.kind = MirrorEntryKind::kQueryQueued;
    entry.query_id = id;
    entry.sql = sql;
    entry.adaptivity = options.adaptivity;
    entry.exec = options.exec;
    entry.optimizer = options.optimizer;
    entry.scheduler = options.scheduler;
    entry.submit_time_ms = now;
    entry.deadline_ms = options.deadline_ms;
    entry.tenant = options.tenant;
    Mirror(std::move(entry));
  }
  if (options.deadline_ms > 0) {
    it->second.queue_deadline_event = simulator()->Schedule(
        options.deadline_ms, [this, id] { OnQueuedDeadline(id); });
  }
  DrainAdmissionQueue();
  return id;
}

void Gdqs::DrainAdmissionQueue() {
  if (admission_ == nullptr) return;
  int id;
  while ((id = admission_->NextAdmittable()) >= 0) {
    auto it = pending_admissions_.find(id);
    if (it == pending_admissions_.end()) {
      // Queue/desk mismatch should be impossible; free the slot loudly.
      GQP_LOG_ERROR << "admitted query " << id << " has no pending payload";
      admission_->OnQueryFinished("", false);
      continue;
    }
    PendingSubmission pending = std::move(it->second);
    pending_admissions_.erase(it);
    if (pending.queue_deadline_event != kInvalidEventId) {
      simulator()->Cancel(pending.queue_deadline_event);
      pending.queue_deadline_event = kInvalidEventId;
    }
    QueryOptions options = pending.options;
    // Global memory budget partitioned over live queries (D11 plumbing):
    // the share admitted now sticks for the query's lifetime; Deploy
    // spreads it over the plan's exchange links as credit windows.
    if (admission_->config().global_memory_budget_bytes > 0 &&
        options.exec.flow_control_enabled) {
      options.exec.memory_budget_bytes = admission_->BudgetShareBytes();
      options.exec.credit_window_bytes = 0;  // Deploy re-derives per link
    }
    double watchdog_ms = 0.0;
    if (options.deadline_ms > 0) {
      watchdog_ms =
          pending.submit_time + options.deadline_ms - simulator()->Now();
      if (watchdog_ms <= 0) {
        // The budget elapsed the instant a slot freed: terminate without
        // deploying (the queue watchdog races this drain at equal time).
        admission_->OnQueryFinished(options.tenant, false);
        RecordQueuedTerminal(
            id, pending,
            Status::Aborted(StrCat(
                "query ", id, " terminated: deadline of ",
                options.deadline_ms, " ms exceeded while queued")));
        continue;
      }
    }
    Result<int> launched =
        LaunchQuery(pending.sql, options, std::move(pending.on_complete),
                    id, pending.submit_time, watchdog_ms,
                    /*admission_managed=*/true);
    if (!launched.ok()) {
      admission_->OnQueryFinished(options.tenant, false);
      RecordQueuedTerminal(
          id, pending,
          Status::Aborted(StrCat("query ", id, " failed at admission: ",
                                 launched.status().message())));
    }
  }
}

void Gdqs::OnQueuedDeadline(int query_id) {
  // A dead coordinator's timers fire as no-ops (D14).
  if (node_->dead()) return;
  auto it = pending_admissions_.find(query_id);
  if (it == pending_admissions_.end()) return;
  PendingSubmission pending = std::move(it->second);
  pending_admissions_.erase(it);
  admission_->RemoveQueued(query_id);
  RecordQueuedTerminal(
      query_id, pending,
      Status::Aborted(StrCat("query ", query_id, " terminated: deadline of ",
                             pending.options.deadline_ms,
                             " ms exceeded while queued for admission")));
}

void Gdqs::RecordRejected(int query_id, const std::string& tenant,
                          RejectReason reason, SimTime submit_time) {
  AdmissionTerminal rec;
  rec.tenant = tenant;
  rec.submit_time = submit_time;
  rec.decided_time = simulator()->Now();
  rec.status = Status::Rejected(
      StrCat("query ", query_id, " rejected by admission control (",
             RejectReasonName(reason), ")"));
  admission_terminal_.emplace(query_id, std::move(rec));
  if (mirroring_) {
    MirrorEntry entry;
    entry.kind = MirrorEntryKind::kQueryRejected;
    entry.query_id = query_id;
    entry.tenant = tenant;
    entry.reject_reason = static_cast<int>(reason);
    entry.completion_time_ms = simulator()->Now();
    Mirror(std::move(entry));
  }
}

void Gdqs::RecordQueuedTerminal(int query_id,
                                const PendingSubmission& pending,
                                Status status) {
  AdmissionTerminal rec;
  rec.tenant = pending.options.tenant;
  rec.submit_time = pending.submit_time;
  rec.decided_time = simulator()->Now();
  rec.status = std::move(status);
  admission_terminal_.emplace(query_id, std::move(rec));
  if (mirroring_) {
    MirrorEntry entry;
    entry.kind = MirrorEntryKind::kQueryTerminated;
    entry.query_id = query_id;
    entry.completion_time_ms = simulator()->Now();
    Mirror(std::move(entry));
  }
}

void Gdqs::FinishAdmission(QueryState* state, bool completed) {
  if (!state->admission_live || admission_ == nullptr) return;
  state->admission_live = false;
  admission_->OnQueryFinished(state->options.tenant, completed);
  DrainAdmissionQueue();
}

void Gdqs::ShedHeaviestTenant() {
  if (admission_->live() == 0 && admission_->queue_depth() == 0) return;
  const std::string tenant = admission_->HeaviestTenant();
  // Queued work first: nothing started, nothing wasted.
  const int queued = admission_->PopNewestQueuedOf(tenant);
  if (queued >= 0) {
    auto it = pending_admissions_.find(queued);
    if (it != pending_admissions_.end()) {
      if (it->second.queue_deadline_event != kInvalidEventId) {
        simulator()->Cancel(it->second.queue_deadline_event);
      }
      const SimTime submit_time = it->second.submit_time;
      pending_admissions_.erase(it);
      RecordRejected(queued, tenant, RejectReason::kShed, submit_time);
    }
    return;
  }
  // No queued entries: terminate the tenant's youngest running query.
  int victim = -1;
  for (const auto& [id, state] : queries_) {
    if (state.complete || state.terminated || !state.admission_live) continue;
    if (state.options.tenant != tenant) continue;
    victim = id;  // ascending map: the last match is the youngest
  }
  if (victim < 0) return;
  admission_->NoteRunningShed(tenant);
  const Status s = TerminateQuery(
      victim, StrCat("shed under sustained queue pressure (heaviest tenant '",
                     tenant, "')"));
  if (!s.ok()) {
    GQP_LOG_ERROR << "shed of query " << victim
                  << " failed: " << s.ToString();
  }
}

void Gdqs::MarkInactive(QueryState* state) {
  if (!state->active_counted) return;
  state->active_counted = false;
  if (active_queries_ > 0) --active_queries_;
}

void Gdqs::SetFailureDetector(HeartbeatMonitor* monitor) {
  detector_ = monitor;
}

void Gdqs::EnableMirroring(const Address& standby) {
  standby_ = standby;
  mirroring_ = true;
  mirror_log_ = std::make_unique<MirrorLog>();
}

void Gdqs::SeedQueryIds(int next_id) {
  next_query_id_ = std::max(next_query_id_, next_id);
}

void Gdqs::Mirror(MirrorEntry entry) {
  if (!mirroring_ || mirror_log_ == nullptr) return;
  mirror_log_->Append(std::move(entry));
  // Append stamped the seq; ship the stored copy to the standby. Delivery
  // rides the reliable control plane; loss of the tail is tolerated (the
  // standby takes over from a consistent prefix).
  const Status s = SendTo(
      standby_, std::make_shared<MirrorEntryPayload>(
                    mirror_log_->pending().back()));
  if (!s.ok()) {
    GQP_LOG_WARN << "mirror shipment failed: " << s.ToString();
  }
}

void Gdqs::MirrorDetectorEpoch() {
  if (!mirroring_ || detector_ == nullptr) return;
  const uint64_t epoch = detector_->epoch();
  if (epoch == last_mirrored_epoch_) return;
  last_mirrored_epoch_ = epoch;
  MirrorEntry entry;
  entry.kind = MirrorEntryKind::kEpochBump;
  entry.detector_epoch = epoch;
  Mirror(std::move(entry));
}

Status Gdqs::SetUpAdaptivity(QueryState* state) {
  const int target = state->monitored_fragment;
  const auto& plan = state->scheduled.plan;

  // Monitored instances (consumer order).
  std::vector<SubplanId> instances;
  const auto& hosts =
      state->scheduled.instance_hosts[static_cast<size_t>(target)];
  for (size_t i = 0; i < hosts.size(); ++i) {
    instances.push_back(SubplanId{state->id, target, static_cast<int>(i)});
  }

  // Initial W: the input exchanges of the monitored fragment share it.
  const std::vector<const ExchangeDesc*> inputs = plan.InputsOf(target);
  if (inputs.empty()) {
    return Status::Internal("monitored fragment has no input exchanges");
  }
  const std::vector<double>& w0 =
      state->scheduled.initial_weights[static_cast<size_t>(inputs[0]->id)];

  // Producers feeding the monitored fragment.
  std::vector<ConsumerEndpoint> producers;
  std::set<HostId> monitored_hosts(hosts.begin(), hosts.end());
  for (const ExchangeDesc* ex : inputs) {
    const auto& producer_hosts =
        state->scheduled
            .instance_hosts[static_cast<size_t>(ex->producer_fragment)];
    for (size_t i = 0; i < producer_hosts.size(); ++i) {
      SubplanId pid{state->id, ex->producer_fragment, static_cast<int>(i)};
      producers.push_back(ConsumerEndpoint{
          pid, Address{producer_hosts[i], pid.ToString()}});
      monitored_hosts.insert(producer_hosts[i]);
    }
  }

  state->diagnoser = std::make_unique<Diagnoser>(
      bus(), host(), StrCat("diagnoser.q", state->id), state->options.adaptivity,
      target, instances, w0);
  state->responder = std::make_unique<Responder>(
      bus(), host(), StrCat("responder.q", state->id),
      state->options.adaptivity, target, std::move(producers), w0);
  GQP_RETURN_IF_ERROR(state->diagnoser->Start());
  GQP_RETURN_IF_ERROR(state->responder->Start());

  // Pub/sub wiring (Fig. 1): Diagnoser listens to every involved site's
  // MED; the Responder listens to the Diagnoser; the Diagnoser learns the
  // applied W from the Responder.
  for (const HostId h : monitored_hosts) {
    GQP_RETURN_IF_ERROR(state->diagnoser->Subscribe(
        Address{h, "med"}, kTopicMonitoringAverages));
  }
  GQP_RETURN_IF_ERROR(state->responder->Subscribe(
      state->diagnoser->address(), kTopicImbalance));
  GQP_RETURN_IF_ERROR(state->diagnoser->Subscribe(
      state->responder->address(), kTopicWeightsApplied));
  // With a standby attached, the coordinator itself also listens for the
  // applied W so every redistribution lands in the mirror log.
  if (mirroring_) {
    GQP_RETURN_IF_ERROR(
        Subscribe(state->responder->address(), kTopicWeightsApplied));
  }
  return Status::OK();
}

Status Gdqs::Deploy(QueryState* state) {
  const auto& plan = state->scheduled.plan;
  // Flow control (D11): derive the per-link credit window once here —
  // the query's memory budget spread evenly over every exchange link —
  // and stamp it into each instance's config copy, so the producer and
  // consumer of a link agree on W without any negotiation.
  ExecConfig exec = state->options.exec;
  if (exec.flow_control_enabled && exec.credit_window_bytes == 0 &&
      exec.memory_budget_bytes > 0) {
    size_t links = 0;
    for (const FragmentDesc& frag : plan.fragments) {
      if (const ExchangeDesc* out = plan.OutputOf(frag.id)) {
        links += static_cast<size_t>(state->scheduled.NumInstances(frag.id)) *
                 static_cast<size_t>(
                     state->scheduled.NumInstances(out->consumer_fragment));
      }
    }
    if (links > 0) {
      exec.credit_window_bytes =
          std::max<size_t>(1, exec.memory_budget_bytes / links);
    }
  }
  state->derived_credit_window = exec.credit_window_bytes;
  for (const FragmentDesc& frag : plan.fragments) {
    const auto& hosts =
        state->scheduled.instance_hosts[static_cast<size_t>(frag.id)];
    for (size_t inst = 0; inst < hosts.size(); ++inst) {
      FragmentInstancePlan instance;
      instance.id =
          SubplanId{state->id, frag.id, static_cast<int>(inst)};
      instance.fragment = frag;
      instance.config = exec;
      instance.config.monitoring_enabled =
          state->options.exec.monitoring_enabled &&
          state->options.adaptivity.enabled;
      instance.coordinator = address();
      instance.coordinator_epoch = coordinator_epoch_;

      // Input wiring.
      for (const ExchangeDesc* ex : plan.InputsOf(frag.id)) {
        InputWiring wiring;
        wiring.desc = *ex;
        wiring.num_producers = state->scheduled.NumInstances(
            ex->producer_fragment);
        instance.inputs.push_back(std::move(wiring));
      }

      // Output wiring.
      if (const ExchangeDesc* out = plan.OutputOf(frag.id)) {
        OutputWiring wiring;
        wiring.desc = *out;
        const auto& consumer_hosts =
            state->scheduled
                .instance_hosts[static_cast<size_t>(out->consumer_fragment)];
        for (size_t c = 0; c < consumer_hosts.size(); ++c) {
          SubplanId cid{state->id, out->consumer_fragment,
                        static_cast<int>(c)};
          wiring.consumers.push_back(ConsumerEndpoint{
              cid, Address{consumer_hosts[c], cid.ToString()}});
        }
        wiring.initial_weights =
            state->scheduled.initial_weights[static_cast<size_t>(out->id)];
        if (frag.IsScanLeaf()) {
          wiring.estimated_rows = frag.ops.front().estimated_rows;
        }
        instance.output = std::move(wiring);
      }

      // Adaptivity wiring.
      if (state->options.adaptivity.enabled && state->responder != nullptr) {
        instance.adaptivity.enabled = true;
        instance.adaptivity.med = Address{hosts[inst], "med"};
        instance.adaptivity.responder = state->responder->address();
      }

      const Address gqes_addr{hosts[inst], StrCat("gqes@", hosts[inst])};
      if (GqesOnHost(hosts[inst]) == nullptr) {
        return Status::FailedPrecondition(
            StrCat("no GQES registered on host ", hosts[inst]));
      }
      state->pending_acks.insert(instance.id.ToString());
      state->instance_addresses.push_back(
          Address{hosts[inst], instance.id.ToString()});
      GQP_RETURN_IF_ERROR(SendTo(
          gqes_addr,
          std::make_shared<DeployFragmentPayload>(std::move(instance))));
    }
  }
  return Status::OK();
}

void Gdqs::HandleMessage(const Message& msg) {
  if (const auto* ack = PayloadAs<DeployAckPayload>(msg.payload)) {
    OnDeployAck(*ack);
    return;
  }
  if (const auto* complete =
          PayloadAs<FragmentCompletePayload>(msg.payload)) {
    OnFragmentComplete(*complete);
    return;
  }
  if (const auto* mirror_ack = PayloadAs<MirrorAckPayload>(msg.payload)) {
    if (mirror_log_ != nullptr) mirror_log_->Acknowledge(mirror_ack->seq());
    return;
  }
  GQP_LOG_DEBUG << "GDQS: unhandled payload "
                << (msg.payload ? msg.payload->TypeName() : "null");
}

void Gdqs::OnNotification(const Address& publisher, const std::string& topic,
                          const PayloadPtr& body) {
  // Admission control (D16) listens to the MEDs' monitoring topic for
  // forwarded QueuePressurePayloads: sustained pressure triggers one shed
  // round against the heaviest tenant.
  if (topic == kTopicMonitoringAverages) {
    if (admission_ == nullptr || node_->dead()) return;
    if (PayloadAs<QueuePressurePayload>(body) == nullptr) return;
    if (admission_->OnPressureEvent(simulator()->Now())) {
      ShedHeaviestTenant();
    }
    return;
  }
  // Mirroring subscribes to each Responder's weights-applied topic so the
  // standby can resume adaptivity from the live W (the publisher is
  // "responder.q<id>"; the query id rides in its name).
  if (topic != kTopicWeightsApplied || !mirroring_) return;
  const auto* applied = PayloadAs<WeightsAppliedPayload>(body);
  if (applied == nullptr) return;
  const size_t pos = publisher.service.rfind(".q");
  if (pos == std::string::npos) return;
  const int query_id = std::atoi(publisher.service.c_str() + pos + 2);
  if (queries_.find(query_id) == queries_.end()) return;
  MirrorEntry entry;
  entry.kind = MirrorEntryKind::kWeightsApplied;
  entry.query_id = query_id;
  entry.round = applied->round();
  entry.weights = applied->weights();
  Mirror(std::move(entry));
}

void Gdqs::OnDeployAck(const DeployAckPayload& ack) {
  auto it = queries_.find(ack.id().query);
  if (it == queries_.end()) return;
  QueryState& state = it->second;
  state.pending_acks.erase(ack.id().ToString());
  if (!ack.ok()) {
    state.failed_deploys.push_back(
        StrCat(ack.id().ToString(), ": ", ack.message()));
    GQP_LOG_ERROR << "deployment failed: " << ack.id().ToString() << " "
                  << ack.message();
  }
  if (!state.pending_acks.empty() || state.started) return;
  if (!state.failed_deploys.empty()) return;  // query stalls; caller checks
  state.started = true;
  for (const Address& instance : state.instance_addresses) {
    const Status s =
        SendTo(instance, std::make_shared<BeginPayload>(state.id));
    if (!s.ok()) {
      GQP_LOG_ERROR << "begin broadcast failed: " << s.ToString();
    }
  }
}

void Gdqs::OnFragmentComplete(const FragmentCompletePayload& complete) {
  auto it = queries_.find(complete.id().query);
  if (it == queries_.end()) return;
  QueryState& state = it->second;
  if (complete.id().fragment != state.root_fragment) return;
  // The root can re-finish after resuming for a recovery resend; refresh
  // the completion time so response time covers the recovery tail, but
  // fire the client callback only once.
  const bool first = !state.complete;
  state.complete = true;
  state.completion_time = simulator()->Now();
  if (first && state.deadline_event != kInvalidEventId) {
    simulator()->Cancel(state.deadline_event);
    state.deadline_event = kInvalidEventId;
  }
  if (first && state.detector_active && detector_ != nullptr) {
    detector_->Deactivate();
    state.detector_active = false;
  }
  if (first && mirroring_) {
    MirrorEntry entry;
    entry.kind = MirrorEntryKind::kQueryComplete;
    entry.query_id = state.id;
    entry.completion_time_ms = state.completion_time;
    if (const FragmentExecutor* root = FindInstance(state.root_instance)) {
      entry.rows = root->Results();
    }
    Mirror(std::move(entry));
  }
  if (first) {
    MarkInactive(&state);
    FinishAdmission(&state, /*completed=*/true);
  }
  if (first && state.on_complete) state.on_complete(BuildResult(state));
}

void Gdqs::OnDeadline(int query_id) {
  // The watchdog dies with the coordinator process: a killed primary's
  // pending deadline events fire as no-ops (the standby re-arms deadlines
  // on the queries it retries).
  if (node_->dead()) return;
  auto it = queries_.find(query_id);
  if (it == queries_.end()) return;
  it->second.deadline_event = kInvalidEventId;  // fired, nothing to cancel
  if (it->second.complete || it->second.terminated) return;
  const Status s = TerminateQuery(
      query_id, StrCat("deadline of ", it->second.options.deadline_ms,
                       " ms exceeded"));
  if (!s.ok()) {
    GQP_LOG_ERROR << "deadline termination of query " << query_id
                  << " failed: " << s.ToString();
  }
}

void Gdqs::CancelDeadlineWatchdogs() {
  for (auto& [id, state] : queries_) {
    if (state.deadline_event != kInvalidEventId) {
      simulator()->Cancel(state.deadline_event);
      state.deadline_event = kInvalidEventId;
    }
  }
  for (auto& [id, pending] : pending_admissions_) {
    if (pending.queue_deadline_event != kInvalidEventId) {
      simulator()->Cancel(pending.queue_deadline_event);
      pending.queue_deadline_event = kInvalidEventId;
    }
  }
}

Status Gdqs::TerminateQuery(int query_id, const std::string& reason) {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("unknown query ", query_id));
  }
  QueryState& state = it->second;
  if (state.complete) {
    return Status::FailedPrecondition(
        StrCat("query ", query_id, " already completed"));
  }
  if (state.terminated) return Status::OK();

  // Salvage whatever the root produced before the executors go away.
  if (const FragmentExecutor* root = FindInstance(state.root_instance)) {
    state.partial_rows = root->Results();
  }
  state.terminated = true;
  state.terminal_status =
      Status::Aborted(StrCat("query ", query_id, " terminated: ", reason));
  state.completion_time = simulator()->Now();
  if (state.deadline_event != kInvalidEventId) {
    simulator()->Cancel(state.deadline_event);
    state.deadline_event = kInvalidEventId;
  }
  if (state.detector_active && detector_ != nullptr) {
    detector_->Deactivate();
    state.detector_active = false;
  }
  // Stop the adaptivity services before their executors vanish.
  state.diagnoser.reset();
  state.responder.reset();
  ReleaseOnAllNodes(query_id);
  if (mirroring_) {
    MirrorEntry entry;
    entry.kind = MirrorEntryKind::kQueryTerminated;
    entry.query_id = query_id;
    entry.rows = state.partial_rows;
    entry.completion_time_ms = state.completion_time;
    Mirror(std::move(entry));
  }
  GQP_LOG_WARN << "query " << query_id << " terminated: " << reason;
  MarkInactive(&state);
  FinishAdmission(&state, /*completed=*/false);
  return Status::OK();
}

bool Gdqs::QueryComplete(int query_id) const {
  auto it = queries_.find(query_id);
  return it != queries_.end() && it->second.complete;
}

FragmentExecutor* Gdqs::FindInstance(const SubplanId& id) const {
  for (Gqes* g : gqes_) {
    if (FragmentExecutor* executor = g->FindExecutor(id)) return executor;
  }
  return nullptr;
}

QueryResult Gdqs::BuildResult(const QueryState& state) const {
  QueryResult result;
  result.query_id = state.id;
  result.complete = state.complete;
  result.schema = state.scheduled.plan.result_schema;
  result.submit_time_ms = state.submit_time;
  result.completion_time_ms = state.completion_time;
  result.response_time_ms = state.completion_time - state.submit_time;
  if (state.terminated) {
    // Executors are gone; the salvaged partial rows are the result.
    result.rows = state.partial_rows;
    return result;
  }
  if (const FragmentExecutor* root = FindInstance(state.root_instance)) {
    result.rows = root->Results();
  }
  return result;
}

Result<QueryResult> Gdqs::GetResult(int query_id) const {
  auto term = admission_terminal_.find(query_id);
  if (term != admission_terminal_.end()) {
    // Rejected / queue-terminated queries never produced rows; the result
    // mirrors a terminated query's shape (complete=false).
    QueryResult result;
    result.query_id = query_id;
    result.complete = false;
    result.submit_time_ms = term->second.submit_time;
    result.completion_time_ms = term->second.decided_time;
    result.response_time_ms =
        term->second.decided_time - term->second.submit_time;
    return result;
  }
  if (pending_admissions_.count(query_id) > 0) {
    return Status::FailedPrecondition(
        StrCat("query ", query_id, " still queued for admission"));
  }
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("unknown query ", query_id));
  }
  if (!it->second.failed_deploys.empty()) {
    return Status::Internal(StrCat("query ", query_id, " failed to deploy: ",
                                   StrJoin(it->second.failed_deploys, "; ")));
  }
  return BuildResult(it->second);
}

Result<ScheduledPlan> Gdqs::GetPlan(int query_id) const {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("unknown query ", query_id));
  }
  return it->second.scheduled;
}

Status Gdqs::ExecutionStatus(int query_id) const {
  auto term = admission_terminal_.find(query_id);
  if (term != admission_terminal_.end()) return term->second.status;
  // Still queued: no terminal state yet, no execution error either.
  if (pending_admissions_.count(query_id) > 0) return Status::OK();
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("unknown query ", query_id));
  }
  if (it->second.terminated) return it->second.terminal_status;
  for (Gqes* g : gqes_) {
    for (FragmentExecutor* executor : g->Executors()) {
      if (executor->plan().id.query != query_id) continue;
      if (!executor->execution_status().ok()) {
        return executor->execution_status();
      }
    }
  }
  return Status::OK();
}

Result<QueryStatsSnapshot> Gdqs::CollectStats(int query_id) const {
  auto it = queries_.find(query_id);
  if (it == queries_.end()) {
    return Status::NotFound(StrCat("unknown query ", query_id));
  }
  const QueryState& state = it->second;
  QueryStatsSnapshot snap;

  for (Gqes* g : gqes_) {
    if (g->med() != nullptr) {
      // MEDs are shared across queries, but every raw event carries its
      // SubplanId: the per-query slice is exact under concurrency (D12).
      const MedStats& med = g->med()->stats_for_query(query_id);
      snap.raw_m1 += med.raw_m1;
      snap.raw_m2 += med.raw_m2;
      snap.med_notifications += med.notifications_out;
    }
    for (FragmentExecutor* executor : g->Executors()) {
      if (executor->plan().id.query != query_id) continue;
      const FragmentStats& fs = executor->stats();
      snap.queue_high_watermark =
          std::max(snap.queue_high_watermark, fs.queue_high_watermark);
      snap.parked_peak = std::max(snap.parked_peak, fs.parked_peak);
      snap.queued_bytes_peak =
          std::max(snap.queued_bytes_peak, fs.queued_bytes_peak);
      snap.credit_grants_sent += fs.credit_grants_sent;
      snap.queue_pressure_events += fs.queue_pressure_events;
      if (executor->producer() != nullptr) {
        const ProducerStats& ps = executor->producer()->stats();
        const CreditLedgerStats& cs = executor->producer()->credit().stats();
        snap.credit_blocked_events += cs.blocked_events;
        snap.peak_outstanding_credit_bytes =
            std::max(snap.peak_outstanding_credit_bytes,
                     cs.peak_outstanding_bytes);
        snap.resent_tuples += ps.resent_tuples;
        if (state.monitored_fragment >= 0 &&
            executor->plan().output.has_value() &&
            executor->plan().output->desc.consumer_fragment ==
                state.monitored_fragment) {
          if (snap.tuples_per_evaluator.size() <
              ps.tuples_to_consumer.size()) {
            snap.tuples_per_evaluator.resize(ps.tuples_to_consumer.size(), 0);
          }
          for (size_t i = 0; i < ps.tuples_to_consumer.size(); ++i) {
            snap.tuples_per_evaluator[i] += ps.tuples_to_consumer[i];
          }
        }
      }
      snap.discarded_tuples +=
          executor->stats().tuples_discarded_in_moves;
    }
  }
  if (bus()->reliable() != nullptr) {
    const ReliableStats& transport =
        bus()->reliable()->stats_for_query(query_id);
    snap.transport_retransmits = transport.retransmits;
    snap.transport_backoffs = transport.backoffs;
  }
  if (state.diagnoser != nullptr) {
    snap.diagnoser_proposals = state.diagnoser->stats().proposals_sent;
    snap.pressure_proposals = state.diagnoser->stats().pressure_proposals;
    snap.first_pressure_proposal_ms =
        state.diagnoser->stats().first_pressure_proposal_ms;
    snap.first_rate_proposal_ms =
        state.diagnoser->stats().first_rate_proposal_ms;
  }
  if (state.responder != nullptr) {
    snap.rounds_started = state.responder->stats().rounds_started;
    snap.rounds_applied = state.responder->stats().rounds_applied;
  }
  return snap;
}

Status Gdqs::ReportNodeFailure(HostId failed_host) {
  if (!registry_->Find(failed_host).ok()) {
    return Status::NotFound(
        StrCat("host ", failed_host, " is not a registered grid node"));
  }
  reported_failures_.insert(failed_host);
  if (mirroring_) {
    MirrorEntry entry;
    entry.kind = MirrorEntryKind::kFailureDecision;
    entry.failed_host = failed_host;
    Mirror(std::move(entry));
  }
  for (auto& [id, state] : queries_) {
    if (state.complete) continue;
    const auto& plan = state.scheduled.plan;
    for (const FragmentDesc& frag : plan.fragments) {
      const auto& hosts =
          state.scheduled.instance_hosts[static_cast<size_t>(frag.id)];
      for (size_t inst = 0; inst < hosts.size(); ++inst) {
        if (hosts[inst] != failed_host) continue;
        const SubplanId dead{state.id, frag.id, static_cast<int>(inst)};

        // Downstream consumers stop waiting for the dead instance's
        // stream (what it already delivered remains valid).
        if (const ExchangeDesc* out = plan.OutputOf(frag.id)) {
          const auto& consumer_hosts =
              state.scheduled
                  .instance_hosts[static_cast<size_t>(out->consumer_fragment)];
          for (size_t c = 0; c < consumer_hosts.size(); ++c) {
            const SubplanId cid{state.id, out->consumer_fragment,
                                static_cast<int>(c)};
            GQP_RETURN_IF_ERROR(
                SendTo(Address{consumer_hosts[c], cid.ToString()},
                       std::make_shared<ProducerLostPayload>(
                           out->id, dead, out->consumer_port,
                           coordinator_epoch_)));
          }
        }

        // Upstream producers stop sending to the dead instance and drop it
        // from any in-flight redistribution round (it can never reply, and
        // the recovery round cannot start until that round closes).
        for (const ExchangeDesc& exch : plan.exchanges) {
          if (exch.consumer_fragment != frag.id) continue;
          const auto& producer_hosts =
              state.scheduled
                  .instance_hosts[static_cast<size_t>(exch.producer_fragment)];
          for (size_t p = 0; p < producer_hosts.size(); ++p) {
            if (producer_hosts[p] == failed_host) continue;
            const SubplanId pid{state.id, exch.producer_fragment,
                                static_cast<int>(p)};
            GQP_RETURN_IF_ERROR(
                SendTo(Address{producer_hosts[p], pid.ToString()},
                       std::make_shared<ConsumerLostPayload>(
                           exch.id, dead, coordinator_epoch_)));
          }
        }

        // Evaluator instances of the monitored fragment are recovered
        // through the Responder (recovery-log redistribution).
        if (frag.id == state.monitored_fragment &&
            state.responder != nullptr) {
          auto notice = std::make_shared<FailureNoticePayload>(
              dead, static_cast<int>(inst));
          GQP_RETURN_IF_ERROR(SendTo(state.responder->address(), notice));
          if (state.diagnoser != nullptr) {
            GQP_RETURN_IF_ERROR(
                SendTo(state.diagnoser->address(), notice));
          }
        } else if (frag.id != state.monitored_fragment &&
                   !frag.IsScanLeaf() && !frag.IsRoot()) {
          GQP_LOG_WARN << "failure of unmonitored fragment instance "
                       << dead.ToString() << " cannot be recovered";
        }
        if (frag.IsScanLeaf() || frag.IsRoot()) {
          return Status::Unimplemented(
              "data-node and coordinator failures are not recoverable");
        }
      }
    }
  }
  return Status::OK();
}

void Gdqs::ReleaseQuery(int query_id) {
  auto it = queries_.find(query_id);
  if (it != queries_.end()) {
    if (it->second.deadline_event != kInvalidEventId) {
      simulator()->Cancel(it->second.deadline_event);
      it->second.deadline_event = kInvalidEventId;
    }
    if (it->second.detector_active && detector_ != nullptr) {
      detector_->Deactivate();
      it->second.detector_active = false;
    }
    MarkInactive(&it->second);
    FinishAdmission(&it->second, it->second.complete);
  }
  ReleaseOnAllNodes(query_id);
  queries_.erase(query_id);
}

void Gdqs::ReleaseOnAllNodes(int query_id) {
  for (Gqes* g : gqes_) g->ReleaseQuery(query_id);
}

Diagnoser* Gdqs::diagnoser(int query_id) const {
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : it->second.diagnoser.get();
}

Responder* Gdqs::responder(int query_id) const {
  auto it = queries_.find(query_id);
  return it == queries_.end() ? nullptr : it->second.responder.get();
}

}  // namespace gqp
