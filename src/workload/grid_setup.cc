#include "workload/grid_setup.h"

#include "common/logging.h"
#include "common/strings.h"

namespace gqp {

GridSetup::GridSetup(const GridOptions& options) : options_(options) {
  network_ = std::make_unique<Network>(&sim_, options_.link);
  if (options_.loss_rate > 0.0) {
    network_->SeedLoss(options_.loss_seed);
    network_->SetDefaultLoss(options_.loss_rate);
  }
  bus_ = std::make_unique<MessageBus>(network_.get());
  if (options_.reliable.enabled) {
    bus_->EnableReliableTransport(options_.reliable);
  }
}

GridSetup::~GridSetup() = default;

Status GridSetup::Initialize() {
  if (initialized_) return Status::OK();
  if (options_.num_evaluators < 1) {
    return Status::InvalidArgument("need at least one evaluator");
  }

  // Host ids: 0 coordinator, 1 data node, 2.. evaluators (then the
  // standby, when enabled, at 2 + num_evaluators).
  nodes_.push_back(std::make_unique<GridNode>(&sim_, 0, "coordinator", 1.0));
  nodes_.push_back(std::make_unique<GridNode>(&sim_, 1, "data", 1.0));
  for (int i = 0; i < options_.num_evaluators; ++i) {
    const double capacity =
        static_cast<size_t>(i) < options_.evaluator_capacities.size()
            ? options_.evaluator_capacities[static_cast<size_t>(i)]
            : 1.0;
    const HostId id = static_cast<HostId>(2 + i);
    nodes_.push_back(std::make_unique<GridNode>(&sim_, id,
                                                StrCat("evaluator", i),
                                                capacity));
  }
  if (options_.standby_enabled) {
    nodes_.push_back(std::make_unique<GridNode>(
        &sim_, static_cast<HostId>(2 + options_.num_evaluators), "standby",
        1.0));
  }

  GQP_RETURN_IF_ERROR(
      registry_.Register(nodes_[0].get(), NodeRole::kCoordinator));
  GQP_RETURN_IF_ERROR(registry_.Register(nodes_[1].get(), NodeRole::kData));
  for (int i = 0; i < options_.num_evaluators; ++i) {
    GQP_RETURN_IF_ERROR(registry_.Register(
        nodes_[static_cast<size_t>(2 + i)].get(), NodeRole::kCompute));
  }
  if (options_.standby_enabled) {
    // kCoordinator keeps the standby out of the scheduler's compute pool.
    GQP_RETURN_IF_ERROR(
        registry_.Register(nodes_.back().get(), NodeRole::kCoordinator));
  }

  for (auto& node : nodes_) {
    auto gqes = std::make_unique<Gqes>(bus_.get(), node.get(), network_.get(),
                                       options_.adaptive, options_.med);
    GQP_RETURN_IF_ERROR(gqes->StartService());
    gqes_.push_back(std::move(gqes));
  }

  gdqs_ = std::make_unique<Gdqs>(bus_.get(), nodes_[0].get(), network_.get(),
                                 &catalog_, &registry_);
  GQP_RETURN_IF_ERROR(gdqs_->Start());
  for (auto& gqes : gqes_) gdqs_->AddGqes(gqes.get());
  if (options_.max_active_queries > 0) {
    gdqs_->set_max_active_queries(options_.max_active_queries);
  }
  // After AddGqes: the pressure subscription covers every known host.
  gdqs_->ConfigureAdmission(options_.admission);

  if (options_.detect.enabled) {
    monitor_ = std::make_unique<HeartbeatMonitor>(bus_.get(), nodes_[0]->id(),
                                                  options_.detect);
    GQP_RETURN_IF_ERROR(monitor_->Start());
    for (int i = 0; i < options_.num_evaluators; ++i) {
      GridNode* node = evaluator_node(i);
      auto hb = std::make_unique<Heartbeater>(bus_.get(), node,
                                              monitor_->address());
      GQP_RETURN_IF_ERROR(hb->Start());
      monitor_->Watch(node->id(), hb->address());
      heartbeaters_.push_back(std::move(hb));
    }
    monitor_->set_on_confirm([this](HostId host) {
      const Status s = gdqs_->ReportNodeFailure(host);
      if (!s.ok()) {
        GQP_LOG_WARN << "recovery after detected failure of host " << host
                     << " failed: " << s.ToString();
      }
    });
    // Re-admission needs no recovery action: the host's in-flight work was
    // already fenced and recovered around when the failure was confirmed;
    // from now on the scheduler may simply use it again. (If it actually
    // dies later, detection re-confirms and ReportNodeFailure dedups.)
    monitor_->set_on_readmit([](HostId host) {
      GQP_LOG_INFO << "host " << host
                   << " re-admitted after false failure suspicion";
    });
    // The primary's monitor dies with the primary (D14): without the
    // binding a coordinator kill would leave the watch timer scanning —
    // and keeping the simulation alive — forever.
    monitor_->BindNode(nodes_[0].get());
    gdqs_->SetFailureDetector(monitor_.get());
  }

  if (options_.standby_enabled) {
    GridNode* standby_node = nodes_.back().get();
    DetectConfig watch = options_.detect;
    watch.enabled = true;
    // The standby watches exactly one host; confirming it IS the
    // takeover trigger, so the last-survivor guard must stand aside.
    watch.allow_last_survivor_confirm = true;
    standby_ = std::make_unique<StandbyCoordinator>(
        bus_.get(), standby_node, network_.get(), &catalog_, &registry_,
        watch, gdqs_->address());
    GQP_RETURN_IF_ERROR(standby_->Initialize());
    for (auto& gqes : gqes_) standby_->AddGqes(gqes.get());
    standby_->ConfigureAdmission(options_.admission);
    primary_heartbeater_ = std::make_unique<Heartbeater>(
        bus_.get(), nodes_[0].get(), standby_->monitor()->address());
    GQP_RETURN_IF_ERROR(primary_heartbeater_->Start());
    standby_->monitor()->Watch(nodes_[0]->id(),
                               primary_heartbeater_->address());
    gdqs_->EnableMirroring(standby_->address());
  }

  initialized_ = true;
  return Status::OK();
}

Gqes* GridSetup::gqes_on(HostId host) {
  for (auto& gqes : gqes_) {
    if (gqes->host() == host) return gqes.get();
  }
  return nullptr;
}

Status GridSetup::AddTable(TablePtr table) {
  if (!initialized_) return Status::FailedPrecondition("not initialized");
  TableEntry entry;
  entry.name = table->name();
  entry.schema = table->schema();
  entry.data_host = data_node()->id();
  entry.stats.num_rows = table->num_rows();
  entry.stats.avg_row_bytes =
      table->num_rows() > 0 ? table->TotalWireSize() / table->num_rows() : 0;
  GQP_RETURN_IF_ERROR(catalog_.RegisterTable(std::move(entry)));
  gqes_on(data_node()->id())->RegisterTable(std::move(table));
  return Status::OK();
}

Status GridSetup::AddWebService(const std::string& name, DataType result_type,
                                double nominal_cost_ms) {
  WebServiceEntry entry;
  entry.name = name;
  entry.result_type = result_type;
  entry.nominal_cost_ms = nominal_cost_ms;
  return catalog_.RegisterWebService(std::move(entry));
}

Status GridSetup::PerturbEvaluator(int i, const std::string& tag,
                                   PerturbationPtr profile) {
  if (i < 0 || i >= options_.num_evaluators) {
    return Status::OutOfRange(StrCat("no evaluator ", i));
  }
  evaluator_node(i)->SetPerturbation(tag, std::move(profile));
  return Status::OK();
}

Status GridSetup::FailEvaluator(int i) {
  if (i < 0 || i >= options_.num_evaluators) {
    return Status::OutOfRange(StrCat("no evaluator ", i));
  }
  GridNode* node = evaluator_node(i);
  node->Kill();
  network_->SetHostDown(node->id());
  // With the detector running, the kill is silent: the coordinator learns
  // of it only through missed heartbeats (suspect -> confirm -> recover).
  if (monitor_ != nullptr) return Status::OK();
  return gdqs_->ReportNodeFailure(node->id());
}

Status GridSetup::FailCoordinator() {
  if (standby_ == nullptr) {
    return Status::FailedPrecondition(
        "coordinator kill requires a standby (options.standby_enabled)");
  }
  nodes_[0]->Kill();
  network_->SetHostDown(nodes_[0]->id());
  // A dead process takes its timers with it.
  gdqs_->CancelDeadlineWatchdogs();
  // Always silent: only the standby's missed-heartbeat watch may notice.
  return Status::OK();
}

}  // namespace gqp
