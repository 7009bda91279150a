// GridSetup: assembles a complete simulated grid — simulator, network,
// bus, nodes (coordinator + data node + N evaluators), GQES services, the
// GDQS coordinator, catalog and registry — mirroring the paper's testbed
// topology (two/three evaluation machines plus a third machine that
// "retrieves and sends data as fast as it can").

#ifndef GRIDQP_WORKLOAD_GRID_SETUP_H_
#define GRIDQP_WORKLOAD_GRID_SETUP_H_

#include <memory>
#include <string>
#include <vector>

#include "detect/heartbeater.h"
#include "detect/monitor.h"
#include "dqp/gdqs.h"
#include "dqp/standby.h"

namespace gqp {

struct GridOptions {
  int num_evaluators = 2;
  /// Capacity of each evaluator (heterogeneous grids use unequal values).
  std::vector<double> evaluator_capacities;
  LinkParams link;  // defaults model the paper's 100 Mbps LAN
  /// Create MEDs on every node (AGQES mode).
  bool adaptive = true;
  MonitoringEventDetectorConfig med;
  /// Reliable control-plane delivery (off: raw sends, legacy behavior).
  ReliableConfig reliable;
  /// Heartbeat failure detection (off: FailEvaluator reports directly).
  DetectConfig detect;
  /// Uniform message-drop probability of the network fabric.
  double loss_rate = 0.0;
  /// Seed of the loss model's RNG (scenarios derive it from their seed).
  uint64_t loss_seed = 0;
  /// Replicated-coordinator mode (D14): adds a standby node (host
  /// 2 + num_evaluators) running a StandbyCoordinator that mirrors the
  /// GDQS and takes over on its confirmed death. Off by default — when
  /// off, nothing failover-related exists in the grid.
  bool standby_enabled = false;
  /// GDQS admission control (D16). Off by default: the submission path is
  /// byte-identical to every release before admission existed. When
  /// enabled, the same config is installed on the standby's inner GDQS so
  /// a takeover enforces the same caps.
  AdmissionConfig admission;
  /// Hard cap on simultaneously-registered queries (satellite backstop;
  /// 0 keeps the Gdqs default of one million).
  size_t max_active_queries = 0;
};

/// \brief Owns one simulated grid and all its services.
class GridSetup {
 public:
  explicit GridSetup(const GridOptions& options);
  ~GridSetup();

  GridSetup(const GridSetup&) = delete;
  GridSetup& operator=(const GridSetup&) = delete;

  /// Builds services; must be called once before use.
  Status Initialize();

  Simulator* simulator() { return &sim_; }
  Network* network() { return network_.get(); }
  MessageBus* bus() { return bus_.get(); }
  Catalog* catalog() { return &catalog_; }
  ResourceRegistry* registry() { return &registry_; }
  Gdqs* gdqs() { return gdqs_.get(); }

  GridNode* coordinator_node() { return nodes_[0].get(); }
  GridNode* data_node() { return nodes_[1].get(); }
  GridNode* evaluator_node(int i) { return nodes_[static_cast<size_t>(2 + i)].get(); }
  int num_evaluators() const { return options_.num_evaluators; }
  /// Total host count including the standby node when enabled (invariant
  /// checks must scan the standby's executors: retried queries root there).
  int num_hosts() const { return static_cast<int>(nodes_.size()); }
  Gqes* gqes_on(HostId host);

  /// Null unless options.detect.enabled.
  HeartbeatMonitor* monitor() { return monitor_.get(); }
  Heartbeater* heartbeater(int i) {
    return static_cast<size_t>(i) < heartbeaters_.size()
               ? heartbeaters_[static_cast<size_t>(i)].get()
               : nullptr;
  }

  /// Registers a table on the data node (as a Grid Data Service) and in
  /// the catalog.
  Status AddTable(TablePtr table);

  /// Registers a web-service operation usable from queries, with its
  /// nominal per-call cost.
  Status AddWebService(const std::string& name, DataType result_type,
                       double nominal_cost_ms);

  /// Installs a perturbation profile for an operation tag on evaluator i.
  Status PerturbEvaluator(int i, const std::string& tag,
                          PerturbationPtr profile);

  /// Crashes evaluator i: its machine stops executing and the network
  /// drops its traffic. With the failure detector enabled this is ALL it
  /// does — the coordinator finds out through missed heartbeats; without
  /// it, the coordinator is informed directly (legacy oracle).
  Status FailEvaluator(int i);

  /// Crashes the primary coordinator (host 0). Requires a standby: the
  /// kill is silent and recovery happens solely through the standby's
  /// missed-heartbeat takeover (D14).
  Status FailCoordinator();

  /// Null unless options.standby_enabled.
  StandbyCoordinator* standby() { return standby_.get(); }
  GridNode* standby_node() {
    return standby_ != nullptr ? nodes_.back().get() : nullptr;
  }

 private:
  GridOptions options_;
  Simulator sim_;
  std::unique_ptr<Network> network_;
  std::unique_ptr<MessageBus> bus_;
  Catalog catalog_;
  ResourceRegistry registry_;
  std::vector<std::unique_ptr<GridNode>> nodes_;
  std::vector<std::unique_ptr<Gqes>> gqes_;
  std::unique_ptr<Gdqs> gdqs_;
  std::unique_ptr<HeartbeatMonitor> monitor_;
  std::vector<std::unique_ptr<Heartbeater>> heartbeaters_;
  std::unique_ptr<StandbyCoordinator> standby_;
  /// Beats from the primary's host to the standby's watch monitor.
  std::unique_ptr<Heartbeater> primary_heartbeater_;
  bool initialized_ = false;
};

}  // namespace gqp

#endif  // GRIDQP_WORKLOAD_GRID_SETUP_H_
