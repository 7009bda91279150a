// HeartbeatMonitor: the coordinator-side half of the failure detector.
// Tracks the inter-arrival statistics of each watched host's heartbeats
// with an exponentially-weighted mean/variance and suspects a host when
// its silence exceeds mean + phi_k standard deviations (clamped to
// [min, max] heartbeat intervals — the φ-accrual idea with a bounded
// detection latency). A suspected host that stays silent for another
// confirm window is confirmed failed and reported to the GDQS through the
// on_confirm callback; a suspected host that beats again is cleared; a
// *confirmed* host that beats again (it was partitioned or stalled, not
// dead) is re-admitted as fresh capacity — its in-flight query state has
// already been fenced and recovered around.

#ifndef GRIDQP_DETECT_MONITOR_H_
#define GRIDQP_DETECT_MONITOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "detect/heartbeat.h"
#include "rpc/service.h"

namespace gqp {

class GridNode;

class HeartbeatMonitor : public GridService {
 public:
  using HostCallback = std::function<void(HostId)>;

  HeartbeatMonitor(MessageBus* bus, HostId host, const DetectConfig& config);

  /// Registers a host to watch. Call before Activate().
  void Watch(HostId host, const Address& heartbeater);

  /// Binds the node the monitor runs on. When that node dies the Check()
  /// timer stops rescheduling — a dead coordinator's monitor must not
  /// keep the simulation alive (the standby's takeover owns the grid from
  /// then on, D14).
  void BindNode(GridNode* node) { node_ = node; }

  /// Reference-counted: the first Activate() opens a new watch epoch
  /// (commanding every heartbeater to start beating) and the matching
  /// last Deactivate() stops them. The GDQS activates per in-flight query.
  void Activate();
  void Deactivate();
  bool active() const { return active_count_ > 0; }

  /// Invoked on confirmed failure (wired to Gdqs::ReportNodeFailure).
  void set_on_confirm(HostCallback fn) { on_confirm_ = std::move(fn); }
  /// Invoked when a confirmed-failed host is heard from again.
  void set_on_readmit(HostCallback fn) { on_readmit_ = std::move(fn); }

  /// One watch epoch: from the first Activate() to the matching final
  /// Deactivate(); `end_ms` is +infinity while the epoch is still open.
  struct WatchWindow {
    SimTime start_ms = 0.0;
    SimTime end_ms = 0.0;
  };

  /// Every confirmation of a host, ascending, across all epochs. A dead
  /// host is confirmed again in each later epoch (Activate() resets every
  /// host to alive), and a false suspicion confirms a live one.
  const std::vector<SimTime>& ConfirmTimes(HostId host) const;
  /// Every watch epoch so far, oldest first.
  const std::vector<WatchWindow>& windows() const { return windows_; }
  /// True if the last-survivor guard withheld confirming this host in the
  /// current (or last) epoch.
  bool ConfirmSuppressed(HostId host) const;

  /// Current watch epoch (the standby mirrors it so its takeover can stop
  /// heartbeaters started by the dead primary's monitor).
  uint64_t epoch() const { return epoch_; }

  double MaxDetectionLatencyMs() const {
    return config_.MaxDetectionLatencyMs();
  }
  const DetectConfig& config() const { return config_; }
  const DetectStats& stats() const { return stats_; }

 protected:
  void HandleMessage(const Message& msg) override;

 private:
  enum class State { kAlive, kSuspect, kConfirmed };
  struct Watched {
    Address address;
    State state = State::kAlive;
    SimTime last_heard = 0.0;
    SimTime suspect_since = 0.0;
    /// EWMA of heartbeat inter-arrival times (and its variance).
    double mean_ms = 0.0;
    double var_ms2 = 0.0;
    uint64_t beats = 0;
    bool confirm_suppressed = false;
  };

  void Check();
  double SuspectTimeoutMs(const Watched& w) const;
  void SendControl(const Watched& w, bool start);

  DetectConfig config_;
  /// Node hosting this monitor (null: assumed immortal, legacy setups).
  GridNode* node_ = nullptr;
  /// std::map: deterministic iteration order for Check() and Activate().
  std::map<HostId, Watched> watched_;
  /// Confirmation and epoch history, preserved across epochs
  /// (detection-latency invariants read it after the run).
  std::map<HostId, std::vector<SimTime>> confirm_times_;
  std::vector<WatchWindow> windows_;
  int active_count_ = 0;
  uint64_t epoch_ = 0;
  bool check_scheduled_ = false;
  HostCallback on_confirm_;
  HostCallback on_readmit_;
  DetectStats stats_;
};

}  // namespace gqp

#endif  // GRIDQP_DETECT_MONITOR_H_
