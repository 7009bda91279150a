#include "detect/monitor.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/logging.h"
#include "grid/node.h"

namespace gqp {
namespace {

/// EWMA weight for the inter-arrival estimator. Light enough to smooth
/// per-beat jitter, heavy enough to adapt within a handful of beats when
/// loss stretches the observed gaps.
constexpr double kAlpha = 0.2;

}  // namespace

HeartbeatMonitor::HeartbeatMonitor(MessageBus* bus, HostId host,
                                   const DetectConfig& config)
    : GridService(bus, host, "detect"), config_(config) {}

void HeartbeatMonitor::Watch(HostId host, const Address& heartbeater) {
  Watched w;
  w.address = heartbeater;
  watched_[host] = w;
}

void HeartbeatMonitor::Activate() {
  if (++active_count_ > 1) return;
  ++epoch_;
  const SimTime now = simulator()->Now();
  windows_.push_back(WatchWindow{now, kSimTimeInfinity});
  for (auto& [host, w] : watched_) {
    w.state = State::kAlive;
    w.last_heard = now;
    w.suspect_since = 0.0;
    w.mean_ms = 0.0;
    w.var_ms2 = 0.0;
    w.beats = 0;
    w.confirm_suppressed = false;
    SendControl(w, /*start=*/true);
  }
  if (!check_scheduled_) {
    check_scheduled_ = true;
    simulator()->Schedule(config_.heartbeat_interval_ms / 2.0,
                          [this] { Check(); });
  }
}

void HeartbeatMonitor::Deactivate() {
  if (active_count_ == 0) return;
  if (--active_count_ > 0) return;
  windows_.back().end_ms = simulator()->Now();
  for (auto& [host, w] : watched_) {
    // Every watched host gets the stop — including confirmed ones. A
    // confirmation can be FALSE (stalled or partitioned, not dead): such
    // a host is still beating and would beat forever without the stop.
    // For a genuinely dead host the transport abandons the retries.
    SendControl(w, /*start=*/false);
  }
}

void HeartbeatMonitor::SendControl(const Watched& w, bool start) {
  // Rides the reliable transport (plain SendTo): start/stop must arrive
  // or a heartbeater would beat forever / never begin.
  (void)SendTo(w.address, std::make_shared<HeartbeatControlPayload>(
                              start, epoch_, config_.heartbeat_interval_ms));
}

double HeartbeatMonitor::SuspectTimeoutMs(const Watched& w) const {
  const double interval = config_.heartbeat_interval_ms;
  if (w.beats < 2) return config_.max_suspect_intervals * interval;
  const double sd = std::sqrt(std::max(w.var_ms2, 0.0));
  return std::clamp(w.mean_ms + config_.phi_k * sd,
                    config_.min_suspect_intervals * interval,
                    config_.max_suspect_intervals * interval);
}

void HeartbeatMonitor::Check() {
  check_scheduled_ = false;
  if (active_count_ == 0) return;  // stop rescheduling: drains the sim
  // The monitor dies with its host: a killed coordinator must not keep
  // scanning (or keep the simulation alive) — the standby takes over.
  if (node_ != nullptr && node_->dead()) return;
  const SimTime now = simulator()->Now();
  size_t unconfirmed = 0;
  for (const auto& [host, w] : watched_) {
    if (w.state != State::kConfirmed) ++unconfirmed;
  }
  for (auto& [host, w] : watched_) {
    if (w.state == State::kConfirmed) continue;
    const double silence = now - w.last_heard;
    if (w.state == State::kAlive) {
      if (silence > SuspectTimeoutMs(w)) {
        w.state = State::kSuspect;
        w.suspect_since = now;
        ++stats_.suspicions_raised;
        GQP_LOG_DEBUG << "detect: host " << host << " suspected at " << now
                      << " after " << silence << "ms of silence";
      }
    }
    if (w.state == State::kSuspect &&
        now - w.suspect_since >=
            config_.confirm_intervals * config_.heartbeat_interval_ms) {
      if (unconfirmed <= 1 && !config_.allow_last_survivor_confirm) {
        // Last-survivor guard: confirming the only remaining evaluator
        // would leave recovery with nowhere to move work. Keep suspecting;
        // either a beat clears it or the query stalls and the harness's
        // termination invariant reports it.
        if (!w.confirm_suppressed) {
          w.confirm_suppressed = true;
          ++stats_.confirms_suppressed;
        }
        continue;
      }
      w.state = State::kConfirmed;
      --unconfirmed;
      ++stats_.failures_confirmed;
      confirm_times_[host].push_back(now);
      GQP_LOG_DEBUG << "detect: host " << host << " confirmed failed at "
                    << now;
      if (on_confirm_) on_confirm_(host);
    }
  }
  check_scheduled_ = true;
  simulator()->Schedule(config_.heartbeat_interval_ms / 2.0,
                        [this] { Check(); });
}

void HeartbeatMonitor::HandleMessage(const Message& msg) {
  const auto* hb = PayloadAs<HeartbeatPayload>(msg.payload);
  if (hb == nullptr) return;
  if (hb->epoch() != epoch_) {
    ++stats_.stale_heartbeats;
    return;
  }
  auto it = watched_.find(hb->host());
  if (it == watched_.end()) return;
  Watched& w = it->second;
  ++stats_.heartbeats_received;

  const SimTime now = simulator()->Now();
  if (w.beats > 0) {
    const double gap = now - w.last_heard;
    if (w.beats == 1) {
      w.mean_ms = gap;
    } else {
      const double d = gap - w.mean_ms;
      w.mean_ms += kAlpha * d;
      w.var_ms2 += kAlpha * (d * d - w.var_ms2);
    }
  }
  w.last_heard = now;
  ++w.beats;

  if (w.state == State::kSuspect) {
    w.state = State::kAlive;
    w.suspect_since = 0.0;
    w.confirm_suppressed = false;
    ++stats_.suspicions_cleared;
    GQP_LOG_DEBUG << "detect: host " << hb->host()
                  << " cleared suspicion at " << now;
  } else if (w.state == State::kConfirmed) {
    // It was never dead — partitioned or stalled. Its old outputs are
    // fenced by the recovery protocol; from here on it is fresh capacity.
    w.state = State::kAlive;
    w.suspect_since = 0.0;
    ++stats_.readmissions;
    GQP_LOG_DEBUG << "detect: host " << hb->host() << " re-admitted at "
                  << now;
    if (on_readmit_) on_readmit_(hb->host());
  }
}

const std::vector<SimTime>& HeartbeatMonitor::ConfirmTimes(
    HostId host) const {
  static const std::vector<SimTime> kNone;
  auto it = confirm_times_.find(host);
  return it == confirm_times_.end() ? kNone : it->second;
}

bool HeartbeatMonitor::ConfirmSuppressed(HostId host) const {
  auto it = watched_.find(host);
  return it != watched_.end() && it->second.confirm_suppressed;
}

}  // namespace gqp
