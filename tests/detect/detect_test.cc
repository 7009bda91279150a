#include "detect/monitor.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chaos/invariants.h"
#include "detect/heartbeater.h"
#include "grid/node.h"
#include "rpc/message_bus.h"

namespace gqp {
namespace {

/// Coordinator on host 0 watching two evaluator hosts (2 and 3). Two
/// hosts, so the last-survivor guard does not interfere with single-crash
/// tests.
class DetectTest : public ::testing::Test {
 protected:
  DetectTest()
      : network_(&sim_, LinkParams{0.1, 100000.0}),
        bus_(&network_),
        node2_(&sim_, 2, "e0"),
        node3_(&sim_, 3, "e1") {
    DetectConfig config;
    config.enabled = true;
    config.heartbeat_interval_ms = 5.0;
    monitor_ = std::make_unique<HeartbeatMonitor>(&bus_, 0, config);
    hb2_ = std::make_unique<Heartbeater>(&bus_, &node2_, monitor_->address());
    hb3_ = std::make_unique<Heartbeater>(&bus_, &node3_, monitor_->address());
    EXPECT_TRUE(monitor_->Start().ok());
    EXPECT_TRUE(hb2_->Start().ok());
    EXPECT_TRUE(hb3_->Start().ok());
    monitor_->Watch(2, hb2_->address());
    monitor_->Watch(3, hb3_->address());
    monitor_->set_on_confirm([this](HostId h) { confirms_.push_back(h); });
    monitor_->set_on_readmit([this](HostId h) { readmits_.push_back(h); });
  }

  void Crash(GridNode* node) {
    node->Kill();
    network_.SetHostDown(node->id());
  }

  /// Deactivates the detector and drains the simulation.
  void Finish() {
    monitor_->Deactivate();
    sim_.RunToCompletion();
  }

  Simulator sim_;
  Network network_;
  MessageBus bus_;
  GridNode node2_;
  GridNode node3_;
  std::unique_ptr<HeartbeatMonitor> monitor_;
  std::unique_ptr<Heartbeater> hb2_;
  std::unique_ptr<Heartbeater> hb3_;
  std::vector<HostId> confirms_;
  std::vector<HostId> readmits_;
};

/// Invariant (e) for one crash of evaluator 0 (host 2) at `at_ms`.
std::vector<std::string> DetectionViolations(const HeartbeatMonitor& monitor,
                                             double at_ms) {
  chaos::ChaosScenario scenario;
  scenario.failures.push_back(chaos::FailureEvent{at_ms, 0});
  std::vector<std::string> violations;
  chaos::CheckDetection(&monitor, scenario, &violations);
  return violations;
}

TEST_F(DetectTest, HealthyHostsAreNeverSuspected) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(300.0).ok());
  Finish();
  EXPECT_EQ(monitor_->stats().suspicions_raised, 0u);
  EXPECT_EQ(monitor_->stats().failures_confirmed, 0u);
  // Two hosts beating every 5 ms for 300 ms.
  EXPECT_GT(monitor_->stats().heartbeats_received, 100u);
  EXPECT_TRUE(confirms_.empty());
}

TEST_F(DetectTest, CrashIsConfirmedWithinTheLatencyBound) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(100.0).ok());
  Crash(&node2_);
  const double deadline = 100.0 + monitor_->MaxDetectionLatencyMs();
  ASSERT_TRUE(sim_.Run(deadline + 20.0).ok());
  EXPECT_EQ(confirms_, (std::vector<HostId>{2}));
  ASSERT_EQ(monitor_->ConfirmTimes(2).size(), 1u);
  EXPECT_LE(monitor_->ConfirmTimes(2).front(), deadline);
  EXPECT_EQ(monitor_->stats().failures_confirmed, 1u);
  Finish();
}

TEST_F(DetectTest, BriefStallRaisesThenClearsSuspicion) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(100.0).ok());
  // Four missed beats: enough silence to suspect (the EWMA timeout clamps
  // at min_suspect_intervals = 3 beats), not enough to confirm (3 more).
  hb2_->Stall(120.0);
  ASSERT_TRUE(sim_.Run(200.0).ok());
  Finish();
  EXPECT_GE(monitor_->stats().suspicions_raised, 1u);
  EXPECT_GE(monitor_->stats().suspicions_cleared, 1u);
  EXPECT_EQ(monitor_->stats().failures_confirmed, 0u);
  EXPECT_TRUE(confirms_.empty());
  EXPECT_GT(hb2_->beats_suppressed(), 0u);
}

TEST_F(DetectTest, LongStallConfirmsThenReadmits) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(100.0).ok());
  // Silent for 100 ms — far beyond the 55 ms worst-case bound — while the
  // node stays alive: the false-suspicion scenario. The detector must
  // confirm, then re-admit once beats resume.
  hb2_->Stall(200.0);
  ASSERT_TRUE(sim_.Run(300.0).ok());
  Finish();
  EXPECT_EQ(confirms_, (std::vector<HostId>{2}));
  EXPECT_EQ(readmits_, (std::vector<HostId>{2}));
  EXPECT_EQ(monitor_->stats().readmissions, 1u);
  EXPECT_FALSE(node2_.dead());
}

TEST_F(DetectTest, LastSurvivorGuardWithholdsTheFinalConfirmation) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(100.0).ok());
  Crash(&node2_);
  Crash(&node3_);
  ASSERT_TRUE(sim_.Run(300.0).ok());
  Finish();
  // Only one of the two may be confirmed: confirming the last unconfirmed
  // host would leave the query with no evaluator to recover onto.
  EXPECT_EQ(monitor_->stats().failures_confirmed, 1u);
  EXPECT_GE(monitor_->stats().confirms_suppressed, 1u);
  EXPECT_EQ(confirms_.size(), 1u);
  EXPECT_TRUE(monitor_->ConfirmSuppressed(2) || monitor_->ConfirmSuppressed(3));
}

TEST_F(DetectTest, StaleEpochHeartbeatsAreFenced) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(50.0).ok());
  // A beat from a previous watch epoch (e.g. delayed in a partition) must
  // not refresh liveness state.
  ASSERT_TRUE(bus_.Send(Address{2, "ghost"}, monitor_->address(),
                        std::make_shared<HeartbeatPayload>(2, 1, 0))
                  .ok());
  ASSERT_TRUE(sim_.Run(60.0).ok());
  Finish();
  EXPECT_GE(monitor_->stats().stale_heartbeats, 1u);
}

// Invariant (e) over several watch epochs (the GDQS deactivates the
// detector whenever no query is in flight).

TEST_F(DetectTest, IdleGapCrashIsTimedFromReactivation) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(50.0).ok());
  monitor_->Deactivate();
  ASSERT_TRUE(sim_.Run(100.0).ok());
  Crash(&node2_);  // nobody is watching
  ASSERT_TRUE(sim_.Run(200.0).ok());
  EXPECT_TRUE(monitor_->ConfirmTimes(2).empty());
  // No epoch after the crash yet, so nothing could have confirmed it.
  EXPECT_TRUE(DetectionViolations(*monitor_, 100.0).empty());

  monitor_->Activate();
  const double budget = monitor_->MaxDetectionLatencyMs();
  ASSERT_TRUE(sim_.Run(200.0 + budget + 20.0).ok());
  Finish();
  ASSERT_EQ(monitor_->ConfirmTimes(2).size(), 1u);
  const double confirmed = monitor_->ConfirmTimes(2).front();
  // Late measured from the crash, in time measured from reactivation.
  EXPECT_GT(confirmed, 100.0 + budget);
  EXPECT_LE(confirmed, 200.0 + budget);
  EXPECT_TRUE(DetectionViolations(*monitor_, 100.0).empty());
}

TEST_F(DetectTest, ReconfirmationInALaterEpochDoesNotMaskTheFirst) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(100.0).ok());
  Crash(&node2_);
  const double budget = monitor_->MaxDetectionLatencyMs();
  ASSERT_TRUE(sim_.Run(100.0 + budget + 20.0).ok());
  monitor_->Deactivate();
  ASSERT_TRUE(sim_.Run(300.0).ok());
  // Activate() resets every host to alive: the dead host is confirmed
  // again in the new epoch.
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(300.0 + budget + 20.0).ok());
  Finish();
  const std::vector<SimTime>& confirms = monitor_->ConfirmTimes(2);
  ASSERT_EQ(confirms.size(), 2u);
  EXPECT_LE(confirms.front(), 100.0 + budget);
  EXPECT_GT(confirms.back(), 100.0 + budget);
  EXPECT_TRUE(DetectionViolations(*monitor_, 100.0).empty());
}

TEST_F(DetectTest, ConfirmationBeforeTheCrashDoesNotCount) {
  monitor_->Activate();
  ASSERT_TRUE(sim_.Run(100.0).ok());
  // A long stall: the live host is confirmed (false suspicion), then
  // readmitted when its beats resume at 200 ms.
  hb2_->Stall(200.0);
  ASSERT_TRUE(sim_.Run(400.0).ok());
  Finish();
  ASSERT_EQ(monitor_->ConfirmTimes(2).size(), 1u);
  ASSERT_EQ(readmits_, (std::vector<HostId>{2}));
  // A crash recorded at 250 ms, which the detector never confirmed: the
  // earlier false confirmation must not satisfy the check, though it
  // lies before the deadline.
  const std::vector<std::string> violations =
      DetectionViolations(*monitor_, 250.0);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_NE(violations[0].find("never confirmed"), std::string::npos)
      << violations[0];
}

}  // namespace
}  // namespace gqp
