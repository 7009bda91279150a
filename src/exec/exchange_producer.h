// Exchange producer: the upstream half of the paper's enhanced exchange
// operator. Owns the distribution policy, per-consumer buffers, checkpoint
// insertion, the recovery log, and the retrospective (R1) redistribution
// protocol. It is embedded in a FragmentExecutor, which supplies the
// messaging/work hooks.

#ifndef GRIDQP_EXEC_EXCHANGE_PRODUCER_H_
#define GRIDQP_EXEC_EXCHANGE_PRODUCER_H_

#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "exec/distribution_policy.h"
#include "exec/exchange_messages.h"
#include "exec/exec_config.h"
#include "exec/flow_control.h"
#include "ft/recovery_log.h"

namespace gqp {

/// A consumer endpoint of this exchange.
struct ConsumerEndpoint {
  SubplanId id;
  Address address;
};

/// Wiring of a fragment's output exchange.
struct OutputWiring {
  ExchangeDesc desc;
  std::vector<ConsumerEndpoint> consumers;
  std::vector<double> initial_weights;
  /// Expected number of input tuples (scan cardinality) for progress
  /// estimation; 0 = unknown.
  uint64_t estimated_rows = 0;
};

/// Producer-side counters.
struct ProducerStats {
  uint64_t tuples_offered = 0;
  /// Routed (buffered) per consumer; includes resends, and tuples later
  /// recalled from the buffer before any send.
  std::vector<uint64_t> tuples_to_consumer;
  /// Tuples actually handed to the network per consumer (counted when the
  /// flush work item completes on a live node). The chaos harness checks
  /// these against consumer-side receive counters: every tuple sent to a
  /// surviving consumer must arrive.
  std::vector<uint64_t> tuples_sent_to_consumer;
  uint64_t buffers_sent = 0;
  uint64_t resent_tuples = 0;
  uint64_t redistributions_applied = 0;
  uint64_t redistributions_rejected = 0;
};

/// \brief The producing half of an exchange.
class ExchangeProducer {
 public:
  /// Callbacks into the owning FragmentExecutor.
  struct Hooks {
    /// Sends a payload to consumer `idx` (over the bus).
    std::function<Status(int idx, PayloadPtr payload)> send;
    /// Charges exchange CPU work on the local node; `done` runs when the
    /// work completes (may be null for fire-and-forget accounting).
    std::function<void(double cost_ms, std::function<void()> done)>
        submit_work;
    /// Reports one sent buffer for M2 monitoring: consumer index, CPU send
    /// cost, tuple count and serialized size (the executor adds the
    /// network transfer time).
    std::function<void(int idx, double send_cost_ms, size_t tuples,
                       size_t wire_bytes)>
        on_buffer_sent;
    /// Reports completion of a redistribution round (to the Responder).
    std::function<void(uint64_t round, bool applied)> on_round_done;
    /// Reports output seqs acknowledged by consumers (drives cascading
    /// acknowledgments: an input tuple is only safe once every output
    /// derived from it is safe downstream).
    std::function<void(const std::vector<uint64_t>& seqs)> on_acked;
  };

  ExchangeProducer(SubplanId self, OutputWiring wiring, ExecConfig config,
                   Hooks hooks);

  /// Initializes the distribution policy.
  Status Open();

  /// Routes, logs and buffers one output tuple; flushes full buffers.
  /// Returns the sequence number assigned to the tuple.
  Result<uint64_t> Offer(const Tuple& tuple);

  /// Input exhausted: flush all buffers and send EOS (deferred while a
  /// retrospective round is in flight).
  Status FinishInput();

  /// Re-opens the stream after the fragment resumed (a recovery resend
  /// arrived post-completion): further Offers are accepted and EOS goes
  /// out again once the fragment re-finishes. Consumers track EOS markers
  /// as a set, so the repeated marker is harmless.
  void Reopen() {
    input_finished_ = false;
    eos_sent_ = false;
  }

  /// Handles an acknowledgment batch from a consumer.
  void OnAck(const AckPayload& ack);

  /// Responder asked for a redistribution (R1 or R2). Reports the outcome
  /// via hooks.on_round_done (synchronously for R2/rejections,
  /// asynchronously after the state-move dance for R1).
  Status HandleRedistribute(const RedistributeRequestPayload& request);

  /// Consumer reply of the in-flight R1 round.
  Status HandleStateMoveReply(const StateMoveReplyPayload& reply);

  /// Coordinator reported `consumer` crashed: stop sending to it and drop
  /// it from the in-flight round (it can never reply; waiting would
  /// deadlock the round and with it the recovery that must follow).
  /// Unknown consumers are ignored.
  Status HandleConsumerLost(const SubplanId& consumer);

  /// Coordinator epoch stamped into outgoing StateMoveRequests (D14);
  /// consumers fence rounds carrying a stale epoch after a failover.
  void set_coordinator_epoch(uint64_t epoch) { coordinator_epoch_ = epoch; }

  /// Flow control (D11): a consumer replenished credit. Returns true when
  /// the grant advanced the link's released counter (the owning executor
  /// should re-probe the driver — headroom may have appeared).
  bool OnCreditGrant(const CreditGrantPayload& grant);

  /// True when every live consumer link has credit headroom (always true
  /// with flow control off). The executor gates *starting* new input
  /// tuples on this; round resends and control traffic bypass it.
  bool HasCreditHeadroom() const { return credit_.HasHeadroom(); }
  void NoteCreditBlocked() { credit_.NoteBlocked(); }
  const CreditLedger& credit() const { return credit_; }

  /// Flow control: flushes every non-empty live-consumer buffer now.
  /// Called when the driver parks on exhausted credit — a window smaller
  /// than `buffer_tuples` would otherwise strand tuples in a buffer that
  /// never fills, and the credit they hold could never be granted back.
  Status FlushPartialBuffers();

  /// Fraction of the expected input already offered (1.0 once finished).
  double ProgressFraction() const;

  bool eos_sent() const { return eos_sent_; }
  bool input_finished() const { return input_finished_; }
  bool round_in_flight() const { return round_.has_value(); }
  size_t log_size() const { return log_.size(); }
  const RecoveryLog& log() const { return log_; }
  const ProducerStats& stats() const { return stats_; }
  const DistributionPolicy* policy() const { return policy_.get(); }
  int num_consumers() const {
    return static_cast<int>(wiring_.consumers.size());
  }

  /// One-line dump of the producer state (EOS, log, in-flight round) for
  /// stuck-query diagnostics.
  std::string DebugString() const;

 private:
  struct InFlightRound {
    uint64_t id = 0;
    /// Tuples offered after the policy switched to the new weights are
    /// already routed correctly; only log records below this watermark
    /// are recalled (otherwise a tuple sent under the new map would also
    /// be resent, duplicating it downstream).
    uint64_t recall_before_seq = 0;
    /// Buckets each consumer loses / gains (hash policies).
    std::vector<std::vector<int>> lost;
    std::vector<std::vector<int>> gained;
    bool purge_all = false;
    /// Failure-recovery round: recall is not bucket-scoped (a crashed
    /// consumer may have held records of buckets that since migrated
    /// away); every record a surviving consumer does not claim in its
    /// reply is resent.
    bool recovery = false;
    /// Consumers whose StateMoveReply is still outstanding.
    std::set<int> awaiting_reply;
    /// Producer-local round number stamped into LogRecord::round_claim by
    /// this round's replies. Round ids come from the Responder, which a
    /// coordinator failover restarts, so they cannot key the claims.
    uint64_t claim = 0;
  };

  /// Flushes consumer `idx`'s buffer as one TupleBatch message.
  Status Flush(int idx, bool resend);

  /// Sends EOS markers to every consumer.
  Status SendEos();

  /// All replies arrived: extract, re-route and resend logged tuples, then
  /// send RestoreComplete markers and finish the round.
  Status CompleteRound();

  Status RouteAndBuffer(const Tuple& tuple, uint64_t seq, bool resend);

  SubplanId self_;
  OutputWiring wiring_;
  ExecConfig config_;
  Hooks hooks_;
  std::unique_ptr<DistributionPolicy> policy_;
  RecoveryLog log_;
  CreditLedger credit_;

  uint64_t next_seq_ = 1;
  /// Id of the latest retrospective round opened here; stamped on every
  /// outgoing batch. Consumers use it to fence their state-move purge
  /// against tuples already routed under the round's new map (which the
  /// recall_before_seq watermark excludes from resending).
  uint64_t round_epoch_ = 0;
  /// Coordinator epoch of this deployment, stamped on StateMoveRequests
  /// so post-failover fences can reject rounds of a deposed primary.
  uint64_t coordinator_epoch_ = 0;
  std::vector<std::vector<RoutedTuple>> buffers_;
  /// CPU cost accumulated per consumer since its last flush (routing/log
  /// appends), charged with the flush work item.
  std::vector<double> pending_overhead_ms_;
  bool input_finished_ = false;
  bool eos_sent_ = false;
  std::optional<InFlightRound> round_;
  /// Crashed consumers: never routed to, never flushed to, never awaited.
  std::set<int> dead_consumers_;
  /// R1 rounds opened here (the last InFlightRound::claim handed out).
  uint64_t rounds_opened_ = 0;
  ProducerStats stats_;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_EXCHANGE_PRODUCER_H_
