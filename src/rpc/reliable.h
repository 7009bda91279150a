// Reliable at-least-once delivery over the lossy network model: every
// remote bus message is wrapped in a sequenced envelope, acknowledged by
// the receiving transport, and retransmitted on timeout with capped
// exponential backoff plus seeded jitter. The receiver deduplicates by
// (sender host, receiver host, seq) and releases messages strictly in
// sequence order, so the per-link FIFO contract the exchange protocol
// relies on (DESIGN.md §D7) survives message loss: the delivered stream
// between any two hosts is exactly the sent stream.
//
// End-to-end durability of data tuples still comes from the exchange
// ack/recovery-log path — transport acks only drive retransmission and are
// never a correctness proof across crashes. Heartbeats bypass this layer
// entirely (MessageBus::SendBestEffort): their loss IS the failure signal.

#ifndef GRIDQP_RPC_RELIABLE_H_
#define GRIDQP_RPC_RELIABLE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/network.h"

namespace gqp {

/// Knobs of the acknowledged-send layer.
struct ReliableConfig {
  /// Off by default: legacy (loss-free) setups keep raw network sends and
  /// byte-identical schedules.
  bool enabled = false;
  /// First retransmission timeout.
  double base_rto_ms = 4.0;
  /// Backoff cap: rto_n = min(base * 2^n, max) + jitter.
  double max_rto_ms = 50.0;
  /// Uniform jitter in [0, jitter_frac * rto), drawn from a seeded RNG so
  /// retransmission schedules replay deterministically.
  double jitter_frac = 0.25;
  /// Retransmissions before a pending message is abandoned. Loss rates are
  /// bounded (<= ~5%) and partitions heal, so this is a safety net; the
  /// common abandonment cause is the destination host going down.
  int max_retries = 64;
  uint64_t jitter_seed = 0x0e77a11eULL;
};

/// Transport counters (chaos diagnostics and the overhead bench).
struct ReliableStats {
  /// First transmissions of wrapped messages.
  uint64_t sent = 0;
  uint64_t retransmits = 0;
  /// Retransmissions whose RTO grew (i.e. the exponential backoff actually
  /// engaged — a proxy for sustained loss rather than a one-off drop).
  uint64_t backoffs = 0;
  uint64_t acks_sent = 0;
  uint64_t acks_received = 0;
  /// Duplicate envelopes discarded by receiver-side dedup.
  uint64_t dedup_hits = 0;
  /// Inner messages released (in order) to endpoint dispatch.
  uint64_t delivered = 0;
  /// Pendings dropped: destination/source host down or retries exhausted.
  uint64_t abandoned = 0;
};

/// Best-effort query attribution of a bus message, from the service
/// naming conventions: fragment endpoints are "q<N>.f<F>.i<I>" and the
/// per-query adaptivity services end in ".q<N>" ("diagnoser.q<N>",
/// "responder.q<N>"). Checks the destination first, then the sender
/// (e.g. an M1 from "q1.f2.i0" to the shared "med" endpoint belongs to
/// query 1). Returns 0 for unattributable traffic (deploy control,
/// transport internals).
int QueryOf(const Message& msg);

/// Wraps one bus message with its channel sequence number. The outer
/// Message keeps the original from/to addresses; the transport intercepts
/// by payload type before endpoint dispatch.
class ReliableEnvelopePayload : public Payload {
 public:
  ReliableEnvelopePayload(uint64_t seq, PayloadPtr inner)
      : seq_(seq), inner_(std::move(inner)) {}

  size_t WireSize() const override {
    return 16 + (inner_ ? inner_->WireSize() : 0);
  }
  std::string_view TypeName() const override { return "ReliableEnvelope"; }

  uint64_t seq() const { return seq_; }
  const PayloadPtr& inner() const { return inner_; }

 private:
  uint64_t seq_;
  PayloadPtr inner_;
};

/// Transport-level acknowledgment of one envelope. Sent best-effort (an
/// acked duplicate re-acks, so ack loss only costs a retransmission).
class ReliableAckPayload : public Payload {
 public:
  explicit ReliableAckPayload(uint64_t seq) : seq_(seq) {}

  size_t WireSize() const override { return 16; }
  std::string_view TypeName() const override { return "ReliableAck"; }

  uint64_t seq() const { return seq_; }

 private:
  uint64_t seq_;
};

/// \brief The acknowledged-send layer, one per MessageBus.
///
/// Channels are directed host pairs; each carries its own seq space, its
/// own retransmission state on the sender, and its own in-order release
/// cursor on the receiver.
class ReliableTransport {
 public:
  using DeliverFn = std::function<void(const Message&)>;

  /// `deliver` releases an unwrapped message to endpoint dispatch.
  ReliableTransport(Network* network, const ReliableConfig& config,
                    DeliverFn deliver);

  ReliableTransport(const ReliableTransport&) = delete;
  ReliableTransport& operator=(const ReliableTransport&) = delete;

  /// Wraps and sends a remote message, scheduling retransmissions until
  /// the receiving transport acknowledges it.
  Status Send(Message msg);

  /// Consumes transport payloads (envelopes and acks). Returns false for
  /// application messages, which the bus dispatches normally.
  bool MaybeHandle(const Message& msg);

  /// Envelopes awaiting acknowledgment across all channels.
  size_t pending() const;

  /// Bus-wide totals, over every query and control message.
  const ReliableStats& stats() const;
  /// Counters of one query's traffic only, attributed via QueryOf at send
  /// time (retransmissions and acks inherit the envelope's attribution).
  /// Exact per query even with several queries on the bus; query 0 holds
  /// unattributable control traffic.
  const ReliableStats& stats_for_query(int query) const;

 private:
  struct Pending {
    Message envelope;
    double rto_ms = 0.0;
    int retries = 0;
    /// Query attributed at send time (0: control traffic).
    int query = 0;
    EventId timer = kInvalidEventId;
  };
  struct SenderChannel {
    uint64_t next_seq = 1;
    std::map<uint64_t, Pending> pending;
  };
  struct ReceiverChannel {
    uint64_t next_expected = 1;
    /// Out-of-order arrivals held back until the gap fills.
    std::map<uint64_t, Message> holdback;
  };
  /// One host's slice of the transport. Sender maps are keyed by the
  /// destination host (this host is the source); receiver maps by the
  /// source host (this host is the destination).
  struct HostState {
    std::map<HostId, SenderChannel> senders;
    std::map<HostId, ReceiverChannel> receivers;
    ReliableStats stats;
    std::map<int, ReliableStats> by_query;
  };

  HostState& ForHost(HostId host);

  /// The per-query slice of `host`'s stats (created on first use).
  ReliableStats& QueryStats(HostId host, int query) {
    return ForHost(host).by_query[query];
  }

  void ScheduleRetransmit(HostId src, HostId dst, uint64_t seq);
  void OnTimeout(HostId src, HostId dst, uint64_t seq);
  void OnEnvelope(const Message& msg, const ReliableEnvelopePayload& env);
  void OnAck(const Message& msg, const ReliableAckPayload& ack);

  Network* network_;
  ReliableConfig config_;
  DeliverFn deliver_;
  Rng jitter_rng_;
  /// Indexed by HostId; grown lazily by ForHost.
  std::vector<std::unique_ptr<HostState>> hosts_;
  mutable ReliableStats merged_stats_;
  mutable std::map<int, ReliableStats> merged_by_query_;
};

}  // namespace gqp

#endif  // GRIDQP_RPC_RELIABLE_H_
