// Recovery log: the fault-tolerance substrate (after Smith & Watson,
// CS-TR-893) that the paper reuses for retrospective (R1) state
// repartitioning. Exchange producers append every outgoing tuple; records
// are pruned when acknowledgment tuples return from consumers. At any
// instant the log therefore holds exactly the tuples that are in transit,
// queued unprocessed at consumers, or resident in downstream operator
// state — the set R1 redistributes.

#ifndef GRIDQP_FT_RECOVERY_LOG_H_
#define GRIDQP_FT_RECOVERY_LOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "storage/tuple.h"

namespace gqp {

/// One logged outgoing tuple.
struct LogRecord {
  /// Producer-global sequence number (unique per producer instance).
  uint64_t seq = 0;
  /// Logical partition bucket (hash policies) or -1 (round-robin policies).
  int bucket = -1;
  /// Consumer index the tuple was sent to.
  int consumer = -1;
  Tuple tuple;
  /// Sticky processed claim: the consumer whose StateMoveReply reported
  /// this record processed, or -1. Its outputs hold the record's results
  /// while it lives, so no later round recalls the record, not even a
  /// round that does not consult that consumer (its bucket moved on).
  int claimed_by = -1;
  /// Per-round claim: the producer-local number of the round whose reply
  /// reported this record processed or retained, or 0. Retained claims
  /// are only as durable as bucket ownership, so this suppresses recall
  /// in that round only.
  uint64_t round_claim = 0;
};

/// Aggregate counters for overhead reporting.
struct RecoveryLogStats {
  uint64_t appended = 0;
  uint64_t acked = 0;
  uint64_t extracted = 0;
  size_t high_watermark = 0;
  /// Bytes of tuple payload currently held (Tuple::WireSize is memoized,
  /// so the charge/reclaim symmetry is exact even across Reinsert).
  uint64_t bytes_held = 0;
  uint64_t bytes_peak = 0;
};

/// \brief Per-producer log of unacknowledged outgoing tuples.
class RecoveryLog {
 public:
  /// Appends a record. Sequence numbers must be strictly increasing.
  void Append(LogRecord record);

  /// Removes a record upon acknowledgment. Unknown seqs are ignored
  /// (acks may race with retrospective extraction).
  void Ack(uint64_t seq);

  /// Removes a batch of acknowledged records.
  void AckBatch(const std::vector<uint64_t>& seqs);

  /// \brief Extracts (removes and returns) all records matching `pred`,
  /// in sequence order.
  ///
  /// R1 redistribution uses this to pull back the tuples whose partition
  /// assignment changed.
  std::vector<LogRecord> Extract(
      const std::function<bool(const LogRecord&)>& pred);

  /// Extracts every record (round-robin policies redistribute all
  /// unprocessed tuples).
  std::vector<LogRecord> ExtractAll();

  /// \brief Marks the records a StateMoveReply names, in one ordered walk.
  ///
  /// `seqs` must be ascending. Each named record still in the log gets
  /// `round_claim = round` and, when `consumer >= 0` (a processed claim),
  /// `claimed_by = consumer`. Seqs no longer in the log were acknowledged
  /// and are skipped. The walk starts at the oldest record, so its cost is
  /// the named seqs from there on plus the records up to the last of them.
  void Claim(const std::vector<uint64_t>& seqs, uint64_t round, int consumer);

  /// Re-inserts a record after re-routing (it is still unacknowledged, now
  /// owned by a different consumer). It comes back unclaimed: no consumer
  /// has reported processing it under its new routing.
  void Reinsert(LogRecord record);

  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  bool Contains(uint64_t seq) const { return records_.count(seq) > 0; }
  /// The record of `seq`, or null when it is not in the log.
  const LogRecord* Find(uint64_t seq) const {
    const auto it = records_.find(seq);
    return it == records_.end() ? nullptr : &it->second;
  }
  const RecoveryLogStats& stats() const { return stats_; }

  /// Sequence numbers still unacknowledged, ascending. A query that ran to
  /// completion must leave every producer log empty; the chaos harness
  /// reports the stranded seqs when that invariant breaks.
  std::vector<uint64_t> PendingSeqs() const;

  /// Pending (seq, consumer index) pairs, ascending by seq. The chaos
  /// invariants exempt entries whose consumer died unreported: their acks
  /// were abandoned and the retained copy is the at-least-once insurance.
  std::vector<std::pair<uint64_t, int>> PendingConsumers() const;

 private:
  std::map<uint64_t, LogRecord> records_;
  RecoveryLogStats stats_;
};

/// \brief Consumer-side acknowledgment batching.
///
/// Consumers acknowledge at checkpoint granularity: processed sequence
/// numbers accumulate and are drained every `checkpoint_interval` tuples
/// (or explicitly at end-of-stream), mirroring the paper's checkpoint /
/// acknowledgment-tuple protocol.
class AckBatcher {
 public:
  explicit AckBatcher(size_t checkpoint_interval)
      : interval_(checkpoint_interval == 0 ? 1 : checkpoint_interval) {}

  /// Records a processed tuple. Returns true when a checkpoint boundary is
  /// reached and Drain() should be sent upstream.
  bool Add(uint64_t seq);

  /// Returns and clears the pending acknowledgment batch.
  std::vector<uint64_t> Drain();

  /// Discards a pending seq (the tuple was recalled before its ack went
  /// out; the producer will resend it elsewhere).
  void Remove(uint64_t seq);

  size_t pending() const { return pending_.size(); }

  /// Seqs currently awaiting acknowledgment (used in StateMove replies so
  /// producers do not resend tuples that were already processed).
  const std::vector<uint64_t>& pending_seqs() const { return pending_; }

 private:
  size_t interval_;
  std::vector<uint64_t> pending_;
};

}  // namespace gqp

#endif  // GRIDQP_FT_RECOVERY_LOG_H_
