// Fault-tolerance state of a fragment instance (DESIGN.md §D12): which
// input tuples were processed or retained in operator state, when their
// acknowledgments may go upstream (the cascading-checkpoint protocol),
// and the bookkeeping of the state-move/recovery rounds that park, purge
// and restore partition state. The composition root (FragmentExecutor)
// drives the protocol; this component owns every durable decision about
// "is this tuple still needed".

#ifndef GRIDQP_EXEC_STATE_MANAGER_H_
#define GRIDQP_EXEC_STATE_MANAGER_H_

#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "exec/coordinator_epoch.h"
#include "exec/exchange_messages.h"
#include "exec/instance_plan.h"
#include "ft/recovery_log.h"
#include "grid/node.h"

namespace gqp {

class OperatorDriver;
class PortQueueManager;

class StateManager {
 public:
  struct Hooks {
    /// Delivers an acknowledgment batch over the bus.
    std::function<Status(const Address&, PayloadPtr)> send_to;
    /// Reports an acknowledgment-send failure to the executor.
    std::function<void(const Status&)> fail;
  };

  StateManager(GridNode* node, const ExecConfig* config,
               const SubplanId& self, FragmentStats* stats, Hooks hooks);
  ~StateManager();

  void AddPort();
  /// Ensures tracking exists for the producer link (same registration
  /// order as PortQueueManager, so producer-map iteration stays aligned
  /// with the pre-split executor).
  void RegisterProducer(int port, const std::string& key,
                        const Address& address, int exchange_id);

  // --- processed / retained / acknowledgment cascade --------------------
  /// Records the outcome of one processed input tuple. Retained
  /// (state-resident) tuples are acknowledged only once the fragment has
  /// finished and its outputs are durable downstream (AckAllRetained);
  /// until then they are the recovery copy of the state. Non-retained
  /// tuples enter the processed set immediately (state moves must not
  /// resend them) but their acknowledgment cascades: it is sent only once
  /// all outputs derived from the tuple are acknowledged downstream.
  void RecordProcessed(int port, const std::string& key, uint64_t seq,
                       int bucket, bool retained,
                       const std::vector<uint64_t>& output_seqs,
                       bool has_producer, bool finished);
  /// Marks an input tuple safe (enqueues its acknowledgment).
  void AckInput(int port, const std::string& key, uint64_t seq,
                bool finished);
  /// Cascading acknowledgments: outputs acked downstream release inputs.
  void OnOutputsAcked(const std::vector<uint64_t>& seqs, bool finished);
  /// Releases every retained input (the fragment finished and its
  /// recovery log drained: outputs are durable).
  void AckAllRetained();
  void FlushAcks(int port, const std::string& key, bool force);
  /// Force-flushes every producer's pending acknowledgments (completion).
  void FlushAllAcks();

  /// Installs the instance's coordinator-epoch fence (D14). Null: every
  /// round admitted.
  void set_epoch_guard(CoordinatorEpochGuard* guard) { epoch_guard_ = guard; }

  // --- state-move / recovery rounds -------------------------------------
  /// Applies a producer's StateMoveRequest (the state-move/purge
  /// protocol): opens the round, purges in-scope queued tuples (releasing
  /// their credit), freezes/thaws/awaits buckets on stateful fragments,
  /// and replies with the seqs this consumer already holds. The caller
  /// has already fenced stale requests and registered the producer;
  /// rounds stamped with a stale coordinator epoch are dropped here (a
  /// deposed primary's recovery must not purge state, D14).
  void ApplyStateMove(const StateMoveRequestPayload& request,
                      const std::string& key, const Address& from,
                      bool stateful, PortQueueManager* queues,
                      OperatorDriver* driver);
  /// Applies a producer's RestoreComplete marker: closes the round and,
  /// on the build port, clears restored buckets and unparks probe tuples
  /// that became runnable. The caller has already fenced stale markers.
  void ApplyRestoreComplete(const RestoreCompletePayload& restore,
                            const std::string& key, bool stateful,
                            PortQueueManager* queues);

  void OpenRound(const std::string& key, uint64_t round);
  void CloseRound(const std::string& key, uint64_t round);
  /// Abandons a lost producer's open rounds: no RestoreComplete will ever
  /// arrive, and the replacement delivery comes through recovery.
  void AbandonProducer(const std::string& key);
  bool rounds_open() const { return !open_state_rounds_.empty(); }
  /// No state-move activity in flight (completion precondition).
  bool quiescent() const {
    return awaiting_restore_.empty() && open_state_rounds_.empty();
  }

  void BeginBuildRecovery(const std::string& key, uint64_t round);
  void EndBuildRecovery(const std::string& key, uint64_t round);
  bool build_recovery_empty() const { return build_recovery_rounds_.empty(); }

  void Freeze(int bucket) { frozen_lost_.insert(bucket); }
  void Thaw(int bucket) { frozen_lost_.erase(bucket); }
  bool Frozen(int bucket) const { return frozen_lost_.count(bucket) > 0; }
  void AwaitRestore(int bucket) { awaiting_restore_.insert(bucket); }
  void RestoreBucket(int bucket) { awaiting_restore_.erase(bucket); }
  void ClearAwaitingRestore() { awaiting_restore_.clear(); }
  bool AwaitingRestore(int bucket) const {
    return awaiting_restore_.count(bucket) > 0;
  }
  size_t awaiting_restore_count() const { return awaiting_restore_.size(); }
  size_t frozen_count() const { return frozen_lost_.size(); }

  /// Drops retained entries whose bucket state was purged (moved away):
  /// the bucket's new owner becomes responsible for them, and forgetting
  /// them keeps a later ack of ours from pruning the producer's only
  /// copy.
  void PruneRetained(int port, const std::string& key,
                     const std::vector<int>& buckets_lost);
  /// Sorted processed seqs + sorted retained seqs of kept buckets, for a
  /// StateMoveReply (nothing this consumer holds may be resent). Sorts
  /// only the processed seqs recorded since the previous reply and merges
  /// them into the already-sorted prefix.
  void BuildReply(int port, const std::string& key,
                  const std::vector<int>& buckets_lost,
                  std::vector<uint64_t>* processed,
                  std::vector<uint64_t>* retained);

  // --- introspection ----------------------------------------------------
  std::unordered_map<std::string, std::vector<uint64_t>> ProcessedSeqs(
      int port) const;
  size_t AcksPendingTotal(int port) const;
  /// Appends " open_rounds={...}" etc. to a DebugString.
  std::string DebugSuffix() const;

 private:
  struct Entry {
    Address address;
    std::unique_ptr<AckBatcher> acks;
    /// Every seq of this producer whose processing completed here (never
    /// resent by state moves), append-only. The first `processed_sorted`
    /// entries are ascending and duplicate-free; the tail after them is in
    /// processing order and may repeat seqs (resends processed again).
    std::vector<uint64_t> processed;
    size_t processed_sorted = 0;
    /// A state-resident (retained) input and the bucket its state lives
    /// in: it stays "needed" until the fragment has finished AND all of
    /// its outputs are acknowledged downstream — until then it is the
    /// only copy from which the state could be rebuilt after a crash.
    struct RetainedInput {
      uint64_t seq;
      int bucket;
    };
    std::vector<RetainedInput> retained_unacked;
    int exchange_id = -1;
  };

  /// Cascading-acknowledgment bookkeeping: an input tuple is acknowledged
  /// upstream only when every output tuple derived from it has been
  /// acknowledged by our consumers ("checkpoints are returned when the
  /// tuples are not needed any more by the operators higher up"). Without
  /// this, a crash could lose results that were acknowledged but still
  /// buffered in the dead machine's exchange.
  struct PendingInput {
    int port = 0;
    std::string producer_key;
    uint64_t seq = 0;
    size_t remaining_outputs = 0;
  };

  GridNode* node_;
  const ExecConfig* config_;
  SubplanId self_;
  FragmentStats* stats_;
  Hooks hooks_;
  CoordinatorEpochGuard* epoch_guard_ = nullptr;

  std::vector<std::unordered_map<std::string, Entry>> ports_;

  /// State-move rounds announced by a producer whose RestoreComplete has
  /// not arrived yet. While any round is open, resent tuples may still be
  /// in flight (they precede the RestoreComplete on the producer's link),
  /// so the fragment must not finish.
  std::map<std::string, std::set<uint64_t>> open_state_rounds_;

  /// Buckets whose build state is being restored here (probe tuples for
  /// them are parked). Only non-empty on stateful fragments.
  std::unordered_set<int> awaiting_restore_;
  /// Buckets this instance lost in an in-flight round (their probe tuples
  /// are parked until the probe-side purge arrives).
  std::unordered_set<int> frozen_lost_;
  /// Open failure-recovery rounds on the build port, as (producer key,
  /// round) pairs. A recovery purge discards queued build tuples of EVERY
  /// bucket — including ones this instance keeps — so until the
  /// producer's resends land (RestoreComplete), the build state may be
  /// missing arbitrary rows and no probe tuple may run at all.
  std::set<std::pair<std::string, uint64_t>> build_recovery_rounds_;

  /// output seq -> the input awaiting it.
  std::unordered_map<uint64_t, std::shared_ptr<PendingInput>>
      output_to_input_;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_STATE_MANAGER_H_
