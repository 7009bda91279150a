// Port queues + credit accounting of a fragment instance (DESIGN.md §D11,
// §D12). Owns the per-port tuple queues (runnable + parked), the byte
// accounting behind the bounded-memory invariant, and the consumer side of
// the credit protocol: per-producer CreditAccounts, batched CreditGrant
// emission and queue-pressure episode detection. The composition root
// (FragmentExecutor) decides WHEN tuples are enqueued, popped, parked or
// purged; this component owns the bookkeeping of each transition.

#ifndef GRIDQP_EXEC_PORT_QUEUE_MANAGER_H_
#define GRIDQP_EXEC_PORT_QUEUE_MANAGER_H_

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "exec/exchange_messages.h"
#include "exec/flow_control.h"
#include "exec/instance_plan.h"
#include "grid/node.h"
#include "sim/simulator.h"

namespace gqp {

/// One tuple waiting on an input port.
struct QueuedTuple {
  RoutedTuple rt;
  /// Producer identity (for acknowledgments and processed-tracking).
  std::string producer_key;
  /// Round epoch stamped on the carrying batch; a state-move purge for
  /// round R skips tuples with round >= R (already routed by R's map).
  uint64_t round = 0;
  /// Bytes this tuple holds against its producer's credit window
  /// (0 with flow control off). Released exactly once, when the tuple
  /// is popped for processing or purged by a state move.
  size_t wire_bytes = 0;
};

class PortQueueManager {
 public:
  struct Hooks {
    /// Delivers a control payload (grants, pressure) over the bus.
    std::function<Status(const Address&, PayloadPtr)> send_to;
    /// Fenced-producer probe: no grants to producers recovery owns.
    std::function<bool(int port, const std::string& key)> is_lost;
  };

  /// What a state-move purge removed from the queues.
  struct PurgeResult {
    uint64_t discarded = 0;
    uint64_t credit_bytes = 0;
    /// Discarded seqs in queue order (queued, then parked), for the
    /// discard debug log.
    std::vector<uint64_t> seqs;
  };

  PortQueueManager(GridNode* node, Simulator* simulator,
                   const ExecConfig* config, const SubplanId& self,
                   const AdaptivityWiring* adaptivity, FragmentStats* stats,
                   Hooks hooks);

  void AddPort(int num_producers);
  /// Ensures a credit account exists for the producer link (registration
  /// order mirrors StateManager's so iteration-order-sensitive paths stay
  /// aligned with the pre-split executor).
  void RegisterProducer(int port, const std::string& key,
                        const Address& address, int exchange_id);

  bool flow_control_on() const {
    return config_->flow_control_enabled && config_->credit_window_bytes > 0;
  }
  size_t CreditGrantThreshold() const;

  /// Enqueues a batch: charges each tuple's wire bytes to the producer's
  /// account (byte accounting runs with flow control off too: the peaks
  /// are what an A/B run compares FC against), refreshes watermarks and
  /// pressure tracking, and charges the per-tuple enqueue CPU cost.
  void EnqueueBatch(int port, const std::string& key,
                    const TupleBatchPayload& batch);

  bool QueueEmpty(int port) const;
  /// Two-phase port selection: the first port with queued tuples whose
  /// earlier ports are fully drained (EOS complete and queue empty), or
  /// -1. Build inputs (port 0) therefore always run before probes.
  int PickRunnablePort(
      const std::function<bool(int port)>& eos_complete) const;
  /// Bucket of the front queued tuple (undefined when empty).
  int FrontBucket(int port) const;
  /// Pops the front tuple; the caller releases its credit.
  QueuedTuple PopFront(int port);
  /// Moves blocked front tuples to the parked queue until the front is
  /// runnable or the queue drains.
  void ParkBlocked(int port, const std::function<bool(int bucket)>& blocked);
  /// Re-queues parked tuples whose bucket became runnable again, in
  /// parked order; the tuples left parked keep their order too.
  void Unpark(const std::function<bool(int bucket)>& still_blocked);

  /// Removes unprocessed tuples of `key` below `round` on the port —
  /// every bucket when `unconditional` (purge_all/recovery), else only
  /// `buckets_lost`. Survivors keep their order. The caller releases the
  /// returned credit bytes.
  PurgeResult Purge(int port, const std::string& key, uint64_t round,
                    bool unconditional, const std::vector<int>& buckets_lost);

  /// Releases `bytes` of a producer's credit (tuple processed or purged)
  /// and sends a CreditGrant when the batched releases cross the
  /// threshold. Also refreshes the port's pressure tracking.
  void ReleaseCredit(int port, const std::string& key, size_t bytes);
  /// Sends any sub-threshold pending grants (called when the driver goes
  /// idle or parks on credit, so an upstream producer can never starve on
  /// releases that sit below the batching threshold forever).
  void FlushCreditGrants();
  void UpdateQueuePressure(int port);

  // --- introspection ----------------------------------------------------
  size_t queue_size(int port) const;
  size_t parked_size(int port) const;
  /// Queued + parked tuples on one port.
  size_t QueuedTuples(int port) const;
  uint64_t held_bytes(int port) const;
  bool AllQueuesEmpty() const;

 private:
  struct Producer {
    Address address;
    int exchange_id = -1;
    /// Flow-control account of this link (D11).
    CreditAccount credit;
  };

  struct Port {
    int num_producers = 1;
    std::deque<QueuedTuple> queue;
    /// Probe tuples parked while their bucket's build state moves.
    std::deque<QueuedTuple> parked;
    std::unordered_map<std::string, Producer> producers;
    /// Bytes currently held (queued + parked) on this port, the peak
    /// seen, and pressure episode tracking (D11).
    uint64_t held_bytes = 0;
    uint64_t peak_held_bytes = 0;
    SimTime pressure_since = -1.0;
    bool pressure_emitted = false;
  };

  void SendCreditGrant(Producer* producer);

  GridNode* node_;
  Simulator* simulator_;
  const ExecConfig* config_;
  SubplanId self_;
  const AdaptivityWiring* adaptivity_;
  FragmentStats* stats_;
  Hooks hooks_;
  std::vector<Port> ports_;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_PORT_QUEUE_MANAGER_H_
