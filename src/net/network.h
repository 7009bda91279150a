// Simulated wide-area network: point-to-point links with latency and
// bandwidth, FIFO per-link serialization, per-byte accounting, and an
// optional lossy-delivery model (seeded per-message drops plus partition
// windows that isolate hosts).
//
// This stands in for the paper's 100 Mbps LAN + SOAP/HTTP transport (see
// DESIGN.md §1). Delivery within a host is free and immediate, matching the
// paper's "communication cost between subplans in the same machine is
// considered zero".

#ifndef GRIDQP_NET_NETWORK_H_
#define GRIDQP_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "common/random.h"
#include "common/status.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace gqp {

/// Characteristics of a directed link between two hosts.
struct LinkParams {
  /// One-way propagation delay in ms.
  double latency_ms = 0.5;
  /// Bytes per ms. Default models 100 Mbps ~ 12.5 MB/s = 12500 bytes/ms.
  double bandwidth_bytes_per_ms = 12500.0;
};

/// Aggregate traffic counters, exposed for the overhead experiments.
struct NetworkStats {
  uint64_t messages_sent = 0;
  uint64_t bytes_sent = 0;
  uint64_t local_deliveries = 0;
  /// Remote messages discarded by the random-loss model.
  uint64_t loss_drops = 0;
  /// Remote messages discarded because an endpoint was partitioned away.
  uint64_t partition_drops = 0;
};

/// \brief The simulated network fabric.
///
/// Hosts register a delivery handler; Send() schedules delivery events on
/// the simulator. Each directed (src,dst) link serializes transfers FIFO:
/// a message begins transmission when the link is free, occupies it for
/// size/bandwidth ms, and arrives latency ms after transmission ends.
class Network {
 public:
  using DeliveryHandler = std::function<void(const Message&)>;

  Network(Simulator* sim, LinkParams default_link)
      : sim_(sim), default_link_(default_link) {}

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers a host's delivery handler (one per host; the RPC layer
  /// dispatches to services). Re-registration replaces the handler.
  void RegisterHost(HostId host, DeliveryHandler handler);

  /// Overrides link parameters for a directed host pair.
  void SetLink(HostId src, HostId dst, LinkParams params);

  /// Replaces the parameters of every existing link and the default used
  /// for links created later. In-flight transfers keep their original
  /// schedule; only subsequent sends see the new delay/bandwidth (chaos
  /// scenarios shift the whole fabric mid-query this way).
  void SetAllLinks(LinkParams params);

  /// Envelope bytes added to every remote message (SOAP/HTTP analogue).
  void set_envelope_bytes(size_t bytes) { envelope_bytes_ = bytes; }

  /// Reseeds the loss model's RNG. Drop decisions are a pure function of
  /// the seed and the (deterministic) send sequence, so lossy runs replay
  /// byte-identically (DESIGN.md §6).
  void SeedLoss(uint64_t seed) { loss_rng_ = Rng(seed); }

  /// Drop probability applied to every remote message without a per-link
  /// override. 0 (the default) disables the model entirely: no RNG draw
  /// happens, so pre-existing deterministic runs are unchanged.
  void SetDefaultLoss(double drop_probability) {
    default_loss_ = drop_probability;
  }

  /// Per-directed-link drop probability override.
  void SetLinkLoss(HostId src, HostId dst, double drop_probability);

  /// Opens a partition window isolating `host`: every remote message to or
  /// from it is dropped (the transfer still occupies the link — the bytes
  /// are transmitted and lost in the fabric). Windows nest: each
  /// BeginPartition must be matched by an EndPartition before traffic
  /// flows again. Unlike SetHostDown, the host itself keeps running.
  void BeginPartition(HostId host);
  void EndPartition(HostId host);
  bool Partitioned(HostId host) const;

  /// Sends a message. Local (same-host) messages are delivered in a
  /// zero-delay event (still asynchronously, to preserve causality).
  /// Fails if the destination host is not registered.
  Status Send(Message msg);

  /// Marks a host as failed: messages to or from it are silently dropped
  /// (the Send itself reports OK, as a real unreliable transport would;
  /// in-flight messages already scheduled still arrive).
  void SetHostDown(HostId host);
  bool HostDown(HostId host) const { return down_.count(host) > 0; }

  /// Time a transfer of `bytes` would occupy the (src,dst) link, excluding
  /// queueing: bytes/bandwidth + latency. Used by exchange producers to
  /// report M2 communication costs.
  double TransferTime(HostId src, HostId dst, size_t bytes) const;

  const NetworkStats& stats() const { return stats_; }
  Simulator* simulator() const { return sim_; }

 private:
  /// Per-link dynamic send state.
  struct LinkFifo {
    SimTime busy_until = 0.0;
    /// Arrival time of the last message sent on this link. Delivery is
    /// clamped to it so a latency drop mid-stream cannot make a later
    /// (small) message overtake an earlier (large) one: the exchange
    /// round protocol relies on in-order links (a StateMoveRequest or
    /// RestoreComplete marker proves everything sent before it arrived).
    SimTime last_arrival = 0.0;
  };

  const LinkParams& GetLinkParams(HostId src, HostId dst) const;
  double LossRate(HostId src, HostId dst) const;

  Simulator* sim_;
  LinkParams default_link_;
  size_t envelope_bytes_ = 256;
  std::unordered_map<HostId, DeliveryHandler> hosts_;
  std::unordered_set<HostId> down_;
  /// Per-link parameter overrides.
  std::unordered_map<uint64_t, LinkParams> link_params_;
  std::unordered_map<uint64_t, LinkFifo> fifos_;
  double default_loss_ = 0.0;
  std::unordered_map<uint64_t, double> link_loss_;
  Rng loss_rng_{0x10551055ULL};
  /// Open partition windows per host (windows may overlap, hence a count).
  std::unordered_map<HostId, int> partitioned_;
  NetworkStats stats_;
};

}  // namespace gqp

#endif  // GRIDQP_NET_NETWORK_H_
