// MessageBus: routes messages to service endpoints over the simulated
// network. One bus per grid; services register their Address with it.

#ifndef GRIDQP_RPC_MESSAGE_BUS_H_
#define GRIDQP_RPC_MESSAGE_BUS_H_

#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "net/message.h"
#include "net/network.h"
#include "rpc/reliable.h"

namespace gqp {

/// \brief Endpoint registry + send facade.
///
/// The bus registers one delivery handler per host with the Network and
/// dispatches arriving messages to the addressed service. Unknown
/// destinations are logged and dropped (as a lossy wide-area transport
/// would), never fatal.
class MessageBus {
 public:
  explicit MessageBus(Network* network) : network_(network) {}

  MessageBus(const MessageBus&) = delete;
  MessageBus& operator=(const MessageBus&) = delete;

  using Handler = std::function<void(const Message&)>;

  /// Registers a service endpoint. Fails on duplicate address.
  Status RegisterEndpoint(const Address& addr, Handler handler);

  /// Removes an endpoint (e.g., when a query's evaluators shut down).
  void UnregisterEndpoint(const Address& addr);

  /// Sends `payload` from `from` to `to` through the network model. When
  /// the reliable transport is enabled, remote messages travel through it
  /// (acked, retransmitted, deduplicated, released in order); same-host
  /// messages always go raw — local delivery cannot be lost.
  Status Send(const Address& from, const Address& to, PayloadPtr payload);

  /// Sends raw even when the reliable transport is enabled. Heartbeats use
  /// this: their loss is the signal the detector measures, and masking it
  /// with retransmission would blind the failure detector.
  Status SendBestEffort(const Address& from, const Address& to,
                        PayloadPtr payload);

  /// Routes all subsequent remote sends through an acknowledged-send
  /// layer. Call before traffic starts; config.enabled must be true.
  void EnableReliableTransport(const ReliableConfig& config);

  /// Null unless EnableReliableTransport was called.
  ReliableTransport* reliable() const { return reliable_.get(); }

  Network* network() const { return network_; }
  Simulator* simulator() const { return network_->simulator(); }

  /// Count of messages that arrived for unregistered endpoints, summed
  /// over all hosts.
  uint64_t dropped_messages() const;

 private:
  /// Endpoint registry of one host.
  struct HostEndpoints {
    std::unordered_map<Address, Handler, AddressHash> endpoints;
    uint64_t dropped = 0;
  };

  void Deliver(const Message& msg);
  void DispatchToEndpoint(const Message& msg);
  void EnsureHostRegistered(HostId host);
  HostEndpoints* SlotFor(HostId host) const;

  Network* network_;
  /// Indexed by HostId; slots created lazily in EnsureHostRegistered.
  std::vector<std::unique_ptr<HostEndpoints>> hosts_;
  std::unique_ptr<ReliableTransport> reliable_;
};

}  // namespace gqp

#endif  // GRIDQP_RPC_MESSAGE_BUS_H_
