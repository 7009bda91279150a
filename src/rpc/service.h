// GridService: base class for all service-oriented components (GDQS, GQES,
// MonitoringEventDetector, Diagnoser, Responder, GridDataService).
//
// Services communicate asynchronously and support the publish/subscribe
// model of the paper's architecture (Fig. 1): any service can act as an
// event source; others Subscribe() to a topic and receive Notification
// payloads via OnNotification().

#ifndef GRIDQP_RPC_SERVICE_H_
#define GRIDQP_RPC_SERVICE_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "rpc/message_bus.h"

namespace gqp {

/// Control payload: subscription request for a topic.
class SubscribePayload : public Payload {
 public:
  SubscribePayload(std::string topic, Address subscriber)
      : topic_(std::move(topic)), subscriber_(std::move(subscriber)) {}

  size_t WireSize() const override { return 64 + topic_.size(); }
  std::string_view TypeName() const override { return "Subscribe"; }

  const std::string& topic() const { return topic_; }
  const Address& subscriber() const { return subscriber_; }

 private:
  std::string topic_;
  Address subscriber_;
};

/// Control payload: unsubscription request.
class UnsubscribePayload : public Payload {
 public:
  UnsubscribePayload(std::string topic, Address subscriber)
      : topic_(std::move(topic)), subscriber_(std::move(subscriber)) {}

  size_t WireSize() const override { return 64 + topic_.size(); }
  std::string_view TypeName() const override { return "Unsubscribe"; }

  const std::string& topic() const { return topic_; }
  const Address& subscriber() const { return subscriber_; }

 private:
  std::string topic_;
  Address subscriber_;
};

/// Envelope for published events: a topic plus the application payload.
class NotificationPayload : public Payload {
 public:
  NotificationPayload(std::string topic, PayloadPtr body)
      : topic_(std::move(topic)), body_(std::move(body)) {}

  size_t WireSize() const override {
    return 32 + topic_.size() + (body_ ? body_->WireSize() : 0);
  }
  std::string_view TypeName() const override { return "Notification"; }

  const std::string& topic() const { return topic_; }
  const PayloadPtr& body() const { return body_; }

 private:
  std::string topic_;
  PayloadPtr body_;
};

/// \brief Base class for grid services.
///
/// Lifecycle: construct, then Start() registers the endpoint with the bus;
/// Stop() unregisters it. Subclasses implement HandleMessage() for direct
/// (request-style) payloads and OnNotification() for pub/sub events; the
/// base class handles the subscribe/unsubscribe/notification plumbing.
class GridService {
 public:
  GridService(MessageBus* bus, HostId host, std::string name);
  virtual ~GridService();

  GridService(const GridService&) = delete;
  GridService& operator=(const GridService&) = delete;

  /// Registers this service's endpoint; must be called before messaging.
  Status Start();

  /// Unregisters the endpoint. Idempotent.
  void Stop();

  const Address& address() const { return address_; }
  HostId host() const { return address_.host; }
  const std::string& name() const { return address_.service; }
  MessageBus* bus() const { return bus_; }
  Simulator* simulator() const { return bus_->simulator(); }

  /// Sends a direct payload to another service.
  Status SendTo(const Address& to, PayloadPtr payload);

  /// Subscribes this service to `topic` at `publisher` (sends a Subscribe
  /// control message through the network, as a loosely-coupled system
  /// would).
  Status Subscribe(const Address& publisher, const std::string& topic);

  /// Publishes an event to all current subscribers of `topic`.
  Status Publish(const std::string& topic, PayloadPtr body);

  /// Number of subscribers currently registered for a topic.
  size_t SubscriberCount(const std::string& topic) const;

 protected:
  /// Direct (non-pub/sub) message dispatch.
  virtual void HandleMessage(const Message& msg) = 0;

  /// Pub/sub event dispatch. Default ignores events.
  virtual void OnNotification(const Address& publisher,
                              const std::string& topic, const PayloadPtr& body);

 private:
  void Dispatch(const Message& msg);

  MessageBus* bus_;
  Address address_;
  bool started_ = false;
  std::unordered_map<std::string, std::vector<Address>> subscribers_;
};

}  // namespace gqp

#endif  // GRIDQP_RPC_SERVICE_H_
