#include "rpc/reliable.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace gqp {
namespace {

/// Transport endpoints live outside the service namespace; the '!' prefix
/// cannot collide with a registered service name.
constexpr const char* kTransportService = "!transport";

bool IsDigit(char c) { return c >= '0' && c <= '9'; }

/// Parses the query id embedded in a service name, or 0.
int QueryOfService(std::string_view service) {
  // Fragment endpoints: "q<N>.f<F>.i<I>".
  if (service.size() >= 2 && service[0] == 'q' && IsDigit(service[1])) {
    int value = 0;
    size_t i = 1;
    while (i < service.size() && IsDigit(service[i])) {
      value = value * 10 + (service[i] - '0');
      ++i;
    }
    if (i < service.size() && service[i] == '.') return value;
  }
  // Per-query adaptivity services: "<role>.q<N>".
  const size_t pos = service.rfind(".q");
  if (pos != std::string_view::npos && pos + 2 < service.size()) {
    int value = 0;
    for (size_t i = pos + 2; i < service.size(); ++i) {
      if (!IsDigit(service[i])) return 0;
      value = value * 10 + (service[i] - '0');
    }
    return value;
  }
  return 0;
}

}  // namespace

int QueryOf(const Message& msg) {
  const int to = QueryOfService(msg.to.service);
  if (to != 0) return to;
  return QueryOfService(msg.from.service);
}

ReliableTransport::ReliableTransport(Network* network,
                                     const ReliableConfig& config,
                                     DeliverFn deliver)
    : network_(network),
      config_(config),
      deliver_(std::move(deliver)),
      jitter_rng_(config.jitter_seed) {}

ReliableTransport::HostState& ReliableTransport::ForHost(HostId host) {
  if (host < 0) host = 0;
  const size_t index = static_cast<size_t>(host);
  if (index >= hosts_.size()) hosts_.resize(index + 1);
  if (hosts_[index] == nullptr) hosts_[index] = std::make_unique<HostState>();
  return *hosts_[index];
}

Status ReliableTransport::Send(Message msg) {
  const HostId src = msg.from.host;
  const HostId dst = msg.to.host;
  const int query = QueryOf(msg);
  HostState& host = ForHost(src);
  SenderChannel& ch = host.senders[dst];
  const uint64_t seq = ch.next_seq;

  Message envelope;
  envelope.from = msg.from;
  envelope.to = msg.to;
  envelope.payload =
      std::make_shared<ReliableEnvelopePayload>(seq, std::move(msg.payload));

  const Status sent = network_->Send(envelope);
  // An unregistered destination is a caller error, not loss: report it
  // without consuming the seq, or the receiver's cursor would stall on
  // the gap forever.
  if (!sent.ok()) return sent;
  ++ch.next_seq;
  ++host.stats.sent;
  ++QueryStats(src, query).sent;

  Pending pending;
  pending.envelope = std::move(envelope);
  pending.rto_ms = config_.base_rto_ms;
  pending.query = query;
  ch.pending.emplace(seq, std::move(pending));
  ScheduleRetransmit(src, dst, seq);
  return Status::OK();
}

void ReliableTransport::ScheduleRetransmit(HostId src, HostId dst,
                                           uint64_t seq) {
  Pending& p = ForHost(src).senders[dst].pending[seq];
  const double jitter =
      config_.jitter_frac > 0.0
          ? p.rto_ms * config_.jitter_frac * jitter_rng_.NextDouble()
          : 0.0;
  p.timer = network_->simulator()->Schedule(
      p.rto_ms + jitter, [this, src, dst, seq] { OnTimeout(src, dst, seq); });
}

void ReliableTransport::OnTimeout(HostId src, HostId dst, uint64_t seq) {
  HostState& host = ForHost(src);
  auto ch_it = host.senders.find(dst);
  if (ch_it == host.senders.end()) return;
  auto it = ch_it->second.pending.find(seq);
  if (it == ch_it->second.pending.end()) return;
  Pending& p = it->second;

  // A dead endpoint never acks; retrying would keep the simulation alive
  // forever. Retry exhaustion is the lossless-hang safety net.
  if (network_->HostDown(src) || network_->HostDown(dst) ||
      p.retries >= config_.max_retries) {
    ++host.stats.abandoned;
    ++QueryStats(src, p.query).abandoned;
    ch_it->second.pending.erase(it);
    return;
  }

  ++p.retries;
  ++host.stats.retransmits;
  ++QueryStats(src, p.query).retransmits;
  (void)network_->Send(p.envelope);
  if (p.rto_ms < config_.max_rto_ms) {
    ++host.stats.backoffs;
    ++QueryStats(src, p.query).backoffs;
  }
  p.rto_ms = std::min(p.rto_ms * 2.0, config_.max_rto_ms);
  ScheduleRetransmit(src, dst, seq);
}

bool ReliableTransport::MaybeHandle(const Message& msg) {
  if (const auto* env = PayloadAs<ReliableEnvelopePayload>(msg.payload)) {
    OnEnvelope(msg, *env);
    return true;
  }
  if (const auto* ack = PayloadAs<ReliableAckPayload>(msg.payload)) {
    OnAck(msg, *ack);
    return true;
  }
  return false;
}

void ReliableTransport::OnEnvelope(const Message& msg,
                                   const ReliableEnvelopePayload& env) {
  HostState& host = ForHost(msg.to.host);
  // Always ack, duplicates included: the sender retransmitted because the
  // previous ack may itself have been lost.
  const int query = QueryOf(msg);  // the envelope keeps the inner addresses
  ++host.stats.acks_sent;
  ++QueryStats(msg.to.host, query).acks_sent;
  Message ack;
  ack.from = Address{msg.to.host, kTransportService};
  ack.to = Address{msg.from.host, kTransportService};
  ack.payload = std::make_shared<ReliableAckPayload>(env.seq());
  (void)network_->Send(std::move(ack));

  ReceiverChannel& ch = host.receivers[msg.from.host];
  if (env.seq() < ch.next_expected || ch.holdback.count(env.seq()) > 0) {
    ++host.stats.dedup_hits;
    ++QueryStats(msg.to.host, query).dedup_hits;
    return;
  }
  Message inner;
  inner.from = msg.from;
  inner.to = msg.to;
  inner.payload = env.inner();
  ch.holdback.emplace(env.seq(), std::move(inner));

  // Release strictly in sequence: a lost message holds its successors back
  // until the retransmission lands, preserving per-link FIFO end to end.
  while (true) {
    auto it = ch.holdback.find(ch.next_expected);
    if (it == ch.holdback.end()) break;
    Message release = std::move(it->second);
    ch.holdback.erase(it);
    ++ch.next_expected;
    ++host.stats.delivered;
    ++QueryStats(msg.to.host, QueryOf(release)).delivered;
    deliver_(release);
  }
}

void ReliableTransport::OnAck(const Message& msg,
                              const ReliableAckPayload& ack) {
  // The ack flows dst -> src of the original send.
  const HostId src = msg.to.host;
  HostState& host = ForHost(src);
  ++host.stats.acks_received;
  auto ch_it = host.senders.find(msg.from.host);
  if (ch_it == host.senders.end()) return;
  auto it = ch_it->second.pending.find(ack.seq());
  if (it == ch_it->second.pending.end()) return;
  ++QueryStats(src, it->second.query).acks_received;
  network_->simulator()->Cancel(it->second.timer);
  ch_it->second.pending.erase(it);
}

namespace {

void AccumulateStats(ReliableStats* into, const ReliableStats& from) {
  into->sent += from.sent;
  into->retransmits += from.retransmits;
  into->backoffs += from.backoffs;
  into->acks_sent += from.acks_sent;
  into->acks_received += from.acks_received;
  into->dedup_hits += from.dedup_hits;
  into->delivered += from.delivered;
  into->abandoned += from.abandoned;
}

}  // namespace

const ReliableStats& ReliableTransport::stats() const {
  merged_stats_ = ReliableStats{};
  for (const auto& host : hosts_) {
    if (host != nullptr) AccumulateStats(&merged_stats_, host->stats);
  }
  return merged_stats_;
}

const ReliableStats& ReliableTransport::stats_for_query(int query) const {
  ReliableStats& merged = merged_by_query_[query];
  merged = ReliableStats{};
  for (const auto& host : hosts_) {
    if (host == nullptr) continue;
    auto it = host->by_query.find(query);
    if (it != host->by_query.end()) AccumulateStats(&merged, it->second);
  }
  return merged;
}

size_t ReliableTransport::pending() const {
  size_t n = 0;
  for (const auto& host : hosts_) {
    if (host == nullptr) continue;
    for (const auto& [dst, ch] : host->senders) n += ch.pending.size();
  }
  return n;
}

}  // namespace gqp
