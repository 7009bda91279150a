#include "net/network.h"

#include <algorithm>

#include "common/strings.h"

namespace gqp {
namespace {

uint64_t LinkKey(HostId src, HostId dst) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(src)) << 32) |
         static_cast<uint32_t>(dst);
}

}  // namespace

void Network::RegisterHost(HostId host, DeliveryHandler handler) {
  hosts_[host] = std::move(handler);
}

void Network::SetLink(HostId src, HostId dst, LinkParams params) {
  link_params_[LinkKey(src, dst)] = params;
}

void Network::SetAllLinks(LinkParams params) {
  default_link_ = params;
  for (auto& [key, p] : link_params_) p = params;
}

const LinkParams& Network::GetLinkParams(HostId src, HostId dst) const {
  auto it = link_params_.find(LinkKey(src, dst));
  return it == link_params_.end() ? default_link_ : it->second;
}

void Network::SetHostDown(HostId host) { down_.insert(host); }

void Network::SetLinkLoss(HostId src, HostId dst, double drop_probability) {
  link_loss_[LinkKey(src, dst)] = drop_probability;
}

double Network::LossRate(HostId src, HostId dst) const {
  auto it = link_loss_.find(LinkKey(src, dst));
  return it == link_loss_.end() ? default_loss_ : it->second;
}

void Network::BeginPartition(HostId host) { ++partitioned_[host]; }

void Network::EndPartition(HostId host) {
  auto it = partitioned_.find(host);
  if (it == partitioned_.end()) return;
  if (--it->second <= 0) partitioned_.erase(it);
}

bool Network::Partitioned(HostId host) const {
  return partitioned_.count(host) > 0;
}

Status Network::Send(Message msg) {
  if (down_.count(msg.to.host) > 0 || down_.count(msg.from.host) > 0) {
    return Status::OK();  // dropped on the floor, like the real wide area
  }
  auto host_it = hosts_.find(msg.to.host);
  if (host_it == hosts_.end()) {
    return Status::NotFound(
        StrCat("destination host ", msg.to.host, " not registered"));
  }
  DeliveryHandler* handler = &host_it->second;

  if (msg.from.host == msg.to.host) {
    ++stats_.local_deliveries;
    sim_->Schedule(0.0, [handler, m = std::move(msg)]() { (*handler)(m); });
    return Status::OK();
  }

  const size_t bytes =
      (msg.payload ? msg.payload->WireSize() : 0) + envelope_bytes_;
  LinkFifo& link = fifos_[LinkKey(msg.from.host, msg.to.host)];
  const LinkParams& params = GetLinkParams(msg.from.host, msg.to.host);
  const SimTime start = std::max(sim_->Now(), link.busy_until);
  const double tx = static_cast<double>(bytes) / params.bandwidth_bytes_per_ms;
  link.busy_until = start + tx;
  const SimTime arrival =
      std::max(start + tx + params.latency_ms, link.last_arrival);
  link.last_arrival = arrival;

  ++stats_.messages_sent;
  stats_.bytes_sent += bytes;

  // Lossy delivery: the transfer occupied the link either way (the bytes
  // went out and vanished in the fabric), so the busy/FIFO bookkeeping
  // above stands; only the delivery event is suppressed. Partition checks
  // precede the loss draw so partition windows never perturb the RNG
  // stream of unrelated messages.
  if (Partitioned(msg.from.host) || Partitioned(msg.to.host)) {
    ++stats_.partition_drops;
    return Status::OK();
  }
  const double loss = LossRate(msg.from.host, msg.to.host);
  if (loss > 0.0 && loss_rng_.NextDouble() < loss) {
    ++stats_.loss_drops;
    return Status::OK();
  }
  sim_->ScheduleAt(arrival, [handler, m = std::move(msg)]() { (*handler)(m); });
  return Status::OK();
}

double Network::TransferTime(HostId src, HostId dst, size_t bytes) const {
  if (src == dst) return 0.0;
  const LinkParams& p = GetLinkParams(src, dst);
  return static_cast<double>(bytes + envelope_bytes_) /
             p.bandwidth_bytes_per_ms +
         p.latency_ms;
}

}  // namespace gqp
