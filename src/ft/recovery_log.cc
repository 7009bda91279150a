#include "ft/recovery_log.h"

#include <algorithm>

namespace gqp {

void RecoveryLog::Append(LogRecord record) {
  stats_.bytes_held += record.tuple.WireSize();
  stats_.bytes_peak = std::max(stats_.bytes_peak, stats_.bytes_held);
  records_.emplace(record.seq, std::move(record));
  ++stats_.appended;
  stats_.high_watermark = std::max(stats_.high_watermark, records_.size());
}

void RecoveryLog::Ack(uint64_t seq) {
  auto it = records_.find(seq);
  if (it == records_.end()) return;
  const uint64_t bytes = it->second.tuple.WireSize();
  stats_.bytes_held -= std::min(stats_.bytes_held, bytes);
  records_.erase(it);
  ++stats_.acked;
}

void RecoveryLog::AckBatch(const std::vector<uint64_t>& seqs) {
  for (const uint64_t seq : seqs) Ack(seq);
}

std::vector<LogRecord> RecoveryLog::Extract(
    const std::function<bool(const LogRecord&)>& pred) {
  std::vector<LogRecord> out;
  for (auto it = records_.begin(); it != records_.end();) {
    if (pred(it->second)) {
      const uint64_t bytes = it->second.tuple.WireSize();
      stats_.bytes_held -= std::min(stats_.bytes_held, bytes);
      out.push_back(std::move(it->second));
      it = records_.erase(it);
    } else {
      ++it;
    }
  }
  stats_.extracted += out.size();
  return out;
}

std::vector<LogRecord> RecoveryLog::ExtractAll() {
  return Extract([](const LogRecord&) { return true; });
}

void RecoveryLog::Reinsert(LogRecord record) {
  record.claimed_by = -1;
  record.round_claim = 0;
  Append(std::move(record));
}

void RecoveryLog::Claim(const std::vector<uint64_t>& seqs, uint64_t round,
                        int consumer) {
  if (records_.empty()) return;
  auto rec = records_.begin();
  // Most of a reply names long-acknowledged history below the oldest
  // record; skip it with one binary search.
  for (auto s = std::lower_bound(seqs.begin(), seqs.end(), rec->first);
       s != seqs.end(); ++s) {
    while (rec->first < *s) {
      if (++rec == records_.end()) return;
    }
    if (rec->first != *s) continue;
    rec->second.round_claim = round;
    if (consumer >= 0) rec->second.claimed_by = consumer;
  }
}

std::vector<uint64_t> RecoveryLog::PendingSeqs() const {
  std::vector<uint64_t> seqs;
  seqs.reserve(records_.size());
  for (const auto& [seq, rec] : records_) seqs.push_back(seq);
  return seqs;
}

std::vector<std::pair<uint64_t, int>> RecoveryLog::PendingConsumers() const {
  std::vector<std::pair<uint64_t, int>> pairs;
  pairs.reserve(records_.size());
  for (const auto& [seq, rec] : records_) pairs.emplace_back(seq, rec.consumer);
  return pairs;
}

bool AckBatcher::Add(uint64_t seq) {
  pending_.push_back(seq);
  return pending_.size() >= interval_;
}

std::vector<uint64_t> AckBatcher::Drain() {
  std::vector<uint64_t> out;
  out.swap(pending_);
  return out;
}

void AckBatcher::Remove(uint64_t seq) {
  pending_.erase(std::remove(pending_.begin(), pending_.end(), seq),
                 pending_.end());
}

}  // namespace gqp
