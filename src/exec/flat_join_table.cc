#include "exec/flat_join_table.h"

#include <algorithm>
#include <bit>

namespace gqp {

namespace {

constexpr size_t kMinSlots = 16;
// Grow when occupied slots exceed 7/8 of capacity: linear probing stays
// short and the doubling keeps rehashes amortized-constant.
constexpr size_t kLoadNum = 7;
constexpr size_t kLoadDen = 8;

size_t NextPow2(size_t n) { return std::bit_ceil(std::max(n, kMinSlots)); }

}  // namespace

void FlatJoinTable::Reserve(size_t expected_rows) {
  if (expected_rows == 0) return;
  if (expected_rows > entries_.capacity()) {
    // At least double: batched builds call Reserve with a running total
    // every batch, and an exact-fit reserve each time would degrade the
    // entry vector to quadratic reallocation.
    entries_.reserve(std::max(expected_rows, entries_.capacity() * 2));
  }
  const size_t wanted = NextPow2(expected_rows * kLoadDen / kLoadNum + 1);
  if (wanted > slots_.size()) Rehash(wanted);
}

uint32_t FlatJoinTable::FindHead(uint64_t hash) const {
  const size_t mask = slots_.size() - 1;
  const uint8_t tag = TagOf(hash);
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    const uint32_t at = slots_[i];
    if (at == 0) return 0;
    if (tags_[i] == tag && entries_[at - 1].hash == hash) return at;
  }
}

bool FlatJoinTable::Insert(uint64_t hash, const Tuple& tuple) {
  if (slots_.empty() ||
      (occupied_ + 1) * kLoadDen > slots_.size() * kLoadNum) {
    Rehash(slots_.empty() ? kMinSlots : slots_.size() * 2);
  }

  const uint32_t offset = static_cast<uint32_t>(entries_.size() + 1);
  const size_t mask = slots_.size() - 1;
  const uint8_t tag = TagOf(hash);
  size_t i = hash & mask;
  for (;; i = (i + 1) & mask) {
    const uint32_t head = slots_[i];
    if (head == 0) {
      // New chain.
      slots_[i] = offset;
      tags_[i] = tag;
      ++occupied_;
      entries_.push_back(Entry{hash, 0, offset, tuple});
      return false;
    }
    if (tags_[i] != tag || entries_[head - 1].hash != hash) {
      continue;  // probe collision
    }
    // Existing chain: check for a value-identical duplicate, then append
    // at the tail so iteration stays in insertion order.
    bool duplicate = false;
    for (uint32_t at = head; at != 0; at = entries_[at - 1].next) {
      if (entries_[at - 1].tuple == tuple) {
        duplicate = true;
        break;
      }
    }
    Entry& head_entry = entries_[head - 1];
    entries_[head_entry.tail - 1].next = offset;
    head_entry.tail = offset;
    entries_.push_back(Entry{hash, 0, 0, tuple});
    return duplicate;
  }
}

void FlatJoinTable::Rehash(size_t new_slot_count) {
  slots_.assign(new_slot_count, 0);
  tags_.assign(new_slot_count, 0);
  occupied_ = 0;
  const size_t mask = new_slot_count - 1;
  // Re-seat chain heads only; chains and entries are untouched.
  for (size_t e = 0; e < entries_.size(); ++e) {
    const Entry& entry = entries_[e];
    if (entry.tail == 0) continue;  // not a chain head
    for (size_t i = entry.hash & mask;; i = (i + 1) & mask) {
      if (slots_[i] == 0) {
        slots_[i] = static_cast<uint32_t>(e + 1);
        tags_[i] = TagOf(entry.hash);
        ++occupied_;
        break;
      }
    }
  }
}

void FlatJoinTable::Clear() {
  entries_.clear();
  slots_.clear();
  tags_.clear();
  occupied_ = 0;
}

}  // namespace gqp
