#include "sim/simulator.h"

#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"

namespace gqp {

void Simulator::GrowPool() {
  chunks_.push_back(std::make_unique<EventSlot[]>(kChunkSize));
  const uint32_t base = slot_count_;
  slot_count_ += kChunkSize;
  // Pushed in reverse so slots are handed out in ascending order.
  for (uint32_t i = 0; i < kChunkSize; ++i) {
    free_.push_back(base + kChunkSize - 1 - i);
  }
}

void Simulator::DisarmSlot(uint32_t slot) {
  EventSlot& s = SlotRef(slot);
  s.destroy(s.storage);
  s.invoke = nullptr;
  ++s.gen;
  free_.push_back(slot);
}

void Simulator::PopDiscard() {
  std::pop_heap(heap_.begin(), heap_.end(), FiresLater{});
  heap_.pop_back();
}

bool Simulator::Cancel(EventId id) {
  const uint64_t slot_part = id >> 32;
  if (slot_part == 0 || slot_part > slot_count_) return false;
  const uint32_t slot = static_cast<uint32_t>(slot_part - 1);
  EventSlot& s = SlotRef(slot);
  if (s.gen != static_cast<uint32_t>(id) || s.invoke == nullptr) return false;
  DisarmSlot(slot);
  --live_;
  return true;  // heap entry goes stale; discarded when it surfaces
}

void Simulator::FireTop() {
  const HeapEntry top = heap_.front();
  PopDiscard();
  EventSlot& s = SlotRef(top.slot);
  now_ = top.time;
  ++events_executed_;
  --live_;
  // Disarm before invoking: the callback observes itself as fired (a
  // self-cancel is a no-op) but the slot is recycled only afterwards, so
  // events it schedules cannot clobber the running callback's storage.
  // Slot addresses are chunk-stable, so pool growth is safe too.
  void (*invoke)(void*) = s.invoke;
  s.invoke = nullptr;
  ++s.gen;
  if (trace_sink_) trace_sink_(top.time, top.seq);
  invoke(s.storage);
  EventSlot& after = SlotRef(top.slot);
  after.destroy(after.storage);
  free_.push_back(top.slot);
}

bool Simulator::Step() {
  while (!heap_.empty()) {
    const HeapEntry& top = heap_.front();
    if (SlotRef(top.slot).gen != top.gen) {
      PopDiscard();
      continue;
    }
    FireTop();
    return true;
  }
  return false;
}

Status Simulator::Run(SimTime until) {
  const uint64_t budget_start = events_executed_;
  while (!heap_.empty()) {
    // Peek: discard stale entries, stop before events beyond the horizon.
    const HeapEntry& top = heap_.front();
    if (SlotRef(top.slot).gen != top.gen) {
      PopDiscard();
      continue;
    }
    if (top.time > until) {
      if (until != kSimTimeInfinity && until > now_) now_ = until;
      return Status::OK();
    }
    if (events_executed_ - budget_start >= max_events_) {
      return Status::ResourceExhausted(
          StrCat("simulator exceeded ", max_events_,
                 " events; likely a runaway event loop (t=", now_, " ms)"));
    }
    FireTop();
  }
  if (until != kSimTimeInfinity && until > now_) now_ = until;
  return Status::OK();
}

SimTime Simulator::RunToCompletion() {
  Status s = Run();
  if (!s.ok()) {
    GQP_LOG_ERROR << "Simulator::RunToCompletion failed: " << s.ToString();
    std::abort();
  }
  return now_;
}

void Simulator::DestroyPending() {
  for (const HeapEntry& entry : heap_) {
    EventSlot& s = SlotRef(entry.slot);
    if (s.gen != entry.gen) continue;  // stale (cancelled) duplicate
    s.destroy(s.storage);
    s.invoke = nullptr;
    ++s.gen;
  }
}

void Simulator::Reset() {
  DestroyPending();
  now_ = 0.0;
  events_executed_ = 0;
  live_ = 0;
  heap_.clear();
  chunks_.clear();
  free_.clear();
  slot_count_ = 0;
  // next_seq_ keeps counting, matching the pre-pool kernel's next_id_.
}

}  // namespace gqp
