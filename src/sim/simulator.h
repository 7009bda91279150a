// Discrete-event simulation kernel. All GridQP experiments run in virtual
// time: grid nodes, the network, and the adaptivity services schedule
// callbacks on a single Simulator, which executes them in timestamp order.
//
// Determinism: ties on timestamp are broken by scheduling sequence number,
// so a run is a pure function of its inputs (including RNG seeds).
//
// Hot-path layout (see DESIGN.md "Performance engineering"): events live
// in a pool of recycled slots with the callback stored inline (no
// per-event heap allocation for captures up to kInlineCapacity bytes, no
// hash-map bookkeeping). The binary heap orders lightweight 24-byte
// entries by (time, seq); cancellation bumps the slot's generation
// counter, and stale heap entries are discarded lazily when they surface.
// The trace sink still receives the scheduling sequence number, so the
// (time, seq) fingerprint stream is identical to the pre-pool kernel.

#ifndef GRIDQP_SIM_SIMULATOR_H_
#define GRIDQP_SIM_SIMULATOR_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/status.h"

namespace gqp {

/// Virtual time in milliseconds.
using SimTime = double;

constexpr SimTime kSimTimeInfinity = std::numeric_limits<SimTime>::infinity();

/// Handle for a scheduled event; usable with Simulator::Cancel. Opaque:
/// encodes the event's pool slot and its generation at scheduling time.
/// (The trace sink receives scheduling sequence numbers, not handles.)
using EventId = uint64_t;

constexpr EventId kInvalidEventId = 0;

/// \brief Single-threaded discrete-event simulator.
///
/// Not thread-safe by design: determinism is a core requirement (see
/// DESIGN.md D1).
class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator() { DestroyPending(); }

  /// Current virtual time (ms). Starts at 0.
  SimTime Now() const { return now_; }

  /// Schedules `fn` to run `delay` ms from now. Negative delays are clamped
  /// to 0 (the event still runs after currently pending events at Now()).
  template <typename Fn>
  EventId Schedule(SimTime delay, Fn&& fn) {
    if (delay < 0) delay = 0;
    return ScheduleAt(now_ + delay, std::forward<Fn>(fn));
  }

  /// Schedules `fn` at an absolute virtual time. Times in the past are
  /// clamped to Now().
  template <typename Fn>
  EventId ScheduleAt(SimTime when, Fn&& fn) {
    static_assert(std::is_invocable_v<std::decay_t<Fn>>,
                  "event callbacks take no arguments");
    if (when < now_) when = now_;
    const uint32_t slot = AllocSlot();
    EventSlot& s = SlotRef(slot);
    using F = std::decay_t<Fn>;
    if constexpr (sizeof(F) <= EventSlot::kInlineCapacity &&
                  alignof(F) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(s.storage)) F(std::forward<Fn>(fn));
      s.invoke = [](void* p) { (*static_cast<F*>(p))(); };
      s.destroy = [](void* p) { static_cast<F*>(p)->~F(); };
    } else {
      // Oversized capture: one boxed allocation, pointer stored inline.
      ::new (static_cast<void*>(s.storage)) (F*)(new F(std::forward<Fn>(fn)));
      s.invoke = [](void* p) { (**static_cast<F**>(p))(); };
      s.destroy = [](void* p) { delete *static_cast<F**>(p); };
    }
    heap_.push_back(HeapEntry{when, next_seq_++, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), FiresLater{});
    ++live_;
    return MakeEventId(slot, s.gen);
  }

  /// Cancels a pending event. Cancelling an already-fired, already-
  /// cancelled or unknown event is a no-op. Returns true if the event was
  /// pending (exactly once per scheduled event).
  bool Cancel(EventId id);

  /// Runs one event. Returns false if the queue is empty.
  bool Step();

  /// Runs until the event queue is empty or `until` is passed (events with
  /// timestamp > `until` stay queued; Now() advances to at most `until`).
  /// Returns an error if the event budget is exhausted (runaway loop guard).
  Status Run(SimTime until = kSimTimeInfinity);

  /// Convenience: runs the full simulation and returns the final time.
  /// CHECK-fails (aborts) on runaway; use Run() where errors must propagate.
  SimTime RunToCompletion();

  /// Number of events executed so far.
  uint64_t events_executed() const { return events_executed_; }

  /// Number of currently pending (non-cancelled) events. Exact: scheduling
  /// increments, firing or a successful Cancel decrements; re-cancelling
  /// or cancelling unknown ids has no effect.
  size_t pending_events() const { return live_; }

  /// Replaces the runaway guard (default: 500M events).
  void set_max_events(uint64_t max_events) { max_events_ = max_events; }

  /// Observer invoked for every executed event, immediately before its
  /// callback runs, with the event's scheduling sequence number. The
  /// (time, seq) stream is a complete fingerprint of the schedule — equal
  /// streams mean equal executions — so the chaos harness records it to
  /// verify replay determinism. Pass nullptr to detach.
  void set_trace_sink(std::function<void(SimTime, EventId)> sink) {
    trace_sink_ = std::move(sink);
  }

  /// Resets time to 0 and drops all pending events. (The scheduling
  /// sequence keeps counting, exactly like the pre-pool kernel's ids.)
  void Reset();

 private:
  /// 24-byte heap entry; the callback stays in its pool slot.
  struct HeapEntry {
    SimTime time;
    uint64_t seq;   // scheduling sequence: tie-break + trace fingerprint
    uint32_t slot;  // pool slot holding the callback
    uint32_t gen;   // slot generation at scheduling time
  };
  /// Heap comparator: true when `a` fires after `b`, so std::push_heap &
  /// co. keep the earliest (time, seq) at the front.
  struct FiresLater {
    bool operator()(const HeapEntry& a, const HeapEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Pooled event record. `gen` counts disarms: a heap entry (or EventId)
  /// is live iff its recorded generation equals the slot's. Slots live in
  /// fixed-size chunks, so their addresses are stable while callbacks run
  /// (a callback may schedule new events and grow the pool).
  struct EventSlot {
    static constexpr size_t kInlineCapacity = 48;
    alignas(std::max_align_t) unsigned char storage[kInlineCapacity];
    void (*invoke)(void*) = nullptr;
    void (*destroy)(void*) = nullptr;
    uint32_t gen = 0;
  };
  static constexpr uint32_t kChunkShift = 8;
  static constexpr uint32_t kChunkSize = 1u << kChunkShift;  // slots/chunk

  static EventId MakeEventId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(slot) + 1) << 32 | gen;
  }

  EventSlot& SlotRef(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSize - 1)];
  }

  uint32_t AllocSlot() {
    if (free_.empty()) GrowPool();
    const uint32_t slot = free_.back();
    free_.pop_back();
    return slot;
  }

  void GrowPool();
  /// Destroys the callback, bumps the generation (invalidating every
  /// outstanding reference) and recycles the slot.
  void DisarmSlot(uint32_t slot);
  /// Pops the heap front (a stale, already-disarmed entry).
  void PopDiscard();
  /// Executes the heap front. Precondition: front is live.
  void FireTop();
  /// Destroys callbacks of all still-pending events.
  void DestroyPending();

  SimTime now_ = 0.0;
  uint64_t next_seq_ = 1;
  uint64_t events_executed_ = 0;
  uint64_t max_events_ = 500'000'000ULL;
  size_t live_ = 0;
  std::vector<HeapEntry> heap_;
  std::vector<std::unique_ptr<EventSlot[]>> chunks_;
  std::vector<uint32_t> free_;
  uint32_t slot_count_ = 0;
  std::function<void(SimTime, EventId)> trace_sink_;
};

}  // namespace gqp

#endif  // GRIDQP_SIM_SIMULATOR_H_
