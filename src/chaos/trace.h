// Event-trace recording for replay-determinism checks. The simulator's
// (time, id) dispatch stream is a complete fingerprint of a run: event ids
// are scheduling sequence numbers, so two runs with byte-identical traces
// scheduled and executed exactly the same events at exactly the same
// virtual times.

#ifndef GRIDQP_CHAOS_TRACE_H_
#define GRIDQP_CHAOS_TRACE_H_

#include <cstdint>
#include <string>

#include "sim/simulator.h"

namespace gqp {
namespace chaos {

/// \brief Serializes a simulator's event dispatch stream.
///
/// Each executed event appends one line "<time-hex>:<id>\n" (times are
/// rendered from the double's exact bit pattern, so equality of traces is
/// equality of the runs, not of rounded representations). A running
/// FNV-1a hash is always maintained; the full serialized trace is kept
/// only when requested (determinism tests compare traces byte-for-byte;
/// the sweep compares hashes).
class EventTraceRecorder {
 public:
  explicit EventTraceRecorder(bool keep_full = false)
      : keep_full_(keep_full) {}

  /// Installs this recorder as the simulator's trace sink (replacing any
  /// other). The recorder must outlive the simulation or be detached.
  void Attach(Simulator* sim);

  /// Removes the sink. Safe to call when not attached.
  static void Detach(Simulator* sim);

  /// Appends one dispatched event (the simulator's trace sink calls it).
  void Record(SimTime time, EventId id);

  uint64_t hash() const { return hash_; }
  uint64_t events() const { return events_; }
  /// Empty unless constructed with keep_full = true.
  const std::string& trace() const { return trace_; }

 private:
  bool keep_full_;
  uint64_t hash_ = 14695981039346656037ULL;  // FNV-1a offset basis
  uint64_t events_ = 0;
  std::string trace_;
};

/// First line number (1-based) at which two serialized traces differ;
/// 0 when they are identical. Diagnostic for determinism failures.
size_t FirstTraceDivergence(const std::string& a, const std::string& b);

}  // namespace chaos
}  // namespace gqp

#endif  // GRIDQP_CHAOS_TRACE_H_
