#include "chaos/trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace gqp {
namespace chaos {

void EventTraceRecorder::Attach(Simulator* sim) {
  sim->set_trace_sink(
      [this](SimTime time, EventId id) { Record(time, id); });
}

void EventTraceRecorder::Detach(Simulator* sim) {
  sim->set_trace_sink(nullptr);
}

void EventTraceRecorder::Record(SimTime time, EventId id) {
  // Exact bit pattern of the timestamp: two traces are equal iff the runs
  // were (no rounding ambiguity).
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(time));
  std::memcpy(&bits, &time, sizeof(bits));
  char line[48];
  const int n = std::snprintf(line, sizeof(line), "%016llx:%llu\n",
                              static_cast<unsigned long long>(bits),
                              static_cast<unsigned long long>(id));
  for (int i = 0; i < n; ++i) {
    hash_ ^= static_cast<unsigned char>(line[i]);
    hash_ *= 1099511628211ULL;  // FNV-1a prime
  }
  ++events_;
  if (keep_full_) trace_.append(line, static_cast<size_t>(n));
}

size_t FirstTraceDivergence(const std::string& a, const std::string& b) {
  if (a == b) return 0;
  size_t line = 1;
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i] != b[i]) return line;
    if (a[i] == '\n') ++line;
  }
  return line;
}

}  // namespace chaos
}  // namespace gqp
