#include "chaos/trace.h"

#include <algorithm>
#include <charconv>
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
  // were (no rounding ambiguity). The line is "%016llx:%llu\n", rendered
  // without printf: it runs once per dispatched event.
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(time));
  std::memcpy(&bits, &time, sizeof(bits));
  static constexpr char kHex[] = "0123456789abcdef";
  char line[40];
  for (int i = 0; i < 16; ++i) line[i] = kHex[(bits >> (60 - 4 * i)) & 0xF];
  line[16] = ':';
  char* end = std::to_chars(line + 17, line + sizeof(line) - 1, id).ptr;
  *end++ = '\n';
  for (const char* c = line; c != end; ++c) {
    hash_ ^= static_cast<unsigned char>(*c);
    hash_ *= 1099511628211ULL;  // FNV-1a prime
  }
  ++events_;
  if (keep_full_) trace_.append(line, end);
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
