#include "common/interner.h"

#include <mutex>
#include <string>
#include <unordered_set>

namespace gqp {

std::string_view InternString(std::string_view s) {
  // Leaky singleton: interned tags must outlive every node work item,
  // including ones that outlive their submitting executor. The table is
  // process-wide and interning is far off the hot path, so a lock costs
  // nothing measurable and keeps it safe for any caller.
  static std::mutex* mu = new std::mutex();
  static auto* interned = new std::unordered_set<std::string, StringHash,
                                                 std::equal_to<>>();
  std::lock_guard<std::mutex> lock(*mu);
  auto it = interned->find(s);
  if (it == interned->end()) {
    it = interned->emplace(s).first;
  }
  return std::string_view(*it);
}

}  // namespace gqp
