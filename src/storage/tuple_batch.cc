#include "storage/tuple_batch.h"

namespace gqp {

void TupleBatch::FillColumn(size_t col, std::vector<const Value*>* view) const {
  view->clear();
  view->reserve(tuples_.size());
  for (const Tuple& t : tuples_) {
    view->push_back(col < t.size() ? &t.at(col) : nullptr);
  }
}

void TupleBatch::Compact(const std::vector<unsigned char>& mask) {
  const bool derived = !parents_.empty();
  size_t keep = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    if (mask[i] == 0) continue;
    if (keep != i) {
      tuples_[keep] = std::move(tuples_[i]);
      buckets_[keep] = buckets_[i];
      origins_[keep] = origins_[i];
      if (derived) parents_[keep] = parents_[i];
    }
    ++keep;
  }
  tuples_.resize(keep);
  buckets_.resize(keep);
  origins_.resize(keep);
  if (derived) parents_.resize(keep);
}

}  // namespace gqp
