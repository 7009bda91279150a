// TupleBatch: a column-addressable run of tuples, the unit of work of the
// execution engine (DESIGN.md §D13). A batch carries, per row,
// the tuple itself, the logical exchange bucket it was routed to, and the
// row's *origin* — its index in the batch the driver popped from the input
// queue — so per-input-tuple bookkeeping (retained flags, the
// output-to-input acknowledgment cascade) survives filtering and joins
// that reshape the row set. Rows an operator derives from its input also
// record their *parent*, the index of the input row they came from, so the
// driver can charge the batch row by row, depth first.
//
// Batches are transient scratch space: operators consume one batch and
// append to the next, so the backing vectors are reused across steps
// (Clear keeps capacity).

#ifndef GRIDQP_STORAGE_TUPLE_BATCH_H_
#define GRIDQP_STORAGE_TUPLE_BATCH_H_

#include <cstdint>
#include <vector>

#include "storage/tuple.h"

namespace gqp {

class TupleBatch {
 public:
  TupleBatch() = default;

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  /// Drops all rows, keeping the backing capacity (batches are recycled
  /// across chain steps).
  void Clear() {
    tuples_.clear();
    buckets_.clear();
    origins_.clear();
    parents_.clear();
  }

  /// Appends an input row. Input rows have no parent: a batch holds
  /// either input rows (Append) or derived rows (AppendDerived).
  void Append(Tuple tuple, int bucket, uint32_t origin) {
    tuples_.push_back(std::move(tuple));
    buckets_.push_back(bucket);
    origins_.push_back(origin);
  }

  /// Appends an operator output derived from row `i` of `in`: bucket -1
  /// (outputs are not partitioned within a fragment), in's origin,
  /// parent i.
  void AppendDerived(Tuple tuple, const TupleBatch& in, size_t i) {
    tuples_.push_back(std::move(tuple));
    buckets_.push_back(-1);
    origins_.push_back(in.origin(i));
    parents_.push_back(static_cast<uint32_t>(i));
  }

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  int bucket(size_t i) const { return buckets_[i]; }
  uint32_t origin(size_t i) const { return origins_[i]; }
  /// Each derived row's parent; empty for a batch of input rows.
  const std::vector<uint32_t>& parents() const { return parents_; }

  /// Keeps exactly the rows with mask[i] != 0 (stable order). mask must
  /// have size() entries.
  void Compact(const std::vector<unsigned char>& mask);

  /// Moves row i's tuple out (tail-of-chain handoff into the staged
  /// output); the batch is in a moved-from state afterwards.
  Tuple TakeTuple(size_t i) { return std::move(tuples_[i]); }

 private:
  std::vector<Tuple> tuples_;
  std::vector<int> buckets_;
  std::vector<uint32_t> origins_;
  std::vector<uint32_t> parents_;
};

}  // namespace gqp

#endif  // GRIDQP_STORAGE_TUPLE_BATCH_H_
