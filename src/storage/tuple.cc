#include "storage/tuple.h"

#include <new>
#include <utility>
#include <vector>

namespace gqp {

namespace {

// Freelist pool of Rep blocks, one size class per value count. Rows churn
// at millions per second through the exchange and join hot paths, and the
// round trip through the global allocator is the single biggest cost of
// materializing a row; recycling fixed-size blocks turns it into a
// pointer pop/push. Safe without locks because the engine is
// single-threaded by design (DESIGN.md D1). The pool itself is
// intentionally leaked so rows destroyed during static teardown never
// touch a dead vector.
constexpr uint32_t kPooledMaxValues = 16;
constexpr size_t kPoolMaxBlocksPerClass = 8192;

std::vector<void*>* PoolForClass(uint32_t n) {
  static std::vector<void*>* pools =
      new std::vector<void*>[kPooledMaxValues + 1];
  return &pools[n];
}

}  // namespace

Tuple::Rep* Tuple::NewRep(SchemaPtr schema, uint32_t n) {
  void* block = nullptr;
  if (n <= kPooledMaxValues) {
    std::vector<void*>* pool = PoolForClass(n);
    if (!pool->empty()) {
      block = pool->back();
      pool->pop_back();
    }
  }
  if (block == nullptr) {
    block = ::operator new(sizeof(Rep) + n * sizeof(Value));
  }
  Rep* rep = ::new (block) Rep{1, n, 0, std::move(schema)};
  return rep;
}

void Tuple::Destroy(Rep* rep) {
  Value* values = ValuesOf(rep);
  const uint32_t n = rep->size;
  for (uint32_t i = n; i > 0; --i) values[i - 1].~Value();
  rep->~Rep();
  if (n <= kPooledMaxValues) {
    std::vector<void*>* pool = PoolForClass(n);
    if (pool->size() < kPoolMaxBlocksPerClass) {
      pool->push_back(rep);
      return;
    }
  }
  ::operator delete(rep);
}

Tuple::Tuple(SchemaPtr schema, std::vector<Value> values)
    : rep_(NewRep(std::move(schema), static_cast<uint32_t>(values.size()))) {
  Value* out = ValuesOf(rep_);
  for (size_t i = 0; i < values.size(); ++i) {
    ::new (static_cast<void*>(out + i)) Value(std::move(values[i]));
  }
}

size_t Tuple::WireSize() const {
  if (rep_ == nullptr) return 8;  // bare row header
  if (rep_->wire_size == 0) {
    size_t bytes = 8;  // row header
    const Value* values = ValuesOf(rep_);
    for (uint32_t i = 0; i < rep_->size; ++i) bytes += values[i].WireSize();
    rep_->wire_size = bytes;
  }
  return rep_->wire_size;
}

Tuple Tuple::Concat(const SchemaPtr& schema, const Tuple& left,
                    const Tuple& right) {
  Rep* rep =
      NewRep(schema, static_cast<uint32_t>(left.size() + right.size()));
  Value* out = ValuesOf(rep);
  for (size_t i = 0; i < left.size(); ++i) {
    ::new (static_cast<void*>(out++)) Value(left.at(i));
  }
  for (size_t i = 0; i < right.size(); ++i) {
    ::new (static_cast<void*>(out++)) Value(right.at(i));
  }
  return Tuple(rep);
}

bool Tuple::operator==(const Tuple& other) const {
  if (rep_ == other.rep_) return true;  // shared payload (or both invalid)
  if (size() != other.size()) return false;
  for (size_t i = 0; i < size(); ++i) {
    if (at(i) != other.at(i)) return false;
  }
  return true;
}

std::string Tuple::ToString() const {
  std::string out = "[";
  for (size_t i = 0; i < size(); ++i) {
    if (i > 0) out += ", ";
    out += at(i).ToString();
  }
  out += "]";
  return out;
}

}  // namespace gqp
