// Tuple: an immutable row handle. Copies are cheap (shared payload), which
// matters because the exchange machinery keeps tuples simultaneously in
// producer recovery logs, consumer queues and operator state.
//
// Layout (see DESIGN.md "Performance engineering"): one packed allocation
// holds the refcount, the schema handle, a memoized wire size and the
// value array inline — one malloc per row instead of the former
// shared_ptr-control-block + vector pair, and a copy is a single
// non-atomic increment (the engine is single-threaded by design, DESIGN.md
// D1). WireSize() walks the values once and caches the result; values are
// immutable, so the memo can never go stale.

#ifndef GRIDQP_STORAGE_TUPLE_H_
#define GRIDQP_STORAGE_TUPLE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "storage/schema.h"
#include "storage/value.h"

namespace gqp {

/// \brief A reference-counted row.
class Tuple {
 public:
  Tuple() = default;
  Tuple(SchemaPtr schema, std::vector<Value> values);

  Tuple(const Tuple& other) : rep_(other.rep_) {
    if (rep_ != nullptr) ++rep_->refs;
  }
  Tuple(Tuple&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Tuple& operator=(const Tuple& other) {
    if (other.rep_ != nullptr) ++other.rep_->refs;
    Unref();
    rep_ = other.rep_;
    return *this;
  }
  Tuple& operator=(Tuple&& other) noexcept {
    if (this != &other) {
      Unref();
      rep_ = other.rep_;
      other.rep_ = nullptr;
    }
    return *this;
  }
  ~Tuple() { Unref(); }

  bool valid() const { return rep_ != nullptr; }
  const SchemaPtr& schema() const {
    static const SchemaPtr kNoSchema;
    return rep_ != nullptr ? rep_->schema : kNoSchema;
  }
  size_t size() const { return rep_ != nullptr ? rep_->size : 0; }

  /// Column accessor. Precondition: i < size().
  const Value& at(size_t i) const { return data()[i]; }
  const Value& operator[](size_t i) const { return at(i); }

  /// First element of the packed value array (nullptr for an invalid
  /// tuple). Two tuples share payload iff their data() pointers are equal.
  const Value* data() const {
    return rep_ != nullptr ? ValuesOf(rep_) : nullptr;
  }

  /// Serialized size in bytes for the network cost model. Memoized: the
  /// first call walks the values, later calls are a load.
  size_t WireSize() const;

  /// Concatenates two tuples under a combined schema (join output) in a
  /// single packed allocation.
  static Tuple Concat(const SchemaPtr& schema, const Tuple& left,
                      const Tuple& right);

  bool operator==(const Tuple& other) const;

  std::string ToString() const;

 private:
  /// Packed-row header; `size` Values follow immediately after it in the
  /// same allocation.
  struct Rep {
    uint32_t refs;
    uint32_t size;
    size_t wire_size;  // 0 = not yet computed (real sizes are >= 8)
    SchemaPtr schema;
  };
  static_assert(sizeof(Rep) % alignof(Value) == 0 &&
                    alignof(Rep) >= alignof(Value),
                "value array must start aligned after the header");

  /// Allocates a Rep with refs=1 and room for `n` values; the caller
  /// placement-constructs the values.
  static Rep* NewRep(SchemaPtr schema, uint32_t n);

  static Value* ValuesOf(Rep* rep) {
    return reinterpret_cast<Value*>(reinterpret_cast<unsigned char*>(rep) +
                                    sizeof(Rep));
  }

  explicit Tuple(Rep* rep) : rep_(rep) {}

  void Unref() {
    if (rep_ != nullptr && --rep_->refs == 0) Destroy(rep_);
    rep_ = nullptr;
  }
  static void Destroy(Rep* rep);

  Rep* rep_ = nullptr;
};

}  // namespace gqp

#endif  // GRIDQP_STORAGE_TUPLE_H_
