// Value: the runtime datum type flowing through the engine (null, int64,
// double, string).

#ifndef GRIDQP_STORAGE_VALUE_H_
#define GRIDQP_STORAGE_VALUE_H_

#include <cstdint>
#include <new>
#include <string>
#include <utility>

namespace gqp {

/// Column/value types known to the engine.
enum class DataType : uint8_t {
  kNull = 0,
  kInt64 = 1,
  kDouble = 2,
  kString = 3,
};

std::string_view DataTypeToString(DataType type);

/// \brief A single datum.
///
/// Values are small; strings dominate size. Equality and ordering follow
/// SQL semantics except that null == null (needed for hashing) and null
/// sorts first.
///
/// Layout: a hand-rolled 16-byte tagged union rather than std::variant.
/// Rows are copied, compared and destroyed millions of times per second
/// on the join/exchange hot paths, and both the variant's visit-table
/// indirection and an inline std::string payload (40 bytes per value,
/// most of them padding for the non-string case) are measurable there: at
/// 16 bytes a whole row fits in one or two cache lines, which roughly
/// halves the memory traffic of the vectorized join's build and probe
/// loops. String payloads are immutable and live behind a refcounted rep,
/// so copying a string value is a pointer plus refcount bump — cheaper
/// than the SSO copy it replaces. The refcount is non-atomic because the
/// engine is single-threaded by design (DESIGN.md D1).
class Value {
 public:
  Value() : type_(DataType::kNull), i_(0) {}
  explicit Value(int64_t v) : type_(DataType::kInt64), i_(v) {}
  explicit Value(double v) : type_(DataType::kDouble), d_(v) {}
  explicit Value(std::string v)
      : type_(DataType::kString), s_(new StrRep{1, std::move(v)}) {}
  explicit Value(const char* v)
      : type_(DataType::kString), s_(new StrRep{1, std::string(v)}) {}

  Value(const Value& other) : type_(other.type_), i_(other.i_) {
    if (type_ == DataType::kString) ++s_->refs;
  }
  Value(Value&& other) noexcept : type_(other.type_), i_(other.i_) {
    other.type_ = DataType::kNull;
    other.i_ = 0;
  }
  Value& operator=(const Value& other) {
    if (other.type_ == DataType::kString) ++other.s_->refs;
    ReleasePayload();
    type_ = other.type_;
    i_ = other.i_;
    return *this;
  }
  Value& operator=(Value&& other) noexcept {
    if (this != &other) {
      ReleasePayload();
      type_ = other.type_;
      i_ = other.i_;
      other.type_ = DataType::kNull;
      other.i_ = 0;
    }
    return *this;
  }
  ~Value() { ReleasePayload(); }

  static Value Null() { return Value(); }

  bool is_null() const { return type_ == DataType::kNull; }
  DataType type() const { return type_; }

  /// Typed accessors. Preconditions: matching type.
  int64_t AsInt64() const { return i_; }
  double AsDouble() const { return d_; }
  const std::string& AsString() const { return s_->str; }

  /// Numeric coercion: int64 and double both convert; 0.0 for others.
  double ToNumeric() const;

  /// Approximate serialized size in bytes (wire-cost model).
  size_t WireSize() const;

  /// Stable 64-bit hash. This is the replay/fingerprint contract hash:
  /// hash-partitioning and the chaos goldens depend on its exact bytes,
  /// so its definition (FNV-1a with a type-tag seed) never changes.
  uint64_t Hash() const;

  /// Fast 64-bit hash for join-table placement. Placement only decides
  /// which slot a chain lands in — never row content, match sets, or
  /// emission order (chains emit in insertion order) — so unlike Hash()
  /// this one is free to be fast: fixed-width types mix their 8 payload
  /// bytes with a splitmix64 finalizer (3 multiplies, no byte-serial
  /// dependency chain) instead of FNV's 8-round loop. Strings hash their
  /// bytes via Hash(). Equal values always agree, across both the scalar
  /// and vectorized join paths.
  uint64_t JoinHash() const {
    if (type_ == DataType::kString) return Hash();
    uint64_t x = static_cast<uint64_t>(i_) +
                 static_cast<uint64_t>(type_) * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }

  bool operator==(const Value& other) const {
    if (type_ != other.type_) return false;
    switch (type_) {
      case DataType::kNull:
        return true;
      case DataType::kInt64:
        return i_ == other.i_;
      case DataType::kDouble:
        return d_ == other.d_;
      case DataType::kString:
        return s_ == other.s_ || s_->str == other.s_->str;
    }
    return false;
  }
  bool operator!=(const Value& other) const { return !(*this == other); }
  bool operator<(const Value& other) const;

  std::string ToString() const;

 private:
  /// Immutable shared string payload.
  struct StrRep {
    uint32_t refs;
    std::string str;
  };

  void ReleasePayload() {
    if (type_ == DataType::kString && --s_->refs == 0) delete s_;
  }

  DataType type_;
  union {
    int64_t i_;
    double d_;
    StrRep* s_;
  };
};

static_assert(sizeof(Value) == 16, "Value is two machine words");

}  // namespace gqp

#endif  // GRIDQP_STORAGE_VALUE_H_
