// Attribute values for temporal relations: a small null/int/double/string
// variant with a total order (used to sort and hash aggregation-group keys).

#ifndef PTA_CORE_VALUE_H_
#define PTA_CORE_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace pta {

/// Declared type of a non-temporal attribute.
enum class ValueType {
  kNull = 0,
  kInt64,
  kDouble,
  kString,
};

/// Human-readable name of a ValueType ("null", "int64", ...).
const char* ValueTypeName(ValueType type);

/// \brief A single attribute value: null, int64, double, or string.
///
/// Values of different runtime types never compare equal; the total order
/// sorts first by type, then by payload, which gives aggregation groups a
/// deterministic order.
class Value {
 public:
  /// Null value.
  Value() : v_(std::monostate{}) {}
  /// Integer value. Implicit: literals like Value(3) read naturally in tests.
  Value(int64_t v) : v_(v) {}
  Value(int v) : v_(static_cast<int64_t>(v)) {}
  /// Floating-point value.
  Value(double v) : v_(v) {}
  /// String value.
  Value(std::string v) : v_(std::move(v)) {}
  Value(const char* v) : v_(std::string(v)) {}

  ValueType type() const { return static_cast<ValueType>(v_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }

  /// Accessors; calling the wrong one is a programmer error.
  int64_t AsInt64() const;
  double AsDoubleExact() const;
  const std::string& AsString() const;

  /// Numeric coercion for aggregation: int64 and double convert, everything
  /// else is an error reported by the aggregation layer before this is hit.
  double ToDouble() const;
  bool IsNumeric() const {
    return type() == ValueType::kInt64 || type() == ValueType::kDouble;
  }

  bool operator==(const Value& other) const { return v_ == other.v_; }
  bool operator<(const Value& other) const;

  /// 64-bit hash, suitable for unordered grouping maps.
  uint64_t Hash() const;

  /// Renders the payload ("null", "42", "3.5", "abc").
  std::string ToString() const;

 private:
  std::variant<std::monostate, int64_t, double, std::string> v_;
};

/// A grouping key: the tuple's values on the grouping attributes (Def. 1's g).
using GroupKey = std::vector<Value>;

/// Lexicographic comparison of group keys.
bool GroupKeyLess(const GroupKey& a, const GroupKey& b);

/// Combined hash of a group key: GroupKeyHashFold over its values' hashes,
/// starting from kGroupKeyHashSeed.
uint64_t GroupKeyHash(const GroupKey& key);
inline constexpr uint64_t kGroupKeyHashSeed = 0x9e3779b97f4a7c15ULL;
inline uint64_t GroupKeyHashFold(uint64_t h, uint64_t value_hash) {
  return h ^ (value_hash + kGroupKeyHashSeed + (h << 6) + (h >> 2));
}

/// Renders "(v1, v2, ...)".
std::string GroupKeyToString(const GroupKey& key);

struct GroupKeyHasher {
  size_t operator()(const GroupKey& key) const {
    return static_cast<size_t>(GroupKeyHash(key));
  }
};

}  // namespace pta

#endif  // PTA_CORE_VALUE_H_
