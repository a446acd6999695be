#include "core/value.h"

#include <cstdio>
#include <cstring>

#include "util/check.h"

namespace pta {

namespace {

// 64-bit FNV-1a over raw bytes.
uint64_t FnvHash(const void* data, size_t len, uint64_t seed) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t h = seed ^ 0xcbf29ce484222325ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

const char* ValueTypeName(ValueType type) {
  switch (type) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64:
      return "int64";
    case ValueType::kDouble:
      return "double";
    case ValueType::kString:
      return "string";
  }
  return "unknown";
}

int64_t Value::AsInt64() const {
  PTA_CHECK_MSG(type() == ValueType::kInt64, "Value is not an int64");
  return std::get<int64_t>(v_);
}

double Value::AsDoubleExact() const {
  PTA_CHECK_MSG(type() == ValueType::kDouble, "Value is not a double");
  return std::get<double>(v_);
}

const std::string& Value::AsString() const {
  PTA_CHECK_MSG(type() == ValueType::kString, "Value is not a string");
  return std::get<std::string>(v_);
}

double Value::ToDouble() const {
  switch (type()) {
    case ValueType::kInt64:
      return static_cast<double>(std::get<int64_t>(v_));
    case ValueType::kDouble:
      return std::get<double>(v_);
    default:
      PTA_CHECK_MSG(false, "Value is not numeric");
      return 0.0;
  }
}

bool Value::operator<(const Value& other) const {
  if (type() != other.type()) return type() < other.type();
  switch (type()) {
    case ValueType::kNull:
      return false;
    case ValueType::kInt64:
      return std::get<int64_t>(v_) < std::get<int64_t>(other.v_);
    case ValueType::kDouble:
      return std::get<double>(v_) < std::get<double>(other.v_);
    case ValueType::kString:
      return std::get<std::string>(v_) < std::get<std::string>(other.v_);
  }
  return false;
}

uint64_t Value::Hash() const {
  const uint64_t tag = static_cast<uint64_t>(type());
  switch (type()) {
    case ValueType::kNull:
      return FnvHash(&tag, sizeof(tag), 0);
    case ValueType::kInt64: {
      int64_t x = std::get<int64_t>(v_);
      return FnvHash(&x, sizeof(x), tag);
    }
    case ValueType::kDouble: {
      double x = std::get<double>(v_);
      // Normalize -0.0 so equal values hash equally.
      // Exact by design: matches both zeros to collapse -0.0 onto +0.0
      // before hashing, so equal values hash equally.
      // pta-lint: allow(float-equality) -- exact zero match is the point
      if (x == 0.0) x = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      return FnvHash(&bits, sizeof(bits), tag);
    }
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(v_);
      return FnvHash(s.data(), s.size(), tag);
    }
  }
  return 0;
}

std::string Value::ToString() const {
  switch (type()) {
    case ValueType::kNull:
      return "null";
    case ValueType::kInt64: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld",
                    static_cast<long long>(std::get<int64_t>(v_)));
      return buf;
    }
    case ValueType::kDouble: {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%g", std::get<double>(v_));
      return buf;
    }
    case ValueType::kString:
      return std::get<std::string>(v_);
  }
  return "";
}

bool GroupKeyLess(const GroupKey& a, const GroupKey& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    if (a[i] < b[i]) return true;
    if (b[i] < a[i]) return false;
  }
  return a.size() < b.size();
}

uint64_t GroupKeyHash(const GroupKey& key) {
  uint64_t h = kGroupKeyHashSeed;
  for (const Value& v : key) h = GroupKeyHashFold(h, v.Hash());
  return h;
}

std::string GroupKeyToString(const GroupKey& key) {
  std::string out = "(";
  for (size_t i = 0; i < key.size(); ++i) {
    if (i > 0) out += ", ";
    out += key[i].ToString();
  }
  out += ")";
  return out;
}

}  // namespace pta
