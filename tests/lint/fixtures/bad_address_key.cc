// Known-bad fixture for the `address-key` rule: an address cast to an
// integer so it can be hashed into a cache key, with and without the std::
// qualifier and with spacing inside the angle brackets. NOT compiled; only
// linted.
#include <cstdint>

namespace fixture {

uint64_t KeyOf(const void* input) {
  return reinterpret_cast<uintptr_t>(input);  // line 10: bare uintptr_t
}

uint64_t QualifiedKeyOf(const void* input) {
  return reinterpret_cast< std::uintptr_t >(input);  // line 14: std::
}

// Other reinterpret_casts, and uintptr_t in prose or strings, must NOT be
// flagged: reinterpret_cast<uintptr_t>(p) in a comment is fine.
const unsigned char* BytesOf(const double* v) {
  return reinterpret_cast<const unsigned char*>(v);
}
const char* kDoc = "reinterpret_cast<uintptr_t>(p)";

}  // namespace fixture
