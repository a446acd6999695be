// A process-unique stamp naming one version of a container's contents.
//
// Caches key on it instead of on an address: an address outlives the
// contents behind it (in-place updates, freed-and-reused memory), an
// Identity does not. The stamp is minted lazily on first read from a
// global counter and never reused; every mutator resets it, so the next
// read mints a fresh value. A reset is one relaxed store, which keeps the
// shared counter off per-row append paths.

#ifndef PTA_UTIL_IDENTITY_H_
#define PTA_UTIL_IDENTITY_H_

#include <atomic>
#include <cstdint>

namespace pta {

class Identity {
 public:
  Identity() = default;
  // A copy is a new object and mints its own stamp; a move also changes
  // the source's contents, so both sides reset.
  Identity(const Identity&) {}
  Identity(Identity&& other) noexcept { other.Reset(); }
  Identity& operator=(const Identity&) {
    Reset();
    return *this;
  }
  Identity& operator=(Identity&& other) noexcept {
    Reset();
    other.Reset();
    return *this;
  }

  /// The current stamp, minted if a mutation reset it. Concurrent readers
  /// (under a shared lock) agree on one value through the CAS.
  uint64_t Get() const {
    uint64_t current = value_.load(std::memory_order_acquire);
    if (current != kUnminted) return current;
    static std::atomic<uint64_t> next{kUnminted + 1};
    const uint64_t minted = next.fetch_add(1, std::memory_order_relaxed);
    if (value_.compare_exchange_strong(current, minted,
                                       std::memory_order_acq_rel)) {
      return minted;
    }
    return current;  // another reader minted first
  }

  /// Marks the contents changed; call from every mutator.
  void Reset() { value_.store(kUnminted, std::memory_order_relaxed); }

 private:
  static constexpr uint64_t kUnminted = 0;
  mutable std::atomic<uint64_t> value_{kUnminted};
};

}  // namespace pta

#endif  // PTA_UTIL_IDENTITY_H_
