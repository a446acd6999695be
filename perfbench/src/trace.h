// In-memory trace spans recorded by the benchmark around each call into a
// layer's public functions, written at exit as Chrome Trace Event JSON
// (loads in about:tracing or Perfetto). Per-layer self time is computed
// from the spans: a span's duration minus the part of its interval that
// its child spans cover, overlapping children counted once.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
int64_t NowNs();

struct Span {
  /// A string literal naming the layer call, e.g. "core.ita".
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// Index of the enclosing span, -1 for a root.
  int32_t parent = -1;
  /// Shared by every span of one request or operation.
  uint64_t request_id = 0;
  uint32_t thread = 0;
};

/// \brief Span recorder. Disabled recorders cost one branch per call.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span whose parent is the innermost span this thread has open;
  /// returns its index, or -1 when disabled.
  int32_t Begin(const char* name, uint64_t request_id);
  /// Closes a span opened by Begin on this thread.
  void End(int32_t index);
  /// Records a finished span with an explicit parent (for asynchronous
  /// requests observed from the issuing thread). Returns its index.
  int32_t Record(const char* name, int64_t start_ns, int64_t end_ns,
                 int32_t parent, uint64_t request_id);

  std::vector<Span> spans() const;

  /// Writes at most `max_events` spans (the rest are counted in
  /// otherData.dropped_spans). `other_data` is a JSON object text.
  bool WriteChromeTrace(const std::string& path, const std::string& other_data,
                        size_t max_events) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// \brief RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* name, uint64_t request_id = 0)
      : tracer_(tracer), index_(tracer.Begin(name, request_id)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

/// Self time of every span (same indexing as `spans`), in nanoseconds.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

/// Self time per span name and request id, seconds: each operation's
/// share of a layer.
using SelfTimes = std::map<std::string, std::map<uint64_t, double>>;
SelfTimes SelfTimeByRequest(const std::vector<Span>& spans);

/// The median over request ids of a layer's self time; 0 if no span has
/// that name.
double MedianSelf(const SelfTimes& self, const std::string& name);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
