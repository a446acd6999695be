// What one benchmark run reports: named metrics with units, the operation
// counts, the correctness verdict, and the environment stamp.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "trace.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  /// Adds or replaces a metric.
  void Set(const std::string& name, double value, const std::string& unit);
  const Metric* Find(const std::string& name) const;
  const std::vector<Metric>& metrics() const { return metrics_; }

  /// Adds a descriptive key/value (printed and written, never compared).
  void Note(const std::string& key, const std::string& value);
  const std::vector<std::pair<std::string, std::string>>& notes() const {
    return notes_;
  }

  /// Counts operations; a failed one is one that errored, was shed, or
  /// failed an output check.
  void Attempt(uint64_t n = 1) { attempted_ += n; }
  void Fail(uint64_t n = 1) { failed_ += n; }
  /// Records a failed correctness check and prints why.
  void CheckFailed(const std::string& what);
  /// Runs `ok` as a check: returns it, recording `what` when false.
  bool Check(bool ok, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return checks_failed_ == 0 && failed_ == 0; }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t checks_failed_ = 0;
};

/// \brief Everything a workload needs.
struct Context {
  uint64_t seed = 1;
  double seconds = 10.0;
  /// Scratch directory inside the checkout for files the run writes.
  std::string work_dir;
  /// Enabled for traced runs, which report the per-layer metrics.
  Tracer* tracer = nullptr;
  Report* report = nullptr;
};

/// Peak resident set size of this process, MB.
double PeakRssMb();

/// Pins the calling thread to the k-th (mod their count) of the CPUs the
/// process could use when it started. The single-threaded workloads call it
/// before each timed operation, so a run samples every vCPU in turn rather
/// than the one the scheduler happened to keep it on: on a shared 4-vCPU
/// host the vCPUs' speeds differed by a fifth, and which was slow changed
/// within seconds.
void PinToCpu(uint64_t k);

/// 64-bit digest accumulation (order-sensitive).
uint64_t MixDigest(uint64_t h, uint64_t word);
uint64_t DigestBytes(uint64_t h, const std::string& bytes);
/// A digest as 16 hex digits.
std::string Hex(uint64_t digest);

/// Formats a double with all its significant digits (%.17g); non-finite
/// values print as null.
std::string JsonNumber(double v);
std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
