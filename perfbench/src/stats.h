// Summary arithmetic of the benchmark: percentiles, medians, open-loop
// latency and lateness accounting, backlog detection and per-block
// summaries. Pure functions over recorded samples, so the known-answer
// tests in tests/selftest.cc pin every formula the reported numbers use.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// A percentile is reported only if at least this many samples lie beyond
/// it; otherwise a lower percentile (or the maximum) is reported instead.
inline constexpr size_t kMinSamplesBeyond = 10;

/// Median (mean of the two middle values for an even count); 0 if empty.
double Median(std::vector<double> values);

/// \brief The highest percentile a sample supports.
struct Tail {
  /// Percentile reported: the highest of 99.9, 99, 95, 90, 75, 50 (up to
  /// the requested cap) with at least kMinSamplesBeyond samples strictly
  /// above its nearest rank, ceil(pct/100 * n); 100 (the maximum) when the
  /// sample is too small for any of them.
  double pct = 0.0;
  double value = 0.0;
  /// Sample count and how many samples lie beyond the reported rank.
  size_t samples = 0;
  size_t beyond = 0;
};

/// The tail of an unsorted sample, at most the `max_pct` percentile;
/// {0, 0, 0, 0} if empty.
Tail TailOf(std::vector<double> values, double max_pct = 99.9);

/// \brief Timestamps of one open-loop request, in seconds from phase start.
struct RequestTimes {
  /// When the schedule said to send it.
  double due = 0.0;
  /// When the generator actually sent it (>= due).
  double sent = 0.0;
  /// When its completion was observed; ignored unless `ok`.
  double done = 0.0;
  /// False for failed, shed, or check-failing requests.
  bool ok = false;
};

/// \brief What an open-loop phase delivered.
struct OpenLoopSummary {
  size_t attempted = 0;
  size_t completed = 0;
  size_t failed = 0;
  /// Latency from due time to completion, over completed requests (ms):
  /// the median and the tail capped at p99.
  double p50_ms = 0.0;
  Tail latency_ms;
  /// How late the generator sent requests (sent - due, ms), capped at p99.
  Tail late_ms;
  /// Outstanding requests at 25/50/75/100% of the phase.
  size_t outstanding[4] = {0, 0, 0, 0};
  /// True when the outstanding count rose at every quarter and ended at or
  /// above kBacklogFloor: the system fell behind the offered rate.
  bool backlog_growing = false;
};

inline constexpr size_t kBacklogFloor = 32;

/// Summarizes a phase of `duration_s` seconds. Latency percentiles cover
/// completed requests.
OpenLoopSummary SummarizeOpenLoop(const std::vector<RequestTimes>& requests,
                                  double duration_s);

/// \brief Latency percentiles and throughput taken per block of requests.
///
/// The requests (in send order) are cut into consecutive blocks of `block`
/// requests, a partial last block dropped; each block's p50 and p99 (over
/// its completed requests) and its throughput (the block's requests over
/// the time from its first due time to its last completion) are taken, and
/// the medians across blocks are reported. A stall of the host then moves
/// the blocks it falls into, not the run's figures. With no full block, the
/// whole phase is one block.
struct BlockLatency {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double per_s = 0.0;
  size_t blocks = 0;
};

BlockLatency MedianOfBlocks(const std::vector<RequestTimes>& requests,
                            size_t block);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
