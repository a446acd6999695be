#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

// ceil(pct/100 * n) in integer arithmetic on tenths of a percent, so that
// e.g. p99.9 of 10000 samples is exactly rank 9990.
size_t NearestRank(double pct, size_t n) {
  const auto tenths = static_cast<size_t>(std::llround(pct * 10.0));
  return std::clamp<size_t>((tenths * n + 999) / 1000, 1, n);
}

}  // namespace

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Tail TailOf(std::vector<double> values, double max_pct) {
  Tail tail;
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  tail.samples = n;
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (pct > max_pct) continue;
    const size_t rank = NearestRank(pct, n);
    if (n - rank >= kMinSamplesBeyond) {
      tail.pct = pct;
      tail.value = values[rank - 1];
      tail.beyond = n - rank;
      return tail;
    }
  }
  tail.pct = 100.0;
  tail.value = values.back();
  return tail;
}

OpenLoopSummary SummarizeOpenLoop(const std::vector<RequestTimes>& requests,
                                  double duration_s) {
  OpenLoopSummary out;
  out.attempted = requests.size();
  std::vector<double> latency;
  std::vector<double> late;
  latency.reserve(requests.size());
  late.reserve(requests.size());
  for (const RequestTimes& r : requests) {
    late.push_back((r.sent - r.due) * 1e3);
    if (!r.ok) {
      ++out.failed;
      continue;
    }
    ++out.completed;
    latency.push_back((r.done - r.due) * 1e3);
  }
  out.p50_ms = Median(latency);
  out.latency_ms = TailOf(std::move(latency), 99.0);
  out.late_ms = TailOf(std::move(late), 99.0);

  // Failed requests are shed at send time or fail fast, so only completed
  // ones can be waiting in the backlog.
  for (int q = 0; q < 4; ++q) {
    const double t = duration_s * (q + 1) / 4.0;
    size_t outstanding = 0;
    for (const RequestTimes& r : requests) {
      if (r.ok && r.sent <= t && r.done > t) ++outstanding;
    }
    out.outstanding[q] = outstanding;
  }
  out.backlog_growing = out.outstanding[3] >= kBacklogFloor &&
                        out.outstanding[0] < out.outstanding[1] &&
                        out.outstanding[1] < out.outstanding[2] &&
                        out.outstanding[2] < out.outstanding[3];
  return out;
}

BlockLatency MedianOfBlocks(const std::vector<RequestTimes>& requests,
                            size_t block) {
  if (block == 0 || block > requests.size()) block = requests.size();
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> rates;
  std::vector<double> latency;
  for (size_t start = 0; block > 0 && start + block <= requests.size();
       start += block) {
    latency.clear();
    double first_due = requests[start].due;
    double last_done = first_due;
    for (size_t i = start; i < start + block; ++i) {
      first_due = std::min(first_due, requests[i].due);
      if (requests[i].ok) {
        latency.push_back((requests[i].done - requests[i].due) * 1e3);
        last_done = std::max(last_done, requests[i].done);
      }
    }
    if (latency.empty()) continue;
    p50s.push_back(Median(latency));
    p99s.push_back(TailOf(latency, 99.0).value);
    if (last_done > first_due) rates.push_back(block / (last_done - first_due));
  }
  BlockLatency out;
  out.blocks = p50s.size();
  out.p50_ms = Median(std::move(p50s));
  out.p99_ms = Median(std::move(p99s));
  out.per_s = Median(std::move(rates));
  return out;
}

}  // namespace perfbench
