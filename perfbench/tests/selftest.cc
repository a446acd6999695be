// Known-answer tests for the benchmark's own arithmetic: percentiles and
// their sample counts, self time under overlapping child spans, open-loop
// latency/lateness accounting, backlog detection and per-block latency
// and throughput. Exits 0 when every check holds; run.py runs it before
// every benchmark run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what, int line) {
  if (!ok) {
    ++failures;
    std::printf("selftest FAILED line %d: %s\n", line, what);
  }
}
#define EXPECT(cond) Expect((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9 * (1 + std::fabs(b)); }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void TestPercentiles() {
  using perfbench::TailOf;
  // 1000 samples: p99 is rank 990 with exactly 10 samples beyond it.
  perfbench::Tail t = TailOf(OneTo(1000));
  EXPECT(t.pct == 99.0 && t.value == 990 && t.beyond == 10 && t.samples == 1000);
  // 999 samples: p99 (rank 990) has only 9 beyond, so p95 (rank 950).
  t = TailOf(OneTo(999));
  EXPECT(t.pct == 95.0 && t.value == 950 && t.beyond == 49 && t.samples == 999);
  // 10000 samples support p99.9 (rank 9990, 10 beyond).
  t = TailOf(OneTo(10000));
  EXPECT(t.pct == 99.9 && t.value == 9990 && t.beyond == 10);
  // ... unless capped at p99 (rank 9900, 100 beyond).
  t = TailOf(OneTo(10000), 99.0);
  EXPECT(t.pct == 99.0 && t.value == 9900 && t.beyond == 100);
  // 20 samples: p75 (rank 15) has 5 beyond; p50 (rank 10) has 10.
  t = TailOf(OneTo(20));
  EXPECT(t.pct == 50.0 && t.value == 10 && t.beyond == 10);
  // Too few samples for any percentile: the maximum.
  t = TailOf(OneTo(5));
  EXPECT(t.pct == 100.0 && t.value == 5 && t.beyond == 0 && t.samples == 5);
  t = TailOf({});
  EXPECT(t.samples == 0 && t.value == 0);

  EXPECT(perfbench::Median({3, 1, 2}) == 2);
  EXPECT(perfbench::Median({4, 1, 3, 2}) == 2.5);
  EXPECT(perfbench::Median({}) == 0);
}

void TestSelfTime() {
  using perfbench::Span;
  // Parent [0,100]; children [10,30] and [20,50] overlap, [90,120] runs
  // past the parent's end. Covered: [10,50] + [90,100] = 50, so self = 50.
  // The grandchild [12,18] is inside child 1: child 1's self is 20 - 6.
  std::vector<Span> spans = {
      {"root", 0, 100, -1, 7, 1},  {"a", 10, 30, 0, 7, 1},
      {"b", 20, 50, 0, 7, 2},      {"c", 90, 120, 0, 7, 2},
      {"a.child", 12, 18, 1, 7, 1}, {"other", 200, 260, -1, 8, 1},
  };
  const std::vector<int64_t> self = perfbench::SelfTimesNs(spans);
  EXPECT(self[0] == 50);
  EXPECT(self[1] == 14);
  EXPECT(self[2] == 30 && self[3] == 30 && self[4] == 6 && self[5] == 60);

  // Per name and request: "a" has one span in request 7 (self 14 ns);
  // request medians over one request are that request's value.
  const perfbench::SelfTimes by_request = perfbench::SelfTimeByRequest(spans);
  EXPECT(Near(by_request.at("root").at(7), 50e-9));
  EXPECT(Near(by_request.at("a").at(7), 14e-9));
  EXPECT(Near(perfbench::MedianSelf(by_request, "other"), 60e-9));
  EXPECT(perfbench::MedianSelf(by_request, "missing") == 0.0);

  // Recording through the tracer nests by scope.
  perfbench::Tracer tracer(true);
  {
    perfbench::ScopedSpan outer(tracer, "outer", 1);
    perfbench::ScopedSpan inner(tracer, "inner", 1);
  }
  tracer.Record("async", 5, 9, 0, 2);
  const std::vector<Span> recorded = tracer.spans();
  EXPECT(recorded.size() == 3 && recorded[0].parent == -1 &&
         recorded[1].parent == 0 && recorded[2].parent == 0);
  EXPECT(recorded[1].start_ns >= recorded[0].start_ns &&
         recorded[1].end_ns <= recorded[0].end_ns);
  perfbench::Tracer off(false);
  { perfbench::ScopedSpan span(off, "x"); }
  EXPECT(off.spans().empty());
}

void TestOpenLoop() {
  using perfbench::RequestTimes;
  // Due every 0.1 s for 1 s. Request 3 is sent 0.05 s late; request 5 fails.
  std::vector<RequestTimes> r;
  for (int i = 0; i < 10; ++i) {
    const double due = 0.1 * i;
    const double sent = i == 3 ? due + 0.05 : due;
    // Latency is measured from due: request 3 completes 0.001 s after it
    // was sent, i.e. 51 ms after it was due.
    r.push_back({due, sent, sent + 0.001, i != 5});
  }
  const perfbench::OpenLoopSummary s = perfbench::SummarizeOpenLoop(r, 1.0);
  EXPECT(s.attempted == 10 && s.completed == 9 && s.failed == 1);
  EXPECT(Near(s.p50_ms, 1.0));
  // Nine latencies: eight of 1 ms and one of 51 ms; too few for any
  // percentile with 10 beyond, so the tail is the maximum.
  EXPECT(s.latency_ms.pct == 100 && Near(s.latency_ms.value, 51.0) &&
         s.latency_ms.samples == 9);
  // Lateness covers every request, the failed one too.
  EXPECT(s.late_ms.samples == 10 && Near(s.late_ms.value, 50.0));
  EXPECT(!s.backlog_growing);

  // Overload: each request completes 1.5x later than the previous one, so
  // outstanding work grows through the phase.
  std::vector<RequestTimes> over;
  for (int i = 0; i < 400; ++i) {
    const double due = i * 0.0025;
    over.push_back({due, due, 1.5 * due + 0.001, true});
  }
  const perfbench::OpenLoopSummary g = perfbench::SummarizeOpenLoop(over, 1.0);
  EXPECT(g.outstanding[0] < g.outstanding[1] && g.outstanding[2] < g.outstanding[3]);
  EXPECT(g.outstanding[3] == 133);  // sent by t=1 (400) minus done by t=1 (267)
  EXPECT(g.backlog_growing);
}

void TestBlockLatency() {
  using perfbench::RequestTimes;
  // Three blocks of 1000 requests with latencies 1..1000 us, except that in
  // block 1 every request takes 50 ms more: block p99s are 0.99, 50.99 and
  // 0.99 ms and block p50s 0.5005, 50.5005 and 0.5005 ms, so the medians
  // are 0.99 and 0.5005 ms although the whole phase's p99 is 50.97 ms. The
  // partial fourth block (500 requests of 1 s) is dropped.
  std::vector<RequestTimes> r;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) {
      const double extra = b == 1 ? 0.05 : 0.0;
      r.push_back({0.0, 0.0, i * 1e-6 + extra, true});
    }
  }
  for (int i = 0; i < 500; ++i) r.push_back({0.0, 0.0, 1.0, true});
  perfbench::BlockLatency b = perfbench::MedianOfBlocks(r, 1000);
  EXPECT(b.blocks == 3 && Near(b.p99_ms, 0.99) && Near(b.p50_ms, 0.5005));
  // Block throughputs are 1000 requests over 1 ms, 51 ms and 1 ms: the
  // median is 1e6/s, although the three blocks together ran at 3000 over
  // 53 ms.
  EXPECT(Near(b.per_s, 1e6));
  // With no full block, the whole phase is one block: 3500 samples, p99 at
  // rank 3465 of the sorted latencies, which lies in the 1 s tail, and the
  // p50 at the middle pair (ranks 1750 and 1751) of the first 2000.
  b = perfbench::MedianOfBlocks(r, 5000);
  EXPECT(b.blocks == 1 && Near(b.p99_ms, 1000.0));
  EXPECT(Near(b.p50_ms, (0.875 + 0.876) / 2));
  // Failed requests are left out of their block.
  r[0].ok = false;
  b = perfbench::MedianOfBlocks(r, 1000);
  EXPECT(b.blocks == 3 && Near(b.p50_ms, 0.501));
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestOpenLoop();
  TestBlockLatency();
  if (failures == 0) std::printf("selftest: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
