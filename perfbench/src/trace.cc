#include "trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>

#include "stats.h"

namespace perfbench {
namespace {

// Open spans of this thread, innermost last.
thread_local std::vector<int32_t> open_spans;

// Small sequential thread numbers for the trace viewer's rows.
uint32_t ThreadNumber() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int32_t Tracer::Begin(const char* name, uint64_t request_id) {
  if (!enabled_) return -1;
  const int32_t parent = open_spans.empty() ? -1 : open_spans.back();
  Span span{name, NowNs(), 0, parent, request_id, ThreadNumber()};
  int32_t index;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int32_t>(spans_.size());
    spans_.push_back(span);
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == index) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

int32_t Tracer::Record(const char* name, int64_t start_ns, int64_t end_ns,
                       int32_t parent, uint64_t request_id) {
  if (!enabled_) return -1;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(
      Span{name, start_ns, end_ns, parent, request_id, ThreadNumber()});
  return static_cast<int32_t>(spans_.size() - 1);
}

std::vector<Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& other_data,
                              size_t max_events) const {
  const std::vector<Span> all = spans();
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t origin = all.empty() ? 0 : all.front().start_ns;
  const size_t n = std::min(all.size(), max_events);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (size_t i = 0; i < n; ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"layer\",\"ph\":\"X\","
                 "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,"
                 "\"args\":{\"span\":%zu,\"parent\":%d,\"request_id\":%llu}}\n",
                 i == 0 ? "" : ",", s.name, (s.start_ns - origin) / 1e3,
                 (s.end_ns - s.start_ns) / 1e3, s.thread, i, s.parent,
                 static_cast<unsigned long long>(s.request_id));
  }
  std::fprintf(f, "],\"otherData\":{\"dropped_spans\":%zu,\"run\":%s}}\n",
               all.size() - n, other_data.c_str());
  return std::fclose(f) == 0;
}

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<int32_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(
          static_cast<int32_t>(i));
    }
  }
  std::vector<int64_t> self(spans.size());
  std::vector<std::pair<int64_t, int64_t>> covered;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    covered.clear();
    for (int32_t c : children[i]) {
      const int64_t b = std::max(s.start_ns, spans[static_cast<size_t>(c)].start_ns);
      const int64_t e = std::min(s.end_ns, spans[static_cast<size_t>(c)].end_ns);
      if (b < e) covered.emplace_back(b, e);
    }
    std::sort(covered.begin(), covered.end());
    int64_t union_ns = 0;
    int64_t run_b = 0;
    int64_t run_e = 0;
    bool open = false;
    for (const auto& [b, e] : covered) {
      if (open && b <= run_e) {
        run_e = std::max(run_e, e);
        continue;
      }
      if (open) union_ns += run_e - run_b;
      run_b = b;
      run_e = e;
      open = true;
    }
    if (open) union_ns += run_e - run_b;
    self[i] = (s.end_ns - s.start_ns) - union_ns;
  }
  return self;
}

SelfTimes SelfTimeByRequest(const std::vector<Span>& spans) {
  const std::vector<int64_t> self = SelfTimesNs(spans);
  SelfTimes out;
  for (size_t i = 0; i < spans.size(); ++i) {
    out[spans[i].name][spans[i].request_id] += self[i] / 1e9;
  }
  return out;
}

double MedianSelf(const SelfTimes& self, const std::string& name) {
  const auto it = self.find(name);
  if (it == self.end()) return 0.0;
  std::vector<double> values;
  for (const auto& [request, seconds] : it->second) values.push_back(seconds);
  return Median(std::move(values));
}

}  // namespace perfbench
