// stream_feed: online telemetry. 1M two-value unit segments from 1000
// devices, time-major so groups interleave, fed in 1024-row IngestChunk
// calls with TakeEmitted after each chunk, then Finalize.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "datasets/synthetic.h"
#include "pta/query.h"
#include "pta/stream_api.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kDevices = 1000;
constexpr size_t kPerDevice = 1000;
constexpr size_t kChunkRows = 1024;
constexpr size_t kBudget = 20'000;
constexpr int64_t kLag = 50;
constexpr int kStartsPerSample = 2000;

pta::PtaQuery FeedQuery() {
  pta::StreamingOptions options;
  options.auto_watermark_lag = kLag;
  return pta::PtaQuery::Stream(2)
      .Budget(pta::Budget::Size(kBudget))
      .Streaming(options);
}

using Runs = std::map<int32_t, std::vector<std::pair<int64_t, int64_t>>>;

// Per group, the chronons covered, as sorted maximal runs. Returns false if
// two rows of one group overlap.
bool CoveredRuns(const std::vector<const pta::SequentialRelation*>& parts,
                 Runs* out) {
  std::map<int32_t, std::vector<std::pair<int64_t, int64_t>>> rows;
  for (const pta::SequentialRelation* part : parts) {
    for (size_t i = 0; i < part->size(); ++i) {
      rows[part->group(i)].emplace_back(part->interval(i).begin,
                                        part->interval(i).end);
    }
  }
  out->clear();
  for (auto& [group, intervals] : rows) {
    std::sort(intervals.begin(), intervals.end());
    auto& runs = (*out)[group];
    for (const auto& [b, e] : intervals) {
      if (!runs.empty() && b <= runs.back().second) return false;
      if (!runs.empty() && b == runs.back().second + 1) {
        runs.back().second = e;
      } else {
        runs.emplace_back(b, e);
      }
    }
  }
  return true;
}

struct Feed {
  double seconds = 0.0;
  std::vector<double> chunk_s;
  std::vector<pta::SequentialRelation> outputs;
  pta::StreamingStats stats;
  bool ok = true;
};

Feed RunFeed(const Context& ctx, const std::vector<pta::SequentialRelation>& chunks,
             uint64_t feed_id) {
  Tracer& tracer = *ctx.tracer;
  Report& report = *ctx.report;
  Feed feed;
  pta::Result<pta::StreamingQuery> handle = FeedQuery().Start();
  if (!report.Check(handle.ok(), "Start: " + handle.status().ToString())) {
    feed.ok = false;
    return feed;
  }
  feed.chunk_s.reserve(chunks.size());
  feed.outputs.reserve(chunks.size() + 1);
  const double t0 = NowS();
  {
    ScopedSpan root(tracer, "stream.feed", feed_id);
    for (const pta::SequentialRelation& chunk : chunks) {
      const double c0 = NowS();
      report.Attempt();
      pta::Status status;
      {
        ScopedSpan span(tracer, "stream.ingest", feed_id);
        status = handle->IngestChunk(chunk);
      }
      if (!status.ok()) {
        report.Fail();
        report.CheckFailed("IngestChunk: " + status.ToString());
        feed.ok = false;
        return feed;
      }
      {
        ScopedSpan span(tracer, "stream.take_emitted", feed_id);
        feed.outputs.push_back(handle->TakeEmitted());
      }
      feed.chunk_s.push_back(NowS() - c0);
    }
    report.Attempt();
    pta::Result<pta::SequentialRelation> final_rows = [&] {
      ScopedSpan span(tracer, "stream.finalize", feed_id);
      return handle->Finalize();
    }();
    if (!final_rows.ok()) {
      report.Fail();
      report.CheckFailed("Finalize: " + final_rows.status().ToString());
      feed.ok = false;
      return feed;
    }
    feed.outputs.push_back(std::move(*final_rows));
  }
  feed.seconds = NowS() - t0;
  feed.stats = handle->stats();
  return feed;
}

}  // namespace

void RunStreamFeed(const Context& ctx) {
  Report& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);

  // Inputs: device-major generation, reordered time-major into chunks.
  const pta::SequentialRelation input =
      pta::GenerateSyntheticSequential(kDevices, kPerDevice, 2, ctx.seed);
  std::vector<pta::SequentialRelation> chunks;
  for (size_t t = 0; t < kPerDevice; ++t) {
    for (size_t g = 0; g < kDevices; ++g) {
      if (chunks.empty() || chunks.back().size() == kChunkRows) {
        chunks.emplace_back(2);
        chunks.back().Reserve(kChunkRows);
      }
      const size_t row = g * kPerDevice + t;
      chunks.back().Append(input.group(row), input.interval(row),
                           input.values(row));
    }
  }
  Runs input_runs;
  CoveredRuns({&input}, &input_runs);

  // Set-up: binding the streaming query to an engine. One Start() takes a
  // few hundred nanoseconds, so a sample times kStartsPerSample of them
  // (with the handles' teardown) and reports the time per Start(). One
  // sample is taken before the feeds (and dropped: it warms the allocator
  // up) and one after each feed, so the median spans the whole run rather
  // than the few milliseconds after start-up.
  std::vector<double> setup_s;
  auto setup_sample = [&]() -> bool {
    const double t0 = NowS();
    for (int k = 0; k < kStartsPerSample; ++k) {
      pta::Result<pta::StreamingQuery> handle = FeedQuery().Start();
      if (!report.Check(handle.ok(), "Start: " + handle.status().ToString())) {
        return false;
      }
    }
    setup_s.push_back((NowS() - t0) / kStartsPerSample);
    return true;
  };
  if (!setup_sample()) return;
  setup_s.clear();

  const size_t max_live_bound = kBudget + kLag * kDevices + kChunkRows + 1;
  uint64_t first_digest = 0;
  pta::StreamingStats first_stats;
  std::vector<double> feed_s;
  std::vector<double> untraced_feed_s;
  std::vector<double> chunk_s;
  const double deadline = NowS() + ctx.seconds;
  for (uint64_t id = 0; id < 3 || NowS() < deadline; ++id) {
    // Feed 0 warms up and is only checked. Traced runs then alternate
    // traced feeds with untraced ones (the overhead baseline).
    tracer.set_enabled(traced && id % 2 == 1);
    // A traced feed runs on the CPU of the untraced feed before it.
    PinToCpu(traced ? id / 2 : id);
    Feed feed = RunFeed(ctx, chunks, id);
    if (!feed.ok) return;
    if (id > 0) {
      (tracer.enabled() || !traced ? feed_s : untraced_feed_s)
          .push_back(feed.seconds);
      chunk_s.insert(chunk_s.end(), feed.chunk_s.begin(), feed.chunk_s.end());
    }

    uint64_t digest = 0;
    std::vector<const pta::SequentialRelation*> parts;
    for (const pta::SequentialRelation& part : feed.outputs) {
      digest = DigestRelation(digest, part);
      parts.push_back(&part);
    }
    Runs output_runs;
    bool ok = report.Check(CoveredRuns(parts, &output_runs),
                           "feed output rows overlap within a group");
    ok &= report.Check(output_runs == input_runs,
                       "feed output does not cover exactly the input chronons");
    ok &= report.Check(feed.stats.max_live_rows <= max_live_bound,
                       "max live rows " + std::to_string(feed.stats.max_live_rows) +
                           " above " + std::to_string(max_live_bound));
    if (id == 0) {
      first_digest = digest;
      first_stats = feed.stats;
    } else {
      ok &= report.Check(digest == first_digest &&
                             feed.stats.merges == first_stats.merges &&
                             feed.stats.max_live_rows == first_stats.max_live_rows,
                         "feed " + std::to_string(id) + " differs from feed 0");
    }
    if (!ok) report.Fail();
    if (!setup_sample()) return;
  }
  tracer.set_enabled(traced);
  report.Set("setup_s", Median(setup_s), "s");

  report.Note("output_digest", Hex(first_digest));
  report.Note("timed_feeds", std::to_string(feed_s.size() + untraced_feed_s.size()));
  report.Note("merges", std::to_string(first_stats.merges));
  report.Note("max_live_rows", std::to_string(first_stats.max_live_rows));
  const double rows = static_cast<double>(input.size());
  const Tail chunk_tail = TailOf(chunk_s, 99.0);
  report.Note("chunk_tail_percentile", JsonNumber(chunk_tail.pct));
  report.Note("chunk_samples", std::to_string(chunk_tail.samples));

  if (!traced) {
    report.Set("throughput_per_s", rows / Median(feed_s), "1/s");
    report.Set("p50_ms", Median(chunk_s) * 1e3, "ms");
    report.Set("p99_ms", chunk_tail.value * 1e3, "ms");
    report.Set("stream_rows_per_s", rows / Median(feed_s), "1/s");
    report.Set("chunk_p99_ms", chunk_tail.value * 1e3, "ms");
    return;
  }
  const SelfTimes self = SelfTimeByRequest(tracer.spans());
  report.Set("stream.ingest_s", MedianSelf(self, "stream.ingest"), "s");
  report.Set("stream.take_emitted_s", MedianSelf(self, "stream.take_emitted"), "s");
  report.Set("stream.finalize_s", MedianSelf(self, "stream.finalize"), "s");
  report.Set("stream.merges", static_cast<double>(first_stats.merges), "count");
  report.Set("stream.early_merges", static_cast<double>(first_stats.early_merges),
             "count");
  report.Set("stream.emitted_rows", static_cast<double>(first_stats.emitted),
             "count");
  report.Set("stream.max_live_rows", static_cast<double>(first_stats.max_live_rows),
             "count");
  report.Set("trace.overhead_ratio", Median(feed_s) / Median(untraced_feed_s),
             "ratio");
}

uint64_t DigestRelation(uint64_t h, const pta::SequentialRelation& rel) {
  const size_t p = rel.num_aggregates();
  h = MixDigest(h, rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    h = MixDigest(h, static_cast<uint64_t>(rel.group(i)));
    h = MixDigest(h, static_cast<uint64_t>(rel.interval(i).begin));
    h = MixDigest(h, static_cast<uint64_t>(rel.interval(i).end));
    const double* values = rel.values(i);
    for (size_t d = 0; d < p; ++d) {
      uint64_t bits;
      std::memcpy(&bits, &values[d], sizeof(bits));
      h = MixDigest(h, bits);
    }
  }
  return h;
}

}  // namespace perfbench
