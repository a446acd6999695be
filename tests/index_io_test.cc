// Durable PtaIndex and streaming snapshots (pta/index_io.h,
// StreamingPtaEngine::SaveSnapshot):
//  * the round-trip contract — serialize + deserialize yields an index
//    that is byte-identical to the original (leaves, group keys, merge
//    nodes, and the bitwise error doubles), so every CutToSize /
//    CutToError / MultiBudgetCut after a reload equals both the original
//    index and GmsReduceToSize/-ToError directly;
//  * boundary inputs — empty relation, single segment, p = 0 aggregates,
//    cuts at exactly cmin;
//  * structured rejection of malformed bytes (bad magic, future version,
//    truncation, bit flips, length overflow, trailing garbage) — the
//    exhaustive corruption battery lives in index_io_fuzz_test.cc;
//  * SaveIndex / LoadIndex through a real file, including the IoError
//    path for a missing file;
//  * snapshot round trips — a restored engine replays the rest of the
//    stream byte-identically to one that was never interrupted, pending
//    emissions and finalization state included.

#include "pta/index_io.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "pta/greedy.h"
#include "pta/index.h"
#include "stream/stream.h"
#include "test_util.h"
#include "util/binio.h"
#include "util/random.h"

namespace pta {
namespace {

using testing::ExpectByteIdentical;
using testing::MakeProjIta;
using testing::RandomSequential;

uint64_t Bits(double x) {
  uint64_t u;
  std::memcpy(&u, &x, sizeof(u));
  return u;
}

PtaIndex BuildOrDie(const SequentialRelation& rel,
                    const PtaIndexOptions& options = {}) {
  auto index = PtaIndex::Build(rel, options);
  PTA_CHECK_MSG(index.ok(), index.status().ToString().c_str());
  return std::move(*index);
}

PtaIndex RoundTrip(const PtaIndex& index) {
  auto loaded = DeserializeIndex(SerializeIndex(index));
  PTA_CHECK_MSG(loaded.ok(), loaded.status().ToString().c_str());
  return std::move(*loaded);
}

// Field-by-field byte identity of two indexes: the leaves (memcmp via
// BitwiseEquals), the catalog metadata, and every recorded merge with its
// bitwise error doubles.
void ExpectIndexIdentical(const PtaIndex& a, const PtaIndex& b) {
  EXPECT_TRUE(a.input().BitwiseEquals(b.input()));
  EXPECT_EQ(a.input().group_keys(), b.input().group_keys());
  EXPECT_EQ(a.input().value_names(), b.input().value_names());
  EXPECT_EQ(a.weights(), b.weights());
  EXPECT_EQ(a.merge_across_gaps(), b.merge_across_gaps());
  ASSERT_EQ(a.merges(), b.merges());
  for (size_t j = 0; j < a.merges(); ++j) {
    const PtaIndex::MergeNode& ma = a.merge_nodes()[j];
    const PtaIndex::MergeNode& mb = b.merge_nodes()[j];
    EXPECT_EQ(ma.left, mb.left) << "merge " << j;
    EXPECT_EQ(ma.right, mb.right) << "merge " << j;
    EXPECT_EQ(ma.group, mb.group) << "merge " << j;
    EXPECT_EQ(ma.t, mb.t) << "merge " << j;
    EXPECT_EQ(Bits(a.merge_deltas()[j]), Bits(b.merge_deltas()[j]))
        << "merge " << j;
  }
  ASSERT_EQ(a.merge_values().size(), b.merge_values().size());
  for (size_t i = 0; i < a.merge_values().size(); ++i) {
    EXPECT_EQ(Bits(a.merge_values()[i]), Bits(b.merge_values()[i])) << i;
  }
  ASSERT_EQ(a.cumulative_errors().size(), b.cumulative_errors().size());
  for (size_t i = 0; i < a.cumulative_errors().size(); ++i) {
    EXPECT_EQ(Bits(a.cumulative_errors()[i]), Bits(b.cumulative_errors()[i]))
        << i;
  }
}

// ---- round trips: every budget, byte for byte --------------------------

TEST(IndexIoTest, RoundTripIsByteIdenticalOnThePaperExample) {
  const SequentialRelation rel = MakeProjIta();
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  for (size_t c = index.cmin(); c <= rel.size(); ++c) {
    auto direct = index.CutToSize(c);
    auto reloaded = loaded.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c);
    ASSERT_TRUE(direct.ok() && reloaded.ok() && gms.ok()) << "c=" << c;
    ExpectByteIdentical(reloaded->relation, direct->relation);
    ExpectByteIdentical(reloaded->relation, gms->relation);
    EXPECT_EQ(Bits(reloaded->error), Bits(direct->error)) << "c=" << c;
    EXPECT_EQ(Bits(reloaded->error), Bits(gms->error)) << "c=" << c;
  }
}

TEST(IndexIoTest, RandomizedRoundTripsMatchGmsForEveryBudget) {
  for (const uint64_t seed : {3u, 17u, 29u}) {
    const SequentialRelation rel = RandomSequential(
        /*n=*/90, /*p=*/2, /*num_groups=*/3, /*gap_probability=*/0.2, seed);
    const PtaIndex index = BuildOrDie(rel);
    const PtaIndex loaded = RoundTrip(index);
    ExpectIndexIdentical(index, loaded);
    for (size_t c = loaded.cmin(); c <= rel.size(); ++c) {
      auto cut = loaded.CutToSize(c);
      auto gms = GmsReduceToSize(rel, c);
      ASSERT_TRUE(cut.ok() && gms.ok()) << "seed=" << seed << " c=" << c;
      ExpectByteIdentical(cut->relation, gms->relation);
      EXPECT_EQ(Bits(cut->error), Bits(gms->error))
          << "seed=" << seed << " c=" << c;
    }
    for (const double eps :
         {0.0, 1e-6, 0.01, 0.05, 0.25, 0.5, 0.9, 0.999, 1.0}) {
      auto cut = loaded.CutToError(eps);
      auto gms = GmsReduceToError(rel, eps);
      ASSERT_TRUE(cut.ok() && gms.ok()) << "seed=" << seed << " eps=" << eps;
      ExpectByteIdentical(cut->relation, gms->relation);
      EXPECT_EQ(Bits(cut->error), Bits(gms->error))
          << "seed=" << seed << " eps=" << eps;
    }
  }
}

TEST(IndexIoTest, WeightedAndGapMergedIndexesRoundTrip) {
  const SequentialRelation rel = RandomSequential(70, 3, 4, 0.25, 41);
  PtaIndexOptions options;
  options.weights = {0.5, 3.0, 1.25};
  options.merge_across_gaps = true;
  const PtaIndex index = BuildOrDie(rel, options);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  EXPECT_TRUE(loaded.merge_across_gaps());
  EXPECT_EQ(loaded.weights(), options.weights);
  GreedyOptions greedy;
  greedy.weights = options.weights;
  greedy.merge_across_gaps = true;
  for (size_t c = loaded.cmin(); c <= rel.size(); c += 5) {
    auto cut = loaded.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c, greedy);
    ASSERT_TRUE(cut.ok() && gms.ok()) << "c=" << c;
    ExpectByteIdentical(cut->relation, gms->relation);
    EXPECT_EQ(Bits(cut->error), Bits(gms->error)) << "c=" << c;
  }
}

TEST(IndexIoTest, MultiBudgetCutMatchesAfterReload) {
  const SequentialRelation rel = RandomSequential(100, 2, 4, 0.15, 53);
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  std::vector<size_t> ladder;
  for (size_t c = loaded.cmin(); c <= rel.size(); c += 7) ladder.push_back(c);
  auto direct = index.MultiBudgetCut(ladder);
  auto reloaded = loaded.MultiBudgetCut(ladder);
  ASSERT_TRUE(direct.ok() && reloaded.ok());
  ASSERT_EQ(direct->size(), reloaded->size());
  for (size_t i = 0; i < direct->size(); ++i) {
    ExpectByteIdentical((*reloaded)[i].relation, (*direct)[i].relation);
    EXPECT_EQ(Bits((*reloaded)[i].error), Bits((*direct)[i].error)) << i;
  }
}

// ---- boundary inputs ---------------------------------------------------

TEST(IndexIoTest, EmptyIndexRoundTrips) {
  const SequentialRelation rel(2, {"A", "B"});
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  EXPECT_EQ(loaded.input_size(), 0u);
  EXPECT_EQ(loaded.cmin(), 0u);
  auto cut = loaded.CutToSize(5);
  ASSERT_TRUE(cut.ok());
  EXPECT_TRUE(cut->relation.empty());
}

TEST(IndexIoTest, SingleSegmentRoundTrips) {
  SequentialRelation rel(1);
  const double v = 42.0;
  rel.Append(0, Interval(5, 9), &v);
  rel.SetGroupKeys({{Value("only")}});
  const PtaIndex loaded = RoundTrip(BuildOrDie(rel));
  EXPECT_TRUE(loaded.input().BitwiseEquals(rel));
  EXPECT_EQ(loaded.input().group_keys(), rel.group_keys());
  auto cut = loaded.CutToSize(1);
  ASSERT_TRUE(cut.ok());
  ExpectByteIdentical(cut->relation, rel);
}

TEST(IndexIoTest, ZeroAggregateDimensionsRoundTrip) {
  // COUNT-free shapes: p = 0 means no value payload at all; every merge
  // has zero error and the serialized value sections are empty.
  SequentialRelation rel(0);
  static constexpr double kNoValues = 0.0;  // p = 0: reads zero doubles
  for (Chronon t = 0; t < 6; ++t) rel.Append(0, Interval(t, t), &kNoValues);
  const PtaIndex index = BuildOrDie(rel);
  const PtaIndex loaded = RoundTrip(index);
  ExpectIndexIdentical(index, loaded);
  for (size_t c = loaded.cmin(); c <= rel.size(); ++c) {
    auto cut = loaded.CutToSize(c);
    auto gms = GmsReduceToSize(rel, c);
    ASSERT_TRUE(cut.ok() && gms.ok()) << "c=" << c;
    ExpectByteIdentical(cut->relation, gms->relation);
  }
}

TEST(IndexIoTest, CMinBoundaryCutMatchesAfterReload) {
  const SequentialRelation rel = RandomSequential(60, 1, 2, 0.3, 67);
  const PtaIndex loaded = RoundTrip(BuildOrDie(rel));
  ASSERT_GT(loaded.cmin(), 0u);
  auto at_cmin = loaded.CutToSize(loaded.cmin());
  auto gms = GmsReduceToSize(rel, loaded.cmin());
  ASSERT_TRUE(at_cmin.ok() && gms.ok());
  ExpectByteIdentical(at_cmin->relation, gms->relation);
  // Below cmin stays infeasible after the reload, same as on the original.
  EXPECT_EQ(loaded.CutToSize(loaded.cmin() - 1).status().code(),
            StatusCode::kInvalidArgument);
}

// ---- malformed bytes are structured errors, never crashes --------------

// Rewrites the trailing checksum so a deliberate body mutation tests the
// *structural* validation, not just the checksum gate.
std::string FixChecksum(std::string bytes) {
  PTA_CHECK(bytes.size() >= 8);
  const uint64_t sum = io::Checksum64(bytes.data(), bytes.size() - 8);
  for (int i = 0; i < 8; ++i) {
    bytes[bytes.size() - 8 + i] =
        static_cast<char>((sum >> (8 * i)) & 0xff);
  }
  return bytes;
}

TEST(IndexIoTest, BadMagicIsRejected) {
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  bytes[0] = 'X';
  auto loaded = DeserializeIndex(bytes);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos);
}

TEST(IndexIoTest, FutureVersionIsRejected) {
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  bytes[8] = static_cast<char>(kPtaIndexFormatVersion + 1);
  auto loaded = DeserializeIndex(FixChecksum(std::move(bytes)));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("version"), std::string::npos);
}

TEST(IndexIoTest, TruncationIsRejected) {
  const std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  for (const size_t keep : {size_t{0}, size_t{7}, size_t{15}, size_t{40},
                            bytes.size() / 2, bytes.size() - 1}) {
    auto loaded = DeserializeIndex(bytes.substr(0, keep));
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes";
  }
}

TEST(IndexIoTest, BitFlipsAreRejectedByTheChecksum) {
  const std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  for (size_t pos = 0; pos < bytes.size() - 8; pos += 13) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x20);
    auto loaded = DeserializeIndex(corrupt);
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument)
        << "flip at " << pos;
  }
}

TEST(IndexIoTest, LengthOverflowIsRejected) {
  // Lie about the leaf count: a huge n must fail the bounded-read check,
  // not drive a multi-terabyte allocation or an out-of-bounds read.
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  const uint64_t huge = uint64_t{1} << 60;
  std::memcpy(&bytes[16], &huge, sizeof(huge));  // counts[0] = n
  auto loaded = DeserializeIndex(FixChecksum(std::move(bytes)));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

TEST(IndexIoTest, TrailingGarbageIsRejected) {
  std::string bytes = SerializeIndex(BuildOrDie(MakeProjIta()));
  bytes.insert(bytes.size() - 8, "\0\0\0\0", 4);
  auto loaded = DeserializeIndex(FixChecksum(std::move(bytes)));
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
}

// ---- file I/O ----------------------------------------------------------

TEST(IndexIoTest, SaveAndLoadThroughAFile) {
  const std::string path = ::testing::TempDir() + "index_io_test.ptaidx";
  const PtaIndex index = BuildOrDie(MakeProjIta());
  ASSERT_TRUE(SaveIndex(index, path).ok());
  auto loaded = LoadIndex(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectIndexIdentical(index, *loaded);
  std::remove(path.c_str());
}

TEST(IndexIoTest, MissingFileIsAnIoError) {
  auto loaded = LoadIndex(::testing::TempDir() + "does_not_exist.ptaidx");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
}

// ---- streaming snapshots -----------------------------------------------

// Rows [from, to) of `rel` as an ingestable chunk (group keys irrelevant
// to the engine, so they are not copied).
SequentialRelation SliceRows(const SequentialRelation& rel, size_t from,
                             size_t to) {
  SequentialRelation chunk(rel.num_aggregates());
  for (size_t i = from; i < to; ++i) {
    chunk.Append(rel.group(i), rel.interval(i), rel.values(i));
  }
  return chunk;
}

TEST(IndexIoSnapshotTest, RestoredEngineReplaysByteIdentically) {
  const SequentialRelation feed = RandomSequential(80, 2, 3, 0.2, 71);
  StreamingOptions options;
  options.size_budget = 12;  // small enough to force early merges

  // The uninterrupted run.
  StreamingPtaEngine uninterrupted(2, options);
  ASSERT_TRUE(uninterrupted.IngestChunk(feed).ok());
  auto expected = uninterrupted.Finalize();
  ASSERT_TRUE(expected.ok());

  // The interrupted run: half the feed, a snapshot, a restore, the rest.
  StreamingPtaEngine first_half(2, options);
  ASSERT_TRUE(
      first_half.IngestChunk(SliceRows(feed, 0, feed.size() / 2)).ok());
  const std::string snapshot = first_half.SaveSnapshot();
  auto restored = StreamingPtaEngine::RestoreSnapshot(snapshot);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  ASSERT_TRUE((*restored)
                  ->IngestChunk(SliceRows(feed, feed.size() / 2, feed.size()))
                  .ok());
  auto resumed = (*restored)->Finalize();
  ASSERT_TRUE(resumed.ok());

  ExpectByteIdentical(*resumed, *expected);
  EXPECT_TRUE(resumed->BitwiseEquals(*expected));
  EXPECT_EQ(Bits((*restored)->total_error()),
            Bits(uninterrupted.total_error()));
  EXPECT_EQ((*restored)->stats().merges, uninterrupted.stats().merges);
  EXPECT_EQ((*restored)->stats().ingested, uninterrupted.stats().ingested);
}

TEST(IndexIoSnapshotTest, PendingEmissionsSurviveTheSnapshot) {
  // One group, so the mid-stream watermark (begin of the first row of the
  // second half) is compatible with every remaining arrival.
  const SequentialRelation feed = RandomSequential(60, 1, 1, 0.3, 83);
  const size_t half = feed.size() / 2;
  const Chronon w = feed.interval(half).begin;
  StreamingOptions options;
  options.size_budget = 8;

  StreamingPtaEngine uninterrupted(1, options);
  ASSERT_TRUE(uninterrupted.IngestChunk(SliceRows(feed, 0, half)).ok());
  ASSERT_TRUE(uninterrupted.AdvanceWatermark(w).ok());
  ASSERT_TRUE(
      uninterrupted.IngestChunk(SliceRows(feed, half, feed.size())).ok());
  auto expected = uninterrupted.Finalize();
  ASSERT_TRUE(expected.ok());

  // Snapshot *after* the watermark sealed rows but before anyone drained
  // them: the emission buffer must round trip.
  StreamingPtaEngine first_half(1, options);
  ASSERT_TRUE(first_half.IngestChunk(SliceRows(feed, 0, half)).ok());
  ASSERT_TRUE(first_half.AdvanceWatermark(w).ok());
  ASSERT_GT(first_half.pending_rows(), 0u);
  auto restored = StreamingPtaEngine::RestoreSnapshot(first_half.SaveSnapshot());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ((*restored)->pending_rows(), first_half.pending_rows());
  EXPECT_EQ((*restored)->watermark(), first_half.watermark());
  ASSERT_TRUE(
      (*restored)->IngestChunk(SliceRows(feed, half, feed.size())).ok());
  auto resumed = (*restored)->Finalize();
  ASSERT_TRUE(resumed.ok());
  ExpectByteIdentical(*resumed, *expected);
}

TEST(IndexIoSnapshotTest, FinalizedStateRoundTrips) {
  StreamingOptions options;
  options.size_budget = 4;
  StreamingPtaEngine engine(1, options);
  ASSERT_TRUE(engine.IngestChunk(RandomSequential(20, 1, 1, 0.1, 97)).ok());
  ASSERT_TRUE(engine.Finalize().ok());
  auto restored = StreamingPtaEngine::RestoreSnapshot(engine.SaveSnapshot());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // The restored engine remembers it was finalized: a second Finalize and
  // further ingestion fail exactly like on the original.
  EXPECT_EQ((*restored)->Finalize().status().code(),
            StatusCode::kFailedPrecondition);

  // Groups whose rows were all sealed and then returned by Finalize hold
  // no state afterwards; the finalized snapshot must still restore.
  StreamingPtaEngine sealed(1, options);
  Segment seg;
  seg.values = {1.0};
  for (int32_t g = 0; g < 3; ++g) {
    seg.group = g;
    seg.t = Interval(10 * g, 10 * g + 2);
    ASSERT_TRUE(sealed.Ingest(seg).ok());
  }
  ASSERT_TRUE(sealed.AdvanceWatermark(1000).ok());
  auto final_rows = sealed.Finalize();
  ASSERT_TRUE(final_rows.ok());
  EXPECT_EQ(final_rows->size(), 3u);
  auto sealed_restored =
      StreamingPtaEngine::RestoreSnapshot(sealed.SaveSnapshot());
  ASSERT_TRUE(sealed_restored.ok()) << sealed_restored.status().ToString();
  EXPECT_EQ((*sealed_restored)->live_rows(), 0u);
  EXPECT_EQ((*sealed_restored)->pending_rows(), 0u);
  EXPECT_TRUE((*sealed_restored)->Snapshot().empty());
  EXPECT_EQ((*sealed_restored)->Finalize().status().code(),
            StatusCode::kFailedPrecondition);
}

// A time-major feed over sparse group ids (negative, both int32 extremes,
// gaps between ids), with the auto-watermark on: groups finish, are
// released by TakeEmitted, and re-appear later. Saving and restoring after
// every chunk must not change a single emitted bit, the error, or a stat.
TEST(IndexIoSnapshotTest, InterleavedWatermarkedFeedReplaysAcrossRestores) {
  const std::vector<int32_t> ids = {std::numeric_limits<int32_t>::min(),
                                    -70000, -3, 0, 5, 6, 1000,
                                    std::numeric_limits<int32_t>::max()};
  constexpr Chronon kTicks = 120;
  constexpr size_t kChunkRows = 7;
  Random rng(29);
  std::vector<Segment> arrival;
  std::vector<double> level(ids.size(), 10.0);
  for (Chronon t = 0; t < kTicks; ++t) {
    for (size_t g = 0; g < ids.size(); ++g) {
      // Each group pauses for a stretch far longer than the watermark lag,
      // so it is sealed, released, and later arrives again as a new group.
      if ((t / 20 + g) % 3 == 0) continue;
      if ((t * 7 + g) % 11 == 0) continue;  // short gaps inside a stretch
      Segment seg;
      seg.group = ids[g];
      seg.t = Interval(t, t);
      level[g] += rng.Uniform(-1.0, 1.0);
      seg.values = {level[g], 0.5 * level[g]};
      arrival.push_back(std::move(seg));
    }
  }

  StreamingOptions options;
  options.size_budget = 10;
  options.auto_watermark_lag = 3;
  StreamingPtaEngine uninterrupted(2, options);
  std::unique_ptr<StreamingPtaEngine> resumed =
      std::make_unique<StreamingPtaEngine>(2, options);
  size_t returns = 0;
  std::vector<bool> seen(ids.size(), false);
  std::vector<bool> ever_seen(ids.size(), false);
  for (size_t from = 0; from < arrival.size(); from += kChunkRows) {
    SequentialRelation chunk(2);
    for (size_t i = from; i < std::min(from + kChunkRows, arrival.size());
         ++i) {
      chunk.Append(arrival[i]);
    }
    ASSERT_TRUE(uninterrupted.IngestChunk(chunk).ok());
    ASSERT_TRUE(resumed->IngestChunk(chunk).ok());
    const SequentialRelation expected = uninterrupted.TakeEmitted();
    const SequentialRelation got = resumed->TakeEmitted();
    EXPECT_TRUE(got.BitwiseEquals(expected)) << "chunk at row " << from;

    auto restored =
        StreamingPtaEngine::RestoreSnapshot(resumed->SaveSnapshot());
    ASSERT_TRUE(restored.ok()) << restored.status().ToString();
    resumed = std::move(*restored);

    // Count groups that come back after TakeEmitted released them (a
    // group absent from the summary holds no state).
    const SequentialRelation live = uninterrupted.Snapshot();
    for (size_t g = 0; g < ids.size(); ++g) {
      bool present = false;
      for (size_t i = 0; i < live.size(); ++i) {
        present |= live.group(i) == ids[g];
      }
      if (present && !seen[g] && ever_seen[g]) ++returns;
      seen[g] = present;
      ever_seen[g] = ever_seen[g] || present;
    }
  }
  EXPECT_GE(returns, ids.size());

  auto expected = uninterrupted.Finalize();
  auto got = resumed->Finalize();
  ASSERT_TRUE(expected.ok());
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got->BitwiseEquals(*expected));
  EXPECT_EQ(Bits(resumed->total_error()), Bits(uninterrupted.total_error()));
  const StreamingStats& a = resumed->stats();
  const StreamingStats& b = uninterrupted.stats();
  EXPECT_EQ(a.ingested, b.ingested);
  EXPECT_EQ(a.merges, b.merges);
  EXPECT_EQ(a.early_merges, b.early_merges);
  EXPECT_EQ(a.emitted, b.emitted);
  EXPECT_EQ(a.max_live_rows, b.max_live_rows);
  EXPECT_EQ(Bits(a.merge_sse), Bits(b.merge_sse));
  EXPECT_GT(b.emitted, 0u);
  EXPECT_GT(b.merges, 0u);
}

TEST(IndexIoSnapshotTest, MalformedSnapshotBytesAreRejected) {
  StreamingOptions options;
  options.size_budget = 6;
  StreamingPtaEngine engine(2, options);
  ASSERT_TRUE(engine.IngestChunk(RandomSequential(30, 2, 2, 0.2, 13)).ok());
  const std::string bytes = engine.SaveSnapshot();

  auto empty = StreamingPtaEngine::RestoreSnapshot("");
  EXPECT_EQ(empty.status().code(), StatusCode::kInvalidArgument);

  std::string bad_magic = bytes;
  bad_magic[0] = 'Z';
  EXPECT_EQ(StreamingPtaEngine::RestoreSnapshot(bad_magic).status().code(),
            StatusCode::kInvalidArgument);

  std::string future = bytes;
  future[8] = static_cast<char>(future[8] + 1);
  EXPECT_EQ(StreamingPtaEngine::RestoreSnapshot(future).status().code(),
            StatusCode::kInvalidArgument);

  for (const size_t keep :
       {size_t{3}, size_t{11}, bytes.size() / 3, bytes.size() - 2}) {
    EXPECT_EQ(StreamingPtaEngine::RestoreSnapshot(bytes.substr(0, keep))
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "kept " << keep << " bytes";
  }
}

}  // namespace
}  // namespace pta
