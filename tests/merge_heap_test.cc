#include "pta/merge_heap.h"

#include <cmath>

#include <gtest/gtest.h>

#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjIta;

Segment MakeSeg(int32_t g, Chronon b, Chronon e, double v) {
  return Segment{g, Interval(b, e), {v}};
}

// Loads the running example's ITA result (Fig. 9/10).
MergeHeap LoadProjHeap() {
  MergeHeap heap(1, {});
  const SequentialRelation ita = MakeProjIta();
  RelationSegmentSource src(ita);
  Segment seg;
  while (src.Next(&seg)) heap.Insert(seg);
  return heap;
}

TEST(MergeHeapTest, KeysAreDsimWithPredecessor) {
  MergeHeap heap(1, {});
  int64_t id = 0;
  // First tuple: no predecessor -> infinite key.
  EXPECT_TRUE(std::isinf(heap.Insert(MakeSeg(0, 1, 2, 800.0), &id)));
  EXPECT_EQ(id, 1);
  // s2 follows adjacently: dsim = 26 666.67 (Example 5).
  EXPECT_NEAR(heap.Insert(MakeSeg(0, 3, 3, 600.0), &id), 26666.67, 0.01);
  EXPECT_EQ(id, 2);
  // Gap -> infinite key.
  EXPECT_TRUE(std::isinf(heap.Insert(MakeSeg(0, 5, 5, 500.0))));
  // Different group -> infinite key.
  EXPECT_TRUE(std::isinf(heap.Insert(MakeSeg(1, 6, 6, 500.0))));
}

TEST(MergeHeapTest, PeekReturnsMostSimilarPair) {
  MergeHeap heap = LoadProjHeap();
  // Fig. 10(a): the most similar pair is s4, s5 with error 1 666.67; the
  // top node is s5 (id 5).
  const MergeHeap::TopInfo top = heap.Peek();
  EXPECT_EQ(top.id, 5);
  EXPECT_NEAR(top.key, 1666.67, 0.01);
}

TEST(MergeHeapTest, MergeTopFoldsIntoPredecessorAndRekeys) {
  MergeHeap heap = LoadProjHeap();
  const double introduced = heap.MergeTop();  // merge s4, s5
  EXPECT_NEAR(introduced, 1666.67, 0.01);
  EXPECT_EQ(heap.size(), 6u);
  // Fig. 10(b): the new top is s3 with key 5 000 (merge s2, s3 next).
  const MergeHeap::TopInfo top = heap.Peek();
  EXPECT_EQ(top.id, 3);
  EXPECT_NEAR(top.key, 5000.0, 0.01);
  // The merged node s4 ⊕ s5 = (A, 333.33, [5,7]).
  const SequentialRelation segs = heap.ExtractRelation();
  ASSERT_EQ(segs.size(), 6u);
  EXPECT_EQ(segs.interval(3), Interval(5, 7));
  EXPECT_NEAR(segs.value(3, 0), 1000.0 / 3.0, 1e-9);
}

TEST(MergeHeapTest, MergeRecordReportsTheExecutedMerge) {
  MergeHeap heap = LoadProjHeap();
  MergeHeap::MergeRecord rec;
  const double introduced = heap.MergeTop(&rec);  // s5 folds into s4
  EXPECT_EQ(rec.top_id, 5);
  EXPECT_EQ(rec.pred_id, 4);
  EXPECT_EQ(rec.key, introduced);
  EXPECT_EQ(rec.group, 0);
  EXPECT_EQ(rec.t, Interval(5, 7));
  EXPECT_EQ(rec.covered, 3);
  ASSERT_NE(rec.values, nullptr);
  EXPECT_NEAR(rec.values[0], 1000.0 / 3.0, 1e-9);
}

TEST(MergeHeapTest, MergeRecordCarriesCoveredChrononsUnderWeightedGapMerge) {
  // The PR 5 audit: the record (like the key) must report *covered*
  // chronons, not the hull, when a non-uniformly-weighted heap merges
  // across a gap — the dendrogram recorder depends on it.
  MergeHeap heap(2, {4.0, 0.5}, /*merge_across_gaps=*/true);
  heap.Insert(Segment{0, Interval(0, 2), {10.0, 4.0}});   // 3 chronons
  heap.Insert(Segment{0, Interval(10, 10), {16.0, 8.0}});  // 1 chronon
  const double expected_key =
      (3.0 * 1.0 / 4.0) * (16.0 * 36.0 + 0.25 * 16.0);
  EXPECT_DOUBLE_EQ(heap.Peek().key, expected_key);
  MergeHeap::MergeRecord rec;
  heap.MergeTop(&rec);
  EXPECT_EQ(rec.t, Interval(0, 10));  // hull timestamp...
  EXPECT_EQ(rec.covered, 4);          // ...but covered chronons weigh
  EXPECT_DOUBLE_EQ(rec.values[0], (3.0 * 10.0 + 1.0 * 16.0) / 4.0);
  EXPECT_DOUBLE_EQ(rec.values[1], (3.0 * 4.0 + 1.0 * 8.0) / 4.0);
}

TEST(MergeHeapTest, FullDrainFollowsFig9Dendrogram) {
  MergeHeap heap = LoadProjHeap();
  // Greedy merge order: (s4,s5) 1666.67, (s2,s3) 5000, then the two merged
  // nodes at dsim((550,[3,4]), (333.33,[5,7])) = 56 333.33.
  EXPECT_NEAR(heap.MergeTop(), 1666.67, 0.01);
  EXPECT_NEAR(heap.MergeTop(), 5000.0, 0.01);
  EXPECT_NEAR(heap.MergeTop(), 56333.33, 0.01);
  // Result of reducing to c = 4 (Example 17): total error 63 000.
  EXPECT_EQ(heap.size(), 4u);
  const SequentialRelation segs = heap.ExtractRelation();
  EXPECT_EQ(segs.interval(0), Interval(1, 2));
  EXPECT_NEAR(segs.value(0, 0), 800.0, 1e-9);  // z1
  EXPECT_EQ(segs.interval(1), Interval(3, 7));
  EXPECT_NEAR(segs.value(1, 0), 420.0, 1e-9);  // z2 = (A, 420)
}

TEST(MergeHeapTest, ExtractRelationPreservesChronologicalOrder) {
  MergeHeap heap = LoadProjHeap();
  heap.MergeTop();
  const SequentialRelation rel = heap.ExtractRelation();
  EXPECT_TRUE(rel.Validate().ok());
  EXPECT_EQ(rel.size(), 6u);
}

TEST(MergeHeapTest, CountAdjacentSuccessorsOfTop) {
  MergeHeap heap = LoadProjHeap();
  // Top is s5; successors: s6 is in another group -> 0 adjacent successors.
  EXPECT_EQ(heap.CountAdjacentSuccessorsOfTop(3), 0u);
  heap.MergeTop();  // top becomes s3, successors s4, s5(merged)...
  EXPECT_GE(heap.CountAdjacentSuccessorsOfTop(1), 1u);
}

TEST(MergeHeapTest, MaxSizeTracksHighWatermark) {
  MergeHeap heap = LoadProjHeap();
  EXPECT_EQ(heap.max_size(), 7u);
  heap.MergeTop();
  EXPECT_EQ(heap.max_size(), 7u);
  EXPECT_EQ(heap.size(), 6u);
}

TEST(MergeHeapTest, NodeStorageIsRecycled) {
  // Stream many tuples through a tiny heap; memory (node slots) must stay
  // bounded by the live count, exercised here via repeated merge cycles.
  MergeHeap heap(1, {});
  for (int i = 0; i < 1000; ++i) {
    heap.Insert(MakeSeg(0, i, i, static_cast<double>(i % 7)));
    while (heap.size() > 3) heap.MergeTop();
  }
  EXPECT_LE(heap.max_size(), 4u);
  EXPECT_EQ(heap.size(), 3u);
}

TEST(MergeHeapTest, TieBreaksOnSmallerId) {
  MergeHeap heap(1, {});
  // Two equally similar pairs: (10, 20) and (30, 40) with equal lengths.
  heap.Insert(MakeSeg(0, 0, 0, 10.0));
  heap.Insert(MakeSeg(0, 1, 1, 20.0));
  heap.Insert(MakeSeg(0, 2, 2, 30.0));  // dsim(20,30) = 50 != others
  heap.Insert(MakeSeg(0, 3, 3, 40.0));
  // keys: id2: 50, id3: 50, id4: 50 — all equal; smallest id wins.
  EXPECT_EQ(heap.Peek().id, 2);
}

TEST(MergeHeapTest, RejectsUnsortedInsert) {
  MergeHeap heap(1, {});
  heap.Insert(MakeSeg(0, 5, 6, 1.0));
  EXPECT_DEATH(heap.Insert(MakeSeg(0, 2, 3, 1.0)), "sorted");
}

}  // namespace
}  // namespace pta
