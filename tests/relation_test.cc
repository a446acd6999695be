#include "core/relation.h"

#include <gtest/gtest.h>

#include <functional>

#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjRelation;

TEST(RelationTest, InsertValidatesSchemaAndInterval) {
  TemporalRelation rel{Schema({{"X", ValueType::kInt64}})};
  EXPECT_TRUE(rel.Insert({Value(int64_t{1})}, Interval(0, 5)).ok());
  EXPECT_EQ(rel.size(), 1u);

  EXPECT_FALSE(rel.Insert({Value("wrong type")}, Interval(0, 1)).ok());
  EXPECT_FALSE(rel.Insert({Value(int64_t{1}), Value(int64_t{2})},
                          Interval(0, 1))
                   .ok());
  EXPECT_EQ(rel.size(), 1u);
}

TEST(RelationTest, SortByGroupThenTimeOrdersLikeSec51) {
  TemporalRelation rel = MakeProjRelation();
  const std::vector<size_t> group = {1};  // Proj
  rel.SortByGroupThenTime(group);
  // Project A tuples first (by start time), then project B.
  EXPECT_EQ(rel.tuple(0).value(1).AsString(), "A");
  EXPECT_EQ(rel.tuple(0).interval().begin, 1);
  EXPECT_EQ(rel.tuple(2).value(1).AsString(), "A");
  EXPECT_EQ(rel.tuple(3).value(1).AsString(), "B");
  EXPECT_EQ(rel.tuple(3).interval().begin, 4);
  EXPECT_EQ(rel.tuple(4).interval().begin, 7);
}

TEST(RelationTest, IsSequentialDetectsOverlapsWithinGroups) {
  const TemporalRelation proj = MakeProjRelation();
  // proj is NOT sequential when grouped by project (r1, r2 overlap).
  EXPECT_FALSE(proj.IsSequential({1}));
  // It IS sequential when grouped by (Empl, Proj): each person's
  // assignments to one project are disjoint.
  EXPECT_TRUE(proj.IsSequential({0, 1}));
}

TEST(RelationTest, TimeSpanCoversAllTuples) {
  const TemporalRelation proj = MakeProjRelation();
  auto span = proj.TimeSpan();
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(*span, Interval(1, 8));

  TemporalRelation empty{proj.schema()};
  EXPECT_FALSE(empty.TimeSpan().ok());
}

TEST(RelationTest, SameTuplesIsOrderInsensitive) {
  TemporalRelation a = MakeProjRelation();
  TemporalRelation b = MakeProjRelation();
  b.SortByGroupThenTime({2});  // scramble order relative to a
  EXPECT_TRUE(a.SameTuples(b));

  TemporalRelation c{a.schema()};
  EXPECT_FALSE(a.SameTuples(c));
}

TEST(TupleTest, ProjectExtractsGroupKey) {
  const TemporalRelation proj = MakeProjRelation();
  const GroupKey key = proj.tuple(0).Project({1, 0});
  ASSERT_EQ(key.size(), 2u);
  EXPECT_EQ(key[0].AsString(), "A");
  EXPECT_EQ(key[1].AsString(), "John");
}

TEST(TupleTest, ValueEquivalenceIgnoresTimestamp) {
  const Tuple a({Value("x"), Value(1.0)}, Interval(1, 2));
  const Tuple b({Value("x"), Value(1.0)}, Interval(5, 9));
  const Tuple c({Value("y"), Value(1.0)}, Interval(1, 2));
  EXPECT_TRUE(a.ValueEquivalent(b));
  EXPECT_FALSE(a.ValueEquivalent(c));
}

// ---- identity stamps (util/identity.h) ---------------------------------

struct TemporalMutator {
  const char* name;
  std::function<void(TemporalRelation&)> apply;
};

TEST(RelationIdentityTest, EveryMutatorChangesTheIdentity) {
  const std::vector<TemporalMutator> mutators = {
      {"Insert(values, t)",
       [](TemporalRelation& r) {
         ASSERT_TRUE(r.Insert({"Eve", "C", 100.0}, Interval(2, 3)).ok());
       }},
      {"Insert(tuple)",
       [](TemporalRelation& r) {
         ASSERT_TRUE(
             r.Insert(Tuple({"Eve", "C", 100.0}, Interval(2, 3))).ok());
       }},
      {"InsertUnchecked",
       [](TemporalRelation& r) {
         r.InsertUnchecked(Tuple({"Eve", "C", 100.0}, Interval(2, 3)));
       }},
      {"Clear", [](TemporalRelation& r) { r.Clear(); }},
      {"SortByGroupThenTime",
       [](TemporalRelation& r) { r.SortByGroupThenTime({1}); }},
  };
  for (const TemporalMutator& mutator : mutators) {
    SCOPED_TRACE(mutator.name);
    TemporalRelation rel = MakeProjRelation();
    const uint64_t before = rel.identity();
    mutator.apply(rel);
    EXPECT_NE(rel.identity(), before);
  }
}

TEST(RelationIdentityTest, ConstCallsAndReserveKeepTheIdentity) {
  TemporalRelation rel = MakeProjRelation();
  const uint64_t id = rel.identity();
  EXPECT_EQ(rel.identity(), id);
  rel.Reserve(64);
  EXPECT_FALSE(rel.IsSequential({1}));
  EXPECT_TRUE(rel.TimeSpan().ok());
  EXPECT_TRUE(rel.SameTuples(rel));
  EXPECT_FALSE(rel.ToString().empty());
  EXPECT_EQ(rel.identity(), id);
}

TEST(RelationIdentityTest, CopiesAndMovesNeverShareAnIdentity) {
  testing::ExpectCopiesAndMovesGetFreshIdentities(MakeProjRelation());
}

TEST(RelationIdentityTest, ConcurrentFirstReadsAgree) {
  TemporalRelation rel = MakeProjRelation();
  testing::ExpectConcurrentFirstReadsAgree(rel, [](TemporalRelation& r) {
    r.InsertUnchecked(Tuple({"Eve", "C", 100.0}, Interval(2, 3)));
  });
}

}  // namespace
}  // namespace pta
