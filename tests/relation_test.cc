#include "core/relation.h"

#include <gtest/gtest.h>

#include <functional>
#include <limits>

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

// ---- typed columns -------------------------------------------------------

TEST(ColumnTest, NullMaskIsAllocatedOnTheFirstNull) {
  Column column(ValueType::kInt64);
  column.AppendInt64(4);
  EXPECT_FALSE(column.has_nulls());
  EXPECT_FALSE(column.is_null(0));
  column.AppendNull();
  column.AppendInt64(-2);
  ASSERT_TRUE(column.has_nulls());
  EXPECT_EQ(column.size(), 3u);
  EXPECT_FALSE(column.is_null(0));
  EXPECT_TRUE(column.is_null(1));
  EXPECT_FALSE(column.is_null(2));
  EXPECT_EQ(column.ints(), (std::vector<int64_t>{4, 0, -2}));
  EXPECT_TRUE(column.value(1).is_null());
  EXPECT_EQ(column.value(2), Value(int64_t{-2}));

  const Column taken = column.Take({2, 1, 2});
  EXPECT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken.ints(), (std::vector<int64_t>{-2, 0, -2}));
  EXPECT_TRUE(taken.is_null(1));
  EXPECT_FALSE(taken.is_null(2));
  EXPECT_FALSE(column.Take({0, 2}).is_null(1));

  Column nulls(ValueType::kNull);
  nulls.AppendNull();
  EXPECT_EQ(nulls.size(), 1u);
  EXPECT_TRUE(nulls.is_null(0));
}

TEST(ColumnTest, CompareCellsFollowsGroupKeyOrder) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  Column column(ValueType::kDouble);
  for (const Value& v : {Value(), Value(-inf), Value(-0.0), Value(0.0),
                         Value(inf), Value(nan), Value(-nan)}) {
    column.AppendValue(v);
  }
  EXPECT_LT(CompareCells(column, 0, 1), 0);  // null first
  EXPECT_LT(CompareCells(column, 1, 2), 0);
  EXPECT_EQ(CompareCells(column, 2, 3), 0);  // -0.0 == +0.0
  EXPECT_LT(CompareCells(column, 3, 4), 0);
  EXPECT_LT(CompareCells(column, 4, 5), 0);  // NaN after +inf
  EXPECT_EQ(CompareCells(column, 5, 6), 0);  // one NaN value
  EXPECT_GT(CompareCells(column, 5, 0), 0);
  EXPECT_EQ(CompareCells(column, 0, 0), 0);
}

TEST(RelationTest, FromColumnsValidatesShape) {
  const Schema schema({{"S", ValueType::kString}, {"D", ValueType::kDouble}});
  auto columns = [] {
    std::vector<Column> out;
    out.emplace_back(ValueType::kString);
    out.emplace_back(ValueType::kDouble);
    out[0].AppendString("x");
    out[0].AppendNull();
    out[1].AppendNull();
    out[1].AppendDouble(2.5);
    return out;
  };
  auto rel = TemporalRelation::FromColumns(schema, columns(), {0, 5}, {3, 5});
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  EXPECT_EQ(rel->size(), 2u);
  EXPECT_EQ(rel->tuple(0).ToString(), "(x, null) @ [0, 3]");
  EXPECT_EQ(rel->tuple(1).ToString(), "(null, 2.5) @ [5, 5]");

  EXPECT_FALSE(
      TemporalRelation::FromColumns(schema, columns(), {0, 6}, {3, 5}).ok());
  EXPECT_FALSE(
      TemporalRelation::FromColumns(schema, columns(), {0}, {3}).ok());
  EXPECT_FALSE(
      TemporalRelation::FromColumns(schema, {}, {0, 5}, {3, 5}).ok());
  std::vector<Column> swapped = columns();
  std::swap(swapped[0], swapped[1]);
  EXPECT_FALSE(TemporalRelation::FromColumns(schema, std::move(swapped),
                                             {0, 5}, {3, 5})
                   .ok());
}

TEST(RelationTest, TakeAndSetIntervalsWorkColumnByColumn) {
  const TemporalRelation proj = MakeProjRelation();
  TemporalRelation picked = proj.Take({4, 0});
  ASSERT_EQ(picked.size(), 2u);
  EXPECT_EQ(picked.schema(), proj.schema());
  EXPECT_EQ(picked.tuple(0), proj.tuple(4));
  EXPECT_EQ(picked.tuple(1), proj.tuple(0));

  const uint64_t before = picked.identity();
  EXPECT_FALSE(picked.SetIntervals({9, 1}, {8, 1}).ok());  // 9 > 8
  EXPECT_FALSE(picked.SetIntervals({1}, {2}).ok());        // too short
  EXPECT_EQ(picked.interval(0), proj.interval(4));
  ASSERT_TRUE(picked.SetIntervals({9, 1}, {10, 1}).ok());
  EXPECT_NE(picked.identity(), before);
  EXPECT_EQ(picked.interval(0), Interval(9, 10));
  EXPECT_EQ(picked.interval(1), Interval(1, 1));
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
      {"SetIntervals",
       [](TemporalRelation& r) {
         ASSERT_TRUE(r.SetIntervals(r.tb(), r.te()).ok());
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
    ASSERT_TRUE(r.Insert(Tuple({"Eve", "C", 100.0}, Interval(2, 3))).ok());
  });
}

}  // namespace
}  // namespace pta
