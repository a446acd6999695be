#include "core/ita.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "test_util.h"

namespace pta {
namespace {

using testing::MakeProjIta;
using testing::MakeProjRelation;

ItaSpec ProjAvgSpec() { return {{"Proj"}, {Avg("Sal", "AvgSal")}}; }

TEST(ItaTest, RunningExampleMatchesFig1c) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ApproxEquals(MakeProjIta()));
  // Group keys follow the deterministic group order A < B.
  ASSERT_EQ(result->group_keys().size(), 2u);
  EXPECT_EQ(result->group_keys()[0][0].AsString(), "A");
  EXPECT_EQ(result->group_keys()[1][0].AsString(), "B");
  EXPECT_EQ(result->value_names(), (std::vector<std::string>{"AvgSal"}));
}

TEST(ItaTest, ResultIsAlwaysSequentialAndCoalesced) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->Validate().ok());
  // Coalescing: no adjacent pair may carry identical values.
  for (size_t i = 0; i + 1 < result->size(); ++i) {
    if (!result->AdjacentPair(i)) continue;
    bool all_equal = true;
    for (size_t d = 0; d < result->num_aggregates(); ++d) {
      if (result->value(i, d) != result->value(i + 1, d)) all_equal = false;
    }
    EXPECT_FALSE(all_equal) << "uncoalesced pair at " << i;
  }
}

TEST(ItaTest, StreamingProducesSameSegmentsAsBatch) {
  const TemporalRelation proj = MakeProjRelation();
  auto stream = ItaStream::Create(proj, ProjAvgSpec());
  ASSERT_TRUE(stream.ok());
  SequentialRelation drained((*stream)->num_aggregates());
  Segment seg;
  while ((*stream)->Next(&seg)) drained.Append(seg);
  EXPECT_TRUE(drained.ApproxEquals(MakeProjIta()));
}

TEST(ItaTest, CountAggregatesActiveTuples) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, {{"Proj"}, {Count("N")}});
  ASSERT_TRUE(result.ok());
  // Project A: 1 tuple in [1,2], 2 in [3,3], 3 in [4,4], 2 in [5,6],
  // 1 in [7,7]; project B: 1 in [4,5], 1 in [7,8].
  SequentialRelation expected(1);
  auto add = [&expected](int32_t g, Chronon b, Chronon e, double v) {
    expected.Append(g, Interval(b, e), &v);
  };
  add(0, 1, 2, 1);
  add(0, 3, 3, 2);
  add(0, 4, 4, 3);
  add(0, 5, 6, 2);
  add(0, 7, 7, 1);
  add(1, 4, 5, 1);
  add(1, 7, 8, 1);
  EXPECT_TRUE(result->ApproxEquals(expected));
}

TEST(ItaTest, MinMaxTrackTheActiveSet) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, {{"Proj"}, {Min("Sal", "MinSal"),
                                      Max("Sal", "MaxSal")}});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->num_aggregates(), 2u);
  // At month 4 project A has {800, 400, 300}.
  bool checked = false;
  for (size_t i = 0; i < result->size(); ++i) {
    if (result->group(i) == 0 && result->interval(i).Contains(4)) {
      EXPECT_DOUBLE_EQ(result->value(i, 0), 300.0);
      EXPECT_DOUBLE_EQ(result->value(i, 1), 800.0);
      checked = true;
    }
  }
  EXPECT_TRUE(checked);
}

TEST(ItaTest, NoGroupingProducesOneGroup) {
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, {{}, {Sum("Sal", "SumSal")}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->group_keys().size(), 1u);
  EXPECT_TRUE(result->group_keys()[0].empty());
  // At month 4 all five... four tuples are active: 800+400+300+500 = 2000.
  for (size_t i = 0; i < result->size(); ++i) {
    if (result->interval(i).Contains(4)) {
      EXPECT_DOUBLE_EQ(result->value(i, 0), 2000.0);
    }
  }
}

TEST(ItaTest, GapsWithinGroupsArePreserved) {
  // Project B has no tuple at month 6 -> gap between [4,5] and [7,8].
  const TemporalRelation proj = MakeProjRelation();
  auto result = Ita(proj, ProjAvgSpec());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->CMin(), 3u);  // runs: A[1..7], B[4..5], B[7..8]
}

TEST(ItaTest, ValueEquivalentAdjacentTuplesCoalesce) {
  // Two consecutive tuples with the same value merge into one interval.
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  ASSERT_TRUE(rel.Insert({Value(5.0)}, Interval(1, 3)).ok());
  ASSERT_TRUE(rel.Insert({Value(5.0)}, Interval(4, 9)).ok());
  auto result = Ita(rel, {{}, {Avg("V", "AvgV")}});
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ(result->interval(0), Interval(1, 9));
  EXPECT_DOUBLE_EQ(result->value(0, 0), 5.0);
}

TEST(ItaTest, ResultSizeIsBoundedByTwiceInput) {
  // Sec. 3: the ITA result contains up to 2n - 1 tuples.
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  Random rng(99);
  // Overlapping random tuples.
  for (int i = 0; i < 40; ++i) {
    const Chronon b = rng.UniformInt(0, 60);
    ASSERT_TRUE(rel.Insert({Value(rng.Uniform(0, 10))},
                           Interval(b, b + rng.UniformInt(0, 20)))
                    .ok());
  }
  auto result = Ita(rel, {{}, {Avg("V", "A")}});
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->size(), 2 * rel.size() - 1);
  EXPECT_TRUE(result->Validate().ok());
}

TEST(ItaTest, RejectsUnknownAttributesAndEmptySpecs) {
  const TemporalRelation proj = MakeProjRelation();
  EXPECT_FALSE(Ita(proj, {{"Nope"}, {Avg("Sal", "A")}}).ok());
  EXPECT_FALSE(Ita(proj, {{"Proj"}, {Avg("Nope", "A")}}).ok());
  EXPECT_FALSE(Ita(proj, {{"Proj"}, {}}).ok());
  // Aggregating a non-numeric attribute fails.
  EXPECT_FALSE(Ita(proj, {{"Proj"}, {Avg("Empl", "A")}}).ok());
}

TEST(ItaTest, EmptyRelationYieldsEmptyResult) {
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  auto result = Ita(rel, {{}, {Avg("V", "A")}});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->empty());
}

TEST(ItaTest, RejectsNullAndNonFiniteAggregateInputs) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Value& bad : {Value(), Value(nan), Value(inf), Value(-inf)}) {
    TemporalRelation rel{Schema({{"G", ValueType::kInt64},
                                 {"V", ValueType::kDouble}})};
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(rel.Insert({Value(i % 2), i == 3 ? bad : Value(1.0 * i)},
                             Interval(i, i + 1))
                      .ok());
    }
    auto result = Ita(rel, {{"G"}, {Count("N"), Sum("V", "S")}});
    ASSERT_FALSE(result.ok()) << bad.ToString();
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    const std::string message = result.status().ToString();
    EXPECT_NE(message.find("attribute V"), std::string::npos) << message;
    EXPECT_NE(message.find("row 3"), std::string::npos) << message;
    EXPECT_FALSE(ItaStream::Create(rel, {{"G"}, {Max("V", "M")}}).ok());
    // COUNT alone never reads V.
    EXPECT_TRUE(Ita(rel, {{"G"}, {Count("N")}}).ok());
  }
}

TEST(ItaTest, RejectsAnIntervalEndingAtTheLargestChronon) {
  constexpr Chronon kMax = std::numeric_limits<Chronon>::max();
  TemporalRelation rel{Schema({{"V", ValueType::kDouble}})};
  ASSERT_TRUE(rel.Insert({Value(1.0)}, Interval(0, 5)).ok());
  ASSERT_TRUE(rel.Insert({Value(2.0)}, Interval(kMax - 3, kMax)).ok());
  auto result = Ita(rel, {{}, {Avg("V", "A")}});
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().ToString().find("row 1"), std::string::npos)
      << result.status().ToString();

  // One chronon short of the end is representable.
  TemporalRelation ok_rel{Schema({{"V", ValueType::kDouble}})};
  ASSERT_TRUE(ok_rel.Insert({Value(2.0)}, Interval(kMax - 3, kMax - 1)).ok());
  auto ok = Ita(ok_rel, {{}, {Avg("V", "A")}});
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  ASSERT_EQ(ok->size(), 1u);
  EXPECT_EQ(ok->interval(0), Interval(kMax - 3, kMax - 1));
}

TEST(ItaTest, MultiAttributeGroupsFollowGroupKeyOrder) {
  TemporalRelation rel{Schema({{"S", ValueType::kString},
                               {"I", ValueType::kInt64},
                               {"D", ValueType::kDouble},
                               {"V", ValueType::kDouble}})};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<Value>> rows = {
      {Value("b"), Value(2), Value(0.5), Value(1.0)},
      {Value("a"), Value(9), Value(-0.0), Value(2.0)},
      {Value("b"), Value(1), Value(nan), Value(3.0)},
      {Value(), Value(5), Value(1.5), Value(4.0)},
      {Value("a"), Value(9), Value(0.0), Value(5.0)},  // same group as row 1
      {Value("b"), Value(2), Value(0.5), Value(6.0)},  // same group as row 0
      {Value("a"), Value(), Value(2.5), Value(7.0)},
      {Value("b"), Value(1), Value(nan), Value(8.0)},  // NaNs group together
  };
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto t = static_cast<Chronon>(10 * i);
    ASSERT_TRUE(rel.Insert(rows[i], Interval(t, t + 3)).ok());
  }
  auto result = Ita(rel, {{"S", "I", "D"}, {Sum("V", "Sum")}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<GroupKey>& keys = result->group_keys();
  ASSERT_EQ(keys.size(), 5u);
  for (size_t g = 0; g + 1 < keys.size(); ++g) {
    EXPECT_FALSE(GroupKeyLess(keys[g + 1], keys[g])) << g;
  }
  EXPECT_TRUE(keys[0][0].is_null());
  EXPECT_EQ(keys[1][0].AsString(), "a");
  EXPECT_TRUE(keys[1][1].is_null());
  // The first row of a group supplies its key: -0.0, not 0.0.
  EXPECT_EQ(keys[2][1].AsInt64(), 9);
  EXPECT_TRUE(std::signbit(keys[2][2].AsDoubleExact()));
  EXPECT_TRUE(std::isnan(keys[3][2].AsDoubleExact()));
  EXPECT_EQ(keys[4][1].AsInt64(), 2);
  // Every group's sweep saw exactly its own rows: group (b, 1, nan) holds
  // rows 2 and 7, disjoint in time.
  size_t nan_rows = 0;
  for (size_t i = 0; i < result->size(); ++i) {
    if (result->group(i) == 3) ++nan_rows;
  }
  EXPECT_EQ(nan_rows, 2u);
  EXPECT_TRUE(result->Validate().ok());
}

}  // namespace
}  // namespace pta
