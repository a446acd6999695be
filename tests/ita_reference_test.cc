// Differential tests of ITA against a brute-force reference that evaluates
// Def. 1 literally: for every group and every chronon, aggregate over the
// tuples whose timestamp contains it, then coalesce value-equivalent
// neighbours. The sweep implementation must match it exactly on randomized
// workloads across aggregate kinds, overlap densities and group counts.

#include <cstring>
#include <limits>
#include <map>

#include <gtest/gtest.h>

#include "core/ita.h"
#include "pta/error.h"
#include "test_util.h"
#include "util/random.h"

namespace pta {
namespace {

// Literal Def. 1 evaluation; exponential in nothing but slow: O(span * n).
SequentialRelation ReferenceIta(const TemporalRelation& rel,
                                const ItaSpec& spec) {
  auto group_indices = rel.schema().ResolveAll(spec.group_by);
  PTA_CHECK(group_indices.ok());
  std::vector<int> agg_attrs;
  for (const AggregateSpec& agg : spec.aggregates) {
    agg_attrs.push_back(agg.kind == AggKind::kCount
                            ? -1
                            : rel.schema().IndexOf(agg.attr));
  }

  std::map<GroupKey, std::vector<size_t>, decltype(&GroupKeyLess)> buckets(
      &GroupKeyLess);
  for (size_t i = 0; i < rel.size(); ++i) {
    buckets[rel.tuple(i).Project(*group_indices)].push_back(i);
  }

  SequentialRelation out(spec.aggregates.size());
  std::vector<GroupKey> keys;
  int32_t gid = 0;
  for (const auto& [key, idxs] : buckets) {
    keys.push_back(key);
    Chronon lo = rel.tuple(idxs[0]).interval().begin;
    Chronon hi = rel.tuple(idxs[0]).interval().end;
    for (size_t i : idxs) {
      lo = std::min(lo, rel.tuple(i).interval().begin);
      hi = std::max(hi, rel.tuple(i).interval().end);
    }
    // Per-chronon values, then coalesce.
    bool open = false;
    Chronon open_from = 0;
    std::vector<double> open_vals;
    for (Chronon t = lo; t <= hi + 1; ++t) {
      std::vector<std::vector<double>> per_agg(spec.aggregates.size());
      bool any = false;
      if (t <= hi) {
        for (size_t i : idxs) {
          if (!rel.tuple(i).interval().Contains(t)) continue;
          any = true;
          for (size_t d = 0; d < spec.aggregates.size(); ++d) {
            per_agg[d].push_back(
                agg_attrs[d] < 0
                    ? 0.0
                    : rel.tuple(i).value(agg_attrs[d]).ToDouble());
          }
        }
      }
      std::vector<double> vals;
      if (any) {
        for (size_t d = 0; d < spec.aggregates.size(); ++d) {
          vals.push_back(
              *EvaluateAggregate(spec.aggregates[d].kind, per_agg[d]));
        }
      }
      if (open && (!any || vals != open_vals)) {
        out.Append(gid, Interval(open_from, t - 1), open_vals.data());
        open = false;
      }
      if (any && !open) {
        open = true;
        open_from = t;
        open_vals = vals;
      }
    }
    ++gid;
  }
  out.SetGroupKeys(std::move(keys));
  return out;
}

TemporalRelation RandomWorkload(size_t n, size_t groups, int64_t span,
                                int64_t max_len, double value_repeat,
                                uint64_t seed) {
  TemporalRelation rel{Schema(
      {{"G", ValueType::kInt64}, {"V", ValueType::kDouble}})};
  Random rng(seed);
  double last = 10.0;
  for (size_t i = 0; i < n; ++i) {
    if (!rng.Bernoulli(value_repeat)) last = rng.Uniform(0.0, 50.0);
    const Chronon b = rng.UniformInt(0, span);
    PTA_CHECK(rel.Insert({Value(rng.UniformInt(
                              0, static_cast<int64_t>(groups) - 1)),
                          Value(last)},
                         Interval(b, b + rng.UniformInt(0, max_len)))
                  .ok());
  }
  return rel;
}

struct Workload {
  size_t n;
  size_t groups;
  int64_t span;
  int64_t max_len;
  double value_repeat;
  uint64_t seed;
};

void PrintTo(const Workload& w, std::ostream* os) {
  *os << "n=" << w.n << " groups=" << w.groups << " span=" << w.span
      << " max_len=" << w.max_len << " repeat=" << w.value_repeat
      << " seed=" << w.seed;
}

class ItaDifferential : public ::testing::TestWithParam<Workload> {
 protected:
  TemporalRelation Input() const {
    const Workload& w = GetParam();
    return RandomWorkload(w.n, w.groups, w.span, w.max_len, w.value_repeat,
                          w.seed);
  }

  // Coalescing depends on exact double equality, and the sweep accumulates
  // incrementally while the reference recomputes from scratch — when values
  // repeat, the two can legitimately coalesce differently while describing
  // the same step function. Compare semantically: identical coverage and
  // per-chronon values (SSE ~ 0 in both directions); segmentations must
  // also match exactly when no repeated values exist.
  static void ExpectSameAggregation(const SequentialRelation& fast,
                                    const SequentialRelation& ref,
                                    bool exact_segments) {
    auto forward = StepFunctionSse(ref, fast);
    ASSERT_TRUE(forward.ok()) << forward.status().ToString();
    EXPECT_LT(*forward, 1e-9);
    auto backward = StepFunctionSse(fast, ref);
    ASSERT_TRUE(backward.ok()) << backward.status().ToString();
    EXPECT_LT(*backward, 1e-9);
    if (exact_segments) {
      EXPECT_TRUE(fast.ApproxEquals(ref, 1e-7));
    }
  }

  bool ExactSegmentsExpected() const {
    // pta-lint: allow(float-equality) -- test parameter set verbatim
    return GetParam().value_repeat == 0.0;
  }
};

TEST_P(ItaDifferential, AvgMatchesReference) {
  const TemporalRelation rel = Input();
  const ItaSpec spec{{"G"}, {Avg("V", "A")}};
  auto fast = Ita(rel, spec);
  ASSERT_TRUE(fast.ok());
  ExpectSameAggregation(*fast, ReferenceIta(rel, spec),
                        ExactSegmentsExpected());
}

TEST_P(ItaDifferential, SumAndCountMatchReference) {
  const TemporalRelation rel = Input();
  const ItaSpec spec{{"G"}, {Sum("V", "S"), Count("N")}};
  auto fast = Ita(rel, spec);
  ASSERT_TRUE(fast.ok());
  ExpectSameAggregation(*fast, ReferenceIta(rel, spec),
                        ExactSegmentsExpected());
}

TEST_P(ItaDifferential, MinMaxMatchReference) {
  const TemporalRelation rel = Input();
  const ItaSpec spec{{"G"}, {Min("V", "Lo"), Max("V", "Hi")}};
  auto fast = Ita(rel, spec);
  ASSERT_TRUE(fast.ok());
  // Min/max are selections, not accumulations: exact agreement always.
  EXPECT_TRUE(fast->ApproxEquals(ReferenceIta(rel, spec), 0.0));
}

TEST_P(ItaDifferential, UngroupedMatchesReference) {
  const TemporalRelation rel = Input();
  const ItaSpec spec{{}, {Avg("V", "A"), Count("N")}};
  auto fast = Ita(rel, spec);
  ASSERT_TRUE(fast.ok());
  ExpectSameAggregation(*fast, ReferenceIta(rel, spec),
                        ExactSegmentsExpected());
}

TEST_P(ItaDifferential, StreamDrainEqualsBatch) {
  const TemporalRelation rel = Input();
  const ItaSpec spec{{"G"}, {Avg("V", "A")}};
  auto stream = ItaStream::Create(rel, spec);
  ASSERT_TRUE(stream.ok());
  SequentialRelation drained((*stream)->num_aggregates());
  Segment seg;
  while ((*stream)->Next(&seg)) drained.Append(seg);
  auto batch = Ita(rel, spec);
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE(drained.ApproxEquals(*batch, 0.0));  // bit-identical
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ItaDifferential,
    ::testing::Values(
        // Dense overlaps, one group.
        Workload{30, 1, 40, 20, 0.0, 1},
        // Sparse: many gaps.
        Workload{15, 1, 200, 3, 0.0, 2},
        // Repeated values -> coalescing opportunities.
        Workload{40, 1, 60, 10, 0.8, 3},
        // Many groups.
        Workload{60, 5, 80, 12, 0.3, 4},
        // Point tuples only.
        Workload{50, 2, 30, 0, 0.5, 5},
        // Heavy stacking on a tiny span.
        Workload{80, 2, 10, 8, 0.2, 6},
        // Larger mixed case.
        Workload{150, 4, 300, 25, 0.4, 7}));

// ---- group numbering over typed key columns -----------------------------

// Multi-attribute keys with nulls in every key column and signed zeros in
// the double one: groups, their order and their sweeps match the
// reference, which buckets full GroupKeys in a GroupKeyLess map.
TEST(ItaGroupNumbering, NullableMultiAttributeKeysMatchReference) {
  TemporalRelation rel{Schema({{"I", ValueType::kInt64},
                               {"S", ValueType::kString},
                               {"D", ValueType::kDouble},
                               {"V", ValueType::kDouble}})};
  Random rng(31);
  const std::vector<Value> ints = {Value(), Value(-3), Value(0), Value(7)};
  const std::vector<Value> strings = {Value(), Value(""), Value("a"),
                                      Value("b,c")};
  const std::vector<Value> doubles = {Value(), Value(-0.0), Value(0.0),
                                      Value(-1.5), Value(2.5)};
  auto pick = [&rng](const std::vector<Value>& from) {
    return from[static_cast<size_t>(
        rng.UniformInt(0, static_cast<int64_t>(from.size()) - 1))];
  };
  for (int i = 0; i < 300; ++i) {
    const Chronon b = rng.UniformInt(0, 120);
    ASSERT_TRUE(rel.Insert({pick(ints), pick(strings), pick(doubles),
                            Value(rng.Uniform(0.0, 50.0))},
                           Interval(b, b + rng.UniformInt(0, 9)))
                    .ok());
  }
  for (const ItaSpec& spec :
       {ItaSpec{{"I", "S", "D"}, {Avg("V", "A"), Count("N")}},
        ItaSpec{{"D", "I"}, {Sum("V", "S")}},
        ItaSpec{{"S"}, {Min("V", "Lo")}}}) {
    auto fast = Ita(rel, spec);
    ASSERT_TRUE(fast.ok()) << fast.status().ToString();
    const SequentialRelation ref = ReferenceIta(rel, spec);
    ASSERT_EQ(fast->group_keys().size(), ref.group_keys().size());
    for (size_t g = 0; g < ref.group_keys().size(); ++g) {
      EXPECT_EQ(GroupKeyToString(fast->group_keys()[g]),
                GroupKeyToString(ref.group_keys()[g]))
          << g;
    }
    EXPECT_TRUE(fast->ApproxEquals(ref, 1e-7));
    EXPECT_TRUE(fast->group_keys().front().front().is_null());  // nulls first
  }
}

// -0.0 and +0.0 are one group, keyed by whichever the group's first row
// holds.
TEST(ItaGroupNumbering, SignedZerosFormOneGroupKeyedByTheFirstRow) {
  for (const double first : {-0.0, 0.0}) {
    TemporalRelation rel{Schema({{"D", ValueType::kDouble},
                                 {"V", ValueType::kDouble}})};
    ASSERT_TRUE(rel.Insert({Value(1.0), Value(5.0)}, Interval(0, 1)).ok());
    ASSERT_TRUE(rel.Insert({Value(first), Value(1.0)}, Interval(0, 3)).ok());
    ASSERT_TRUE(rel.Insert({Value(-first), Value(3.0)}, Interval(2, 5)).ok());
    auto result = Ita(rel, {{"D"}, {Avg("V", "A")}});
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(result->group_keys().size(), 2u);
    const double key = result->group_keys()[0][0].AsDoubleExact();
    EXPECT_EQ(std::signbit(key), std::signbit(first));
    EXPECT_EQ(result->group_keys()[1][0].AsDoubleExact(), 1.0);
    // Group 0 averages both zero rows where they overlap.
    ASSERT_EQ(result->group(1), 0);
    EXPECT_EQ(result->interval(1), Interval(2, 3));
    EXPECT_EQ(result->value(1, 0), 2.0);
  }
}

// Every NaN, whatever its sign or payload, joins one group ordered after
// every other double (after +inf), behind the nulls at the front.
TEST(ItaGroupNumbering, AllNansFormOneGroupAfterEveryOtherDouble) {
  const double inf = std::numeric_limits<double>::infinity();
  uint64_t bits = 0x7ff8000000000abcULL;
  double payload_nan;
  std::memcpy(&payload_nan, &bits, sizeof(payload_nan));
  const double quiet = std::numeric_limits<double>::quiet_NaN();
  TemporalRelation rel{Schema({{"D", ValueType::kDouble},
                               {"V", ValueType::kDouble}})};
  const std::vector<Value> keys = {Value(payload_nan), Value(2.0),
                                   Value(-inf),        Value(quiet),
                                   Value(),            Value(inf),
                                   Value(-quiet)};
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto t = static_cast<Chronon>(i);
    ASSERT_TRUE(rel.Insert({keys[i], Value(1.0)}, Interval(t, t + 10)).ok());
  }
  auto result = Ita(rel, {{"D"}, {Count("N")}});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const std::vector<GroupKey>& groups = result->group_keys();
  ASSERT_EQ(groups.size(), 5u);
  EXPECT_TRUE(groups[0][0].is_null());
  EXPECT_EQ(groups[1][0].AsDoubleExact(), -inf);
  EXPECT_EQ(groups[2][0].AsDoubleExact(), 2.0);
  EXPECT_EQ(groups[3][0].AsDoubleExact(), inf);
  // The NaN group is keyed by its first row, payload and all.
  const double nan_key = groups[4][0].AsDoubleExact();
  EXPECT_EQ(std::memcmp(&nan_key, &payload_nan, sizeof(nan_key)), 0);
  // Its three rows (begins 0, 3 and 6) overlap on [6, 10].
  double peak = 0.0;
  for (size_t i = 0; i < result->size(); ++i) {
    if (result->group(i) == 4) peak = std::max(peak, result->value(i, 0));
  }
  EXPECT_EQ(peak, 3.0);
}

// A rejected input names the first offending row and renders it in full.
TEST(ItaGroupNumbering, RejectedRowsAreNamedAndRendered) {
  constexpr Chronon kMax = std::numeric_limits<Chronon>::max();
  const double inf = std::numeric_limits<double>::infinity();
  TemporalRelation rel{Schema({{"G", ValueType::kString},
                               {"I", ValueType::kInt64},
                               {"V", ValueType::kDouble}})};
  ASSERT_TRUE(rel.Insert({Value("a"), Value(1), Value(0.5)},
                         Interval(0, 4)).ok());
  ASSERT_TRUE(rel.Insert({Value("b"), Value(), Value(-inf)},
                         Interval(2, 3)).ok());
  ASSERT_TRUE(rel.Insert({Value(), Value(3), Value(1.5)},
                         Interval(kMax - 2, kMax)).ok());

  auto null_input = Ita(rel, {{"G"}, {Sum("I", "S")}});
  ASSERT_FALSE(null_input.ok());
  EXPECT_EQ(null_input.status().message(),
            "aggregate attribute I is null in row 1 (b, null, -inf) @ [2, 3]");
  auto not_finite = Ita(rel, {{"G"}, {Count("N"), Avg("V", "A")}});
  ASSERT_FALSE(not_finite.ok());
  EXPECT_EQ(not_finite.status().message(),
            "aggregate attribute V is not finite in row 1 (b, null, -inf) @ "
            "[2, 3]");

  // Row 2 ends at the largest chronon; rows 0 and 1 are clean for COUNT.
  auto last_chronon = Ita(rel, {{"G"}, {Count("N")}});
  ASSERT_FALSE(last_chronon.ok());
  EXPECT_EQ(last_chronon.status().message(),
            "row 2 (null, 3, 1.5) @ [9223372036854775805, "
            "9223372036854775807]: interval end is the largest chronon, "
            "which ITA cannot close");
  EXPECT_EQ(last_chronon.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace pta
