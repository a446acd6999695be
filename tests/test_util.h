// Shared fixtures and reference implementations for the test suite:
//  * the paper's running example (the proj relation of Fig. 1);
//  * a brute-force optimal reducer used to validate the DP algorithms;
//  * random sequential-relation generators for property tests;
//  * the identity-stamp properties both relation types share.

#ifndef PTA_TESTS_TEST_UTIL_H_
#define PTA_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "core/relation.h"
#include "pta/error.h"
#include "pta/segment.h"
#include "util/random.h"

namespace pta {
namespace testing {

/// The byte-identity comparator the equivalence suites share. The verdict
/// is SequentialRelation::BitwiseEquals — a memcmp-strength check (so even
/// a 0.0 / -0.0 sign difference fails); the per-field loop below only runs
/// on a mismatch, to localize it in the failure output. Kept in one place
/// so the PR 5 identity contract cannot drift between suites.
inline void ExpectByteIdentical(const SequentialRelation& a,
                                const SequentialRelation& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.num_aggregates(), b.num_aggregates());
  if (a.BitwiseEquals(b)) return;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.group(i), b.group(i)) << "segment " << i;
    EXPECT_EQ(a.interval(i), b.interval(i)) << "segment " << i;
    for (size_t d = 0; d < a.num_aggregates(); ++d) {
      EXPECT_EQ(a.value(i, d), b.value(i, d))
          << "segment " << i << " dim " << d;
    }
  }
  // == on doubles can miss what memcmp saw (0.0 vs -0.0): never let a
  // BitwiseEquals failure pass silently.
  ADD_FAILURE() << "SequentialRelation::BitwiseEquals reported a mismatch";
}

/// The proj relation of Fig. 1(a): five project assignments over months 1-8.
inline TemporalRelation MakeProjRelation() {
  TemporalRelation rel{Schema({{"Empl", ValueType::kString},
                               {"Proj", ValueType::kString},
                               {"Sal", ValueType::kDouble}})};
  PTA_CHECK(rel.Insert({"John", "A", 800.0}, Interval(1, 4)).ok());
  PTA_CHECK(rel.Insert({"Ann", "A", 400.0}, Interval(3, 6)).ok());
  PTA_CHECK(rel.Insert({"Tom", "A", 300.0}, Interval(4, 7)).ok());
  PTA_CHECK(rel.Insert({"John", "B", 500.0}, Interval(4, 5)).ok());
  PTA_CHECK(rel.Insert({"John", "B", 500.0}, Interval(7, 8)).ok());
  return rel;
}

/// The expected ITA result of Fig. 1(c) as a SequentialRelation
/// (group 0 = project A, group 1 = project B).
inline SequentialRelation MakeProjIta() {
  SequentialRelation rel(1, {"AvgSal"});
  auto add = [&rel](int32_t g, Chronon b, Chronon e, double v) {
    rel.Append(g, Interval(b, e), &v);
  };
  add(0, 1, 2, 800.0);
  add(0, 3, 3, 600.0);
  add(0, 4, 4, 500.0);
  add(0, 5, 6, 350.0);
  add(0, 7, 7, 300.0);
  add(1, 4, 5, 500.0);
  add(1, 7, 8, 500.0);
  rel.SetGroupKeys({{Value("A")}, {Value("B")}});
  return rel;
}

/// SSE of partitioning `rel` into the given contiguous runs (0-based
/// inclusive index pairs), computed naively from Def. 5.
inline double NaivePartitionSse(const SequentialRelation& rel,
                                const std::vector<std::pair<size_t, size_t>>& runs,
                                const std::vector<double>& weights = {}) {
  const size_t p = rel.num_aggregates();
  const std::vector<double> w = WeightsOrOnes(p, weights);
  double total = 0.0;
  for (const auto& [from, to] : runs) {
    for (size_t d = 0; d < p; ++d) {
      // Weighted mean over the run.
      double sum_l = 0.0, sum_lv = 0.0;
      for (size_t i = from; i <= to; ++i) {
        sum_l += static_cast<double>(rel.length(i));
        sum_lv += static_cast<double>(rel.length(i)) * rel.value(i, d);
      }
      const double mean = sum_lv / sum_l;
      for (size_t i = from; i <= to; ++i) {
        const double diff = rel.value(i, d) - mean;
        total += w[d] * w[d] * static_cast<double>(rel.length(i)) * diff * diff;
      }
    }
  }
  return total;
}

/// Exhaustive optimal reduction to exactly c runs; returns the minimum SSE
/// (infinity if infeasible). Exponential — use only on tiny inputs.
inline double BruteForceBestError(const SequentialRelation& rel, size_t c,
                                  const std::vector<double>& weights = {}) {
  const size_t n = rel.size();
  if (c > n || c == 0) return std::numeric_limits<double>::infinity();
  double best = std::numeric_limits<double>::infinity();
  std::vector<std::pair<size_t, size_t>> runs;

  // Recursive enumeration of contiguous partitions into c runs that never
  // cross a non-adjacent pair.
  auto recurse = [&](auto&& self, size_t start, size_t remaining) -> void {
    if (remaining == 1) {
      for (size_t i = start; i + 1 < n; ++i) {
        if (!rel.AdjacentPair(i)) return;  // the final run crosses a gap
      }
      runs.emplace_back(start, n - 1);
      const double err = NaivePartitionSse(rel, runs, weights);
      if (err < best) best = err;
      runs.pop_back();
      return;
    }
    for (size_t end = start; end + (remaining - 1) <= n - 1; ++end) {
      if (end > start && !rel.AdjacentPair(end - 1)) break;  // gap inside run
      runs.emplace_back(start, end);
      self(self, end + 1, remaining - 1);
      runs.pop_back();
    }
  };
  recurse(recurse, 0, c);
  return best;
}

/// Random sequential relation: `num_groups` groups, each a chain of unit
/// segments with `gap_probability` of a hole after each segment.
inline SequentialRelation RandomSequential(size_t n, size_t p,
                                           size_t num_groups,
                                           double gap_probability,
                                           uint64_t seed) {
  PTA_CHECK(n >= 1 && p >= 1 && num_groups >= 1);
  Random rng(seed);
  SequentialRelation rel(p);
  std::vector<GroupKey> keys;
  std::vector<double> row(p);
  for (size_t g = 0; g < num_groups; ++g) {
    keys.push_back({Value(static_cast<int64_t>(g))});
  }
  Chronon t = 0;
  for (size_t i = 0; i < n; ++i) {
    const int32_t g = static_cast<int32_t>(i * num_groups / n);
    // Restart the clock whenever the group changes.
    if (i == 0 || g != rel.group(rel.size() - 1)) t = 0;
    for (size_t d = 0; d < p; ++d) row[d] = rng.Uniform(0.0, 100.0);
    const Chronon len = rng.UniformInt(1, 3);
    rel.Append(g, Interval(t, t + len - 1), row.data());
    t += len;
    if (rng.Bernoulli(gap_probability)) t += rng.UniformInt(1, 4);
  }
  rel.SetGroupKeys(std::move(keys));
  return rel;
}

/// Copies and moves of `prototype` (construction and assignment) never
/// share an identity with their source or with each other, and copying
/// leaves the source's identity as it was. R is TemporalRelation or
/// SequentialRelation.
template <typename R>
void ExpectCopiesAndMovesGetFreshIdentities(const R& prototype) {
  R source = prototype;
  const uint64_t original = source.identity();
  R copied(source);
  R assigned;
  assigned = source;
  EXPECT_EQ(source.identity(), original) << "copying changed the source";
  std::vector<uint64_t> ids = {original, copied.identity(),
                               assigned.identity()};
  R moved(std::move(copied));
  R move_assigned;
  move_assigned = std::move(assigned);
  // Each object is read once after its last change, so equal values can
  // only mean a shared identity.
  ids.push_back(moved.identity());
  ids.push_back(move_assigned.identity());
  ids.push_back(copied.identity());    // moved-from: its contents changed
  ids.push_back(assigned.identity());  // likewise
  EXPECT_EQ(std::set<uint64_t>(ids.begin(), ids.end()).size(), ids.size());
}

/// Eight threads racing on the first read of an unminted identity all
/// see one value. Each round runs `mutate` first to reset the stamp; TSan
/// runs (scripts/ci.sh --tsan) check the CAS path for data races.
template <typename R, typename Mutate>
void ExpectConcurrentFirstReadsAgree(R& rel, const Mutate& mutate) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 20;
  for (int round = 0; round < kRounds; ++round) {
    mutate(rel);
    std::vector<uint64_t> seen(kThreads);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
      threads.emplace_back([&rel, &seen, &ready, i] {
        ready.fetch_add(1);
        while (ready.load() < kThreads) std::this_thread::yield();
        seen[i] = rel.identity();
      });
    }
    for (auto& t : threads) t.join();
    for (int i = 0; i < kThreads; ++i) {
      EXPECT_EQ(seen[i], seen[0]) << "round " << round << " thread " << i;
    }
    EXPECT_EQ(rel.identity(), seen[0]) << "round " << round;
  }
}

}  // namespace testing
}  // namespace pta

#endif  // PTA_TESTS_TEST_UTIL_H_
