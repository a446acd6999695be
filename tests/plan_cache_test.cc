// The hardened process-wide PtaIndex plan cache (pta/plan.h):
//  * the stale-alias regression — mutating a bound input in any row, or
//    reusing its address for other data, changes its identity stamp and
//    so the fingerprint, with nothing announced; the superseded index is
//    swept, not leaked;
//  * thundering-herd coalescing — N concurrent misses on one fingerprint
//    trigger exactly one PtaIndex build, the rest join its shared future;
//  * the FIFO fingerprint-memory boundary — a fingerprint whose index is
//    still cached is never forgotten, so kAuto routing and cache contents
//    cannot disagree at kPtaIndexFingerprintMemory;
//  * capacity: entry/byte budgets, LRU order, pinning;
//  * concurrent CutToSize / CutToError / MultiBudgetCut on one shared
//    index (the lazily computed Emax path), run under TSan by
//    scripts/ci.sh --tsan via the `serve` label.

#include "pta/plan.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <optional>
#include <thread>
#include <vector>

#include "pta/greedy.h"
#include "pta/index.h"
#include "pta/query.h"
#include "ql/exec.h"
#include "test_util.h"

namespace pta {
namespace {

using testing::ExpectByteIdentical;

// A deterministic single-group gap-free sequential relation whose values
// we control row by row (so a mutation can target one interior row).
SequentialRelation MakeRamp(size_t n, size_t mutated_row = SIZE_MAX,
                            double mutated_value = 0.0) {
  SequentialRelation rel(1, {"V"});
  for (size_t i = 0; i < n; ++i) {
    double v = static_cast<double>((i * 13) % 29);
    if (i == mutated_row) v = mutated_value;
    rel.Append(0, Interval(static_cast<Chronon>(i), static_cast<Chronon>(i)),
               &v);
  }
  rel.SetGroupKeys({GroupKey{Value(static_cast<int64_t>(0))}});
  return rel;
}

PtaQuery IndexedQuery(const SequentialRelation& rel, size_t c) {
  return PtaQuery::OverSequential(rel)
      .Budget(Budget::Size(c))
      .Engine(Engine::kIndexed);
}

// ---- satellite 1: stale aliases are unreachable ------------------------

TEST(PlanCacheStaleAliasTest, UnannouncedInteriorEditMissesAndServesFreshData) {
  PtaIndexCacheClear();
  // n = 64 and row 30: an edit between the boundary rows, which a sampled
  // content guard would not see.
  SequentialRelation rel = MakeRamp(64);
  const PtaQuery query = IndexedQuery(rel, 8);
  auto plan_before = query.Plan();
  ASSERT_TRUE(plan_before.ok());
  const uint64_t fp_before = PlanFingerprint(*plan_before);
  ASSERT_TRUE(query.Run().ok());
  EXPECT_EQ(PtaIndexCacheSize(), 1u);

  // Mutate row 30 in place: same object (same address), new contents, and
  // no announcement. The outlier value reshapes the greedy merge order, so
  // a stale index would serve visibly wrong bytes.
  rel = MakeRamp(64, /*mutated_row=*/30, /*mutated_value=*/500.0);
  auto plan_after = query.Plan();
  ASSERT_TRUE(plan_after.ok());
  EXPECT_NE(PlanFingerprint(*plan_after), fp_before);
  PtaRunStats fresh;
  const auto result = query.Run(&fresh);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_FALSE(fresh.indexed.cache_hit);
  auto gms = GmsReduceToSize(rel, 8);
  ASSERT_TRUE(gms.ok());
  ExpectByteIdentical(result->relation, gms->relation);
  EXPECT_EQ(result->error, gms->error);
  PtaIndexCacheClear();
}

TEST(PlanCacheSweepTest, RebuildAtTheSameAddressDropsTheSupersededIndex) {
  for (const bool pinned : {false, true}) {
    SCOPED_TRACE(pinned ? "pinned" : "unpinned");
    PtaIndexCacheClear();
    SequentialRelation rel = MakeRamp(64);
    PtaIndexCachePin(&rel, pinned);
    const PtaQuery query = IndexedQuery(rel, 8);
    ASSERT_TRUE(query.Run().ok());
    ASSERT_EQ(PtaIndexCacheSize(), 1u);

    const auto before = PtaIndexCacheGetStats();
    rel = MakeRamp(64, /*mutated_row=*/30, /*mutated_value=*/500.0);
    ASSERT_TRUE(query.Run().ok());
    // Exactly the new index remains: the old one was swept on the miss,
    // pinned or not, and counted as an eviction.
    EXPECT_EQ(PtaIndexCacheSize(), 1u);
    auto index = PtaIndex::Build(rel);
    ASSERT_TRUE(index.ok());
    EXPECT_EQ(PtaIndexCacheBytes(), index->MemoryFootprint());
    EXPECT_EQ(PtaIndexCacheGetStats().evictions, before.evictions + 1);
    PtaIndexCachePin(&rel, false);
  }
  PtaIndexCacheClear();
}

// ---- address reuse: one slot, many relations ----------------------------

TEST(PlanCacheAddressReuseTest, ReemplacedSlotServesEachRelationsOwnAnswer) {
  PtaIndexCacheClear();
  // One storage slot re-emplaced with ramps that differ only at row 30:
  // every relation lives at the same address, and nothing is cleared or
  // announced between runs.
  std::optional<SequentialRelation> slot;
  for (int version = 0; version < 5; ++version) {
    SCOPED_TRACE(version);
    slot.emplace(MakeRamp(64, /*mutated_row=*/30,
                          /*mutated_value=*/100.0 * version));
    PtaRunStats stats;
    const auto result = IndexedQuery(*slot, 8).Run(&stats);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(stats.indexed.cache_hit);
    auto gms = GmsReduceToSize(*slot, 8);
    ASSERT_TRUE(gms.ok());
    ExpectByteIdentical(result->relation, gms->relation);
    EXPECT_EQ(result->error, gms->error);
  }
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  PtaIndexCacheClear();
}

// The same reuse through PTA-QL: consecutive statements over catalog
// relations that differ in one interior row put their ITA results at the
// same executor-local address. Each indexed BUDGET AUTO run must match
// its own pinned-identity greedy answer.
TEST(PlanCacheAddressReuseTest, ConsecutiveQlStatementsServeTheirOwnData) {
  PtaIndexCacheClear();
  const auto make_relation = [](double row30) {
    TemporalRelation rel{Schema({{"G", ValueType::kString},
                                 {"V", ValueType::kDouble}})};
    for (int i = 0; i < 64; ++i) {
      const double v = i == 30 ? row30 : static_cast<double>((i * 13) % 29);
      PTA_CHECK(rel.Insert({"g", v}, Interval(i, i)).ok());
    }
    return rel;
  };
  const std::string statement =
      "SELECT AVG(V) FROM r GROUP BY G BUDGET AUTO USING ENGINE indexed";
  for (const double row30 : {4.0, 500.0, -250.0, 4.0}) {
    SCOPED_TRACE(row30);
    const TemporalRelation rel = make_relation(row30);
    ql::Catalog catalog;
    catalog.Register("r", &rel);
    auto indexed = ql::ParseAndExecute(statement, catalog);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    EXPECT_EQ(indexed->stats.engine, Engine::kIndexed);

    ql::ExecOptions greedy;
    greedy.force_engine = Engine::kGreedy;
    greedy.pin_identity = true;
    auto reference = ql::ParseAndExecute(statement, catalog, greedy);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    EXPECT_EQ(indexed->stats.advised_budget, reference->stats.advised_budget);
    ExpectByteIdentical(indexed->relation, reference->relation);
    EXPECT_EQ(indexed->stats.error, reference->stats.error);
  }
  PtaIndexCacheClear();
}

// ---- satellite 2: thundering-herd coalescing ---------------------------

TEST(PlanCacheCoalesceTest, ConcurrentMissesBuildExactlyOnce) {
  PtaIndexCacheClear();
  const SequentialRelation rel =
      testing::RandomSequential(400, 2, 4, /*gap_probability=*/0.0, 7);
  const PtaQuery query = IndexedQuery(rel, 32);

  // The build hook parks the one real builder until every other thread has
  // registered on the shared future, making the herd deterministic.
  std::atomic<int> hook_calls{0};
  std::promise<void> release;
  std::shared_future<void> gate(release.get_future());
  internal::SetIndexCacheBuildHook([&hook_calls, gate](uint64_t) {
    hook_calls.fetch_add(1, std::memory_order_relaxed);
    gate.wait();
  });

  const auto before = PtaIndexCacheGetStats();
  constexpr int kThreads = 8;
  std::vector<PtaRunStats> stats(kThreads);
  std::vector<std::optional<Result<PtaResult>>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] { results[i].emplace(query.Run(&stats[i])); });
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (PtaIndexCacheGetStats().coalesced <
         before.coalesced + (kThreads - 1)) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "herd never coalesced";
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  release.set_value();
  for (auto& t : threads) t.join();
  internal::SetIndexCacheBuildHook(nullptr);

  const auto after = PtaIndexCacheGetStats();
  EXPECT_EQ(hook_calls.load(), 1);
  EXPECT_EQ(after.builds, before.builds + 1);
  EXPECT_EQ(after.misses, before.misses + 1);
  EXPECT_EQ(after.coalesced, before.coalesced + (kThreads - 1));

  auto gms = GmsReduceToSize(rel, 32);
  ASSERT_TRUE(gms.ok());
  int owners = 0;
  for (int i = 0; i < kThreads; ++i) {
    ASSERT_TRUE(results[i].has_value());
    ASSERT_TRUE(results[i]->ok()) << (*results[i]).status().ToString();
    ExpectByteIdentical((**results[i]).relation, gms->relation);
    EXPECT_FALSE(stats[i].indexed.cache_hit) << "thread " << i;
    if (!stats[i].indexed.coalesced) ++owners;
    // Every participant paid (or waited out) the same shared build.
    EXPECT_GT(stats[i].indexed.build_seconds, 0.0) << "thread " << i;
  }
  EXPECT_EQ(owners, 1);
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  PtaIndexCacheClear();
}

// ---- satellite 3: FIFO fingerprint memory vs. live cache entries -------

TEST(PlanCacheFingerprintMemoryTest, LiveFingerprintSurvivesFifoFlood) {
  PtaIndexCacheClear();
  SequentialRelation rel = MakeRamp(64);
  const PtaQuery query = IndexedQuery(rel, 8);
  ASSERT_TRUE(query.Run().ok());
  auto plan = query.Plan();
  ASSERT_TRUE(plan.ok());
  const uint64_t live = PlanFingerprint(*plan);
  ASSERT_TRUE(internal::IndexCacheSawFingerprint(live));
  ASSERT_NE(internal::IndexCacheLookup(live), nullptr);

  // One dead fingerprint (no cached index), then a flood of exactly
  // kPtaIndexFingerprintMemory more: the FIFO memory must forget dead
  // fingerprints in arrival order but rotate the live one — its index is
  // still cached, and forgetting it would silently downgrade kAuto's
  // re-budgeting routing while the index sits in memory.
  const uint64_t dead = 0xdeadbeef12345678ull;
  internal::IndexCacheNoteFingerprint(dead);
  for (uint64_t i = 0; i < kPtaIndexFingerprintMemory; ++i) {
    internal::IndexCacheNoteFingerprint(0xf100d00000000000ull + i);
  }
  EXPECT_FALSE(internal::IndexCacheSawFingerprint(dead));
  EXPECT_TRUE(internal::IndexCacheSawFingerprint(live));
  EXPECT_NE(internal::IndexCacheLookup(live), nullptr);
  // The flood itself obeys the bound: its oldest entry fell off the back,
  // its newest is still remembered.
  EXPECT_FALSE(internal::IndexCacheSawFingerprint(0xf100d00000000000ull));
  EXPECT_TRUE(internal::IndexCacheSawFingerprint(
      0xf100d00000000000ull + kPtaIndexFingerprintMemory - 1));
  PtaIndexCacheClear();
}

// ---- capacity: entry budget, byte budget, pinning ----------------------

TEST(PlanCacheCapacityTest, EntryBudgetEvictsLruButNeverPinned) {
  PtaIndexCacheClear();
  const PtaIndexCacheConfig saved = PtaIndexCacheGetConfig();
  PtaIndexCacheConfig config;
  config.max_entries = 2;
  PtaIndexCacheSetConfig(config);

  SequentialRelation a = MakeRamp(64);
  SequentialRelation b = MakeRamp(96);
  SequentialRelation c = MakeRamp(128);
  PtaIndexCachePin(&a, true);
  const auto before = PtaIndexCacheGetStats();
  ASSERT_TRUE(IndexedQuery(a, 8).Run().ok());
  ASSERT_TRUE(IndexedQuery(b, 8).Run().ok());
  ASSERT_TRUE(IndexedQuery(c, 8).Run().ok());  // evicts b: a is pinned
  EXPECT_EQ(PtaIndexCacheSize(), 2u);
  EXPECT_EQ(PtaIndexCacheGetStats().evictions, before.evictions + 1);

  PtaRunStats on_a, on_b, on_c;
  ASSERT_TRUE(IndexedQuery(a, 8).Run(&on_a).ok());
  EXPECT_TRUE(on_a.indexed.cache_hit);
  ASSERT_TRUE(IndexedQuery(c, 8).Run(&on_c).ok());
  EXPECT_TRUE(on_c.indexed.cache_hit);
  ASSERT_TRUE(IndexedQuery(b, 8).Run(&on_b).ok());
  EXPECT_FALSE(on_b.indexed.cache_hit);  // b was the one evicted

  PtaIndexCachePin(&a, false);
  PtaIndexCacheSetConfig(saved);
  PtaIndexCacheClear();
}

TEST(PlanCacheCapacityTest, ByteBudgetEvictsButKeepsTheNewestEntry) {
  PtaIndexCacheClear();
  const PtaIndexCacheConfig saved = PtaIndexCacheGetConfig();

  SequentialRelation a = MakeRamp(128);
  SequentialRelation b = MakeRamp(128);  // same shape: equal footprints
  ASSERT_TRUE(IndexedQuery(a, 8).Run().ok());
  const size_t one_index = PtaIndexCacheBytes();
  ASSERT_GT(one_index, 0u);

  // Room for one-and-a-half indexes: inserting the second must evict the
  // first — and must keep the just-inserted one even though it alone still
  // exceeds nothing (a budget below one working index must not thrash).
  PtaIndexCacheConfig config;
  config.max_entries = 0;
  config.max_bytes = one_index + one_index / 2;
  PtaIndexCacheSetConfig(config);
  ASSERT_TRUE(IndexedQuery(b, 8).Run().ok());
  EXPECT_EQ(PtaIndexCacheSize(), 1u);
  EXPECT_LE(PtaIndexCacheBytes(), config.max_bytes);
  PtaRunStats on_b;
  ASSERT_TRUE(IndexedQuery(b, 8).Run(&on_b).ok());
  EXPECT_TRUE(on_b.indexed.cache_hit);

  // A budget smaller than any single index still admits the newest entry.
  config.max_bytes = 1;
  PtaIndexCacheSetConfig(config);
  ASSERT_TRUE(IndexedQuery(a, 8).Run().ok());
  EXPECT_EQ(PtaIndexCacheSize(), 1u);

  PtaIndexCacheSetConfig(saved);
  PtaIndexCacheClear();
}

// ---- satellite 4: concurrent cuts on one shared index ------------------

TEST(SharedIndexConcurrencyTest, MixedCutsRaceOnLazyEmaxAndStayIdentical) {
  const SequentialRelation rel =
      testing::RandomSequential(600, 2, 4, /*gap_probability=*/0.0, 21);
  auto built = PtaIndex::Build(rel);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const PtaIndex& index = *built;

  const std::vector<size_t> ladder = {8, 32, 128};
  auto by_size = GmsReduceToSize(rel, 32);
  auto by_error = GmsReduceToError(rel, 0.25);
  ASSERT_TRUE(by_size.ok());
  ASSERT_TRUE(by_error.ok());
  std::vector<Result<Reduction>> ladder_ref;
  for (const size_t c : ladder) {
    ladder_ref.push_back(GmsReduceToSize(rel, c));
    ASSERT_TRUE(ladder_ref.back().ok());
  }

  // 4 threads per cut flavor, all started together: the error cuts race on
  // the first materialization of the lazily computed Emax.
  constexpr int kPerFlavor = 4;
  std::vector<std::optional<Result<Reduction>>> size_cuts(kPerFlavor);
  std::vector<std::optional<Result<Reduction>>> error_cuts(kPerFlavor);
  std::vector<std::optional<Result<std::vector<Reduction>>>> ladders(
      kPerFlavor);
  std::vector<std::thread> threads;
  for (int i = 0; i < kPerFlavor; ++i) {
    threads.emplace_back(
        [&, i] { size_cuts[i].emplace(index.CutToSize(32)); });
    threads.emplace_back(
        [&, i] { error_cuts[i].emplace(index.CutToError(0.25)); });
    threads.emplace_back(
        [&, i] { ladders[i].emplace(index.MultiBudgetCut(ladder)); });
  }
  for (auto& t : threads) t.join();

  for (int i = 0; i < kPerFlavor; ++i) {
    ASSERT_TRUE(size_cuts[i]->ok());
    ExpectByteIdentical((**size_cuts[i]).relation, by_size->relation);
    EXPECT_EQ((**size_cuts[i]).error, by_size->error);
    ASSERT_TRUE(error_cuts[i]->ok());
    ExpectByteIdentical((**error_cuts[i]).relation, by_error->relation);
    EXPECT_EQ((**error_cuts[i]).error, by_error->error);
    ASSERT_TRUE(ladders[i]->ok());
    ASSERT_EQ((**ladders[i]).size(), ladder.size());
    for (size_t s = 0; s < ladder.size(); ++s) {
      ExpectByteIdentical((**ladders[i])[s].relation,
                          ladder_ref[s]->relation);
      EXPECT_EQ((**ladders[i])[s].error, ladder_ref[s]->error);
    }
  }
}

}  // namespace
}  // namespace pta
