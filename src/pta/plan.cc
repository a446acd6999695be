#include "pta/plan.h"

#include <cstring>
#include <deque>
#include <future>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "pta/dp.h"
#include "pta/error.h"
#include "pta/index.h"
#include "util/mutex.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/thread_annotations.h"
#include "util/thread_pool.h"

namespace pta {

const char* EngineName(Engine engine) {
  switch (engine) {
    case Engine::kExactDp:
      return "exact_dp";
    case Engine::kGreedy:
      return "greedy";
    case Engine::kParallel:
      return "parallel";
    case Engine::kStreaming:
      return "streaming";
    case Engine::kIndexed:
      return "indexed";
    case Engine::kAuto:
      return "auto";
  }
  return "unknown";
}

namespace {

// Counts segments as they pass through, so the greedy backends can report
// the ITA result size without materializing it.
class CountingSource : public SegmentSource {
 public:
  explicit CountingSource(SegmentSource& inner) : inner_(&inner) {}
  size_t num_aggregates() const override { return inner_->num_aggregates(); }
  bool Next(Segment* out) override {
    if (!inner_->Next(out)) return false;
    ++count_;
    return true;
  }
  size_t count() const { return count_; }

 private:
  SegmentSource* inner_;
  size_t count_ = 0;
};

// Estimates Emax by evaluating ITA over a Bernoulli sample of the input and
// scaling the sample's maximal error by the inverse sampling rate
// (Sec. 6.3's sampling suggestion).
Result<double> EstimateMaxError(const TemporalRelation& rel,
                                const ItaSpec& spec,
                                const GreedyPtaOptions& options) {
  const double q = options.sample_fraction;
  if (q <= 0.0 || q > 1.0) {
    return Status::InvalidArgument("sample_fraction must be in (0, 1]");
  }
  Random rng(options.sample_seed);
  std::vector<size_t> rows;
  for (size_t i = 0; i < rel.size(); ++i) {
    if (rng.Bernoulli(q)) rows.push_back(i);
  }
  const TemporalRelation sample = rel.Take(rows);
  if (sample.empty()) return 0.0;
  auto ita = Ita(sample, spec);
  if (!ita.ok()) return ita.status();
  const ErrorContext ctx(*ita, options.weights, options.merge_across_gaps);
  return ctx.MaxError() / q;
}

// Scatter step shared by the parallel paths: partition a group-major
// segment source into per-shard sequential relations by stable group hash.
Result<ShardedSegmentSource> ShardSource(
    SegmentSource& source, const std::vector<GroupKey>& group_keys,
    const std::vector<std::string>& group_by,
    const ParallelOptions& parallel) {
  size_t num_shards = parallel.num_shards;
  if (num_shards == 0) {
    num_shards = parallel.num_threads == 0 ? ThreadPool::DefaultThreadCount()
                                           : parallel.num_threads;
  }
  auto shard_map =
      GroupShardMap(group_keys, group_by, parallel.shard_by, num_shards);
  if (!shard_map.ok()) return shard_map.status();
  return ShardedSegmentSource::Partition(source, num_shards, *shard_map);
}

ParallelReduceOptions ToReduceOptions(const ParallelOptions& parallel,
                                      const GreedyPtaOptions& options) {
  ParallelReduceOptions reduce;
  reduce.num_threads = parallel.num_threads;
  reduce.greedy =
      GreedyOptions{options.weights, options.delta,
                    options.merge_across_gaps, options.eager};
  reduce.budget_sample_fraction = parallel.budget_sample_fraction;
  reduce.budget_sample_seed = parallel.budget_sample_seed;
  return reduce;
}

Result<PtaResult> FromReduction(Result<Reduction> reduced, size_t ita_size) {
  if (!reduced.ok()) return reduced.status();
  PtaResult out;
  out.ita_size = ita_size;
  out.error = reduced->error;
  out.relation = std::move(reduced->relation);
  return out;
}

// ---- the budget-stripped plan fingerprint and the index cache -----------

// FNV-1a over explicitly fed bytes; every field is mixed through the same
// primitive so the fingerprint is platform-stable for a fixed process.
class Fnv64 {
 public:
  void Bytes(const void* data, size_t size) {
    const unsigned char* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  void Str(const std::string& s) {
    U64(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ULL;
};

// One build in flight per fingerprint: the first miss creates the record
// and builds; every concurrent miss on the same fingerprint blocks on the
// shared future instead of duplicating the work.
struct InFlightBuild {
  struct Outcome {
    std::shared_ptr<const PtaIndex> index;  // null when the build failed
    Status status;
    double build_seconds = 0.0;
  };
  std::promise<Outcome> promise;
  std::shared_future<Outcome> future;
};

// The bound input an index was built over: the address keys pinning and
// the stale sweep, the identity tells the live entry from dead ones.
struct CacheInput {
  const void* address = nullptr;
  uint64_t identity = 0;
};

CacheInput InputOf(const PtaPlan& plan) {
  if (plan.sequential != nullptr) {
    return {plan.sequential, plan.sequential->identity()};
  }
  if (plan.relation != nullptr) {
    return {plan.relation, plan.relation->identity()};
  }
  return {};
}

struct CacheEntry {
  uint64_t fingerprint = 0;
  CacheInput input;
  size_t bytes = 0;
  std::shared_ptr<const PtaIndex> index;
};

struct IndexCacheState {
  Mutex mu;
  /// Most recently used at the back; bounded by `config`.
  std::deque<CacheEntry> entries PTA_GUARDED_BY(mu);
  size_t total_bytes PTA_GUARDED_BY(mu) = 0;
  /// Fingerprints of executed plans driving kAuto routing. FIFO-bounded at
  /// kPtaIndexFingerprintMemory, but a fingerprint with a live entry is
  /// never evicted from `seen` — routing must agree with cache contents.
  std::deque<uint64_t> seen_order PTA_GUARDED_BY(mu);
  std::unordered_set<uint64_t> seen PTA_GUARDED_BY(mu);
  /// Builds in progress, keyed by fingerprint (the coalescing map).
  std::unordered_map<uint64_t, std::shared_ptr<InFlightBuild>> inflight
      PTA_GUARDED_BY(mu);
  /// Input addresses whose entries are exempt from budget eviction.
  std::unordered_set<const void*> pinned PTA_GUARDED_BY(mu);
  PtaIndexCacheConfig config PTA_GUARDED_BY(mu);
  PtaIndexCacheStats stats PTA_GUARDED_BY(mu);
  std::function<void(uint64_t)> build_hook PTA_GUARDED_BY(mu);
};

IndexCacheState& CacheState() {
  static IndexCacheState* state = new IndexCacheState();
  return *state;
}

bool HasEntryLocked(const IndexCacheState& state, uint64_t fingerprint)
    PTA_REQUIRES(state.mu) {
  for (const CacheEntry& entry : state.entries) {
    if (entry.fingerprint == fingerprint) return true;
  }
  return false;
}

void NoteFingerprintLocked(IndexCacheState& state, uint64_t fingerprint)
    PTA_REQUIRES(state.mu) {
  if (!state.seen.insert(fingerprint).second) return;
  state.seen_order.push_back(fingerprint);
  // Trim dead fingerprints beyond the memory bound. Live ones (an index
  // still cached) rotate to the back instead of being forgotten; the
  // rotation bound keeps this terminating even if every remembered
  // fingerprint is live (the memory then grows past the soft bound).
  size_t rotations_left = state.seen_order.size();
  while (state.seen_order.size() > kPtaIndexFingerprintMemory &&
         rotations_left-- > 0) {
    const uint64_t front = state.seen_order.front();
    state.seen_order.pop_front();
    if (HasEntryLocked(state, front)) {
      state.seen_order.push_back(front);
      continue;
    }
    state.seen.erase(front);
  }
}

bool PinnedLocked(const IndexCacheState& state, const void* input)
    PTA_REQUIRES(state.mu) {
  return state.pinned.count(input) > 0;
}

// Evicts least-recently-used unpinned entries until both budgets hold.
// The entry with fingerprint `keep` (the one just inserted; pass a value
// no fingerprint takes, e.g. when applying a config, to keep nothing
// special) is never evicted: a cache whose budgets cannot fit the working
// index must not thrash. Skipped (pinned/kept) entries make this a scan,
// not a pop-front loop.
void EvictToBudgetLocked(IndexCacheState& state, uint64_t keep,
                         bool has_keep) PTA_REQUIRES(state.mu) {
  const auto over_budget = [&] {
    const size_t n = state.entries.size();
    if (state.config.max_entries != 0 && n > state.config.max_entries) {
      return true;
    }
    return state.config.max_bytes != 0 &&
           state.total_bytes > state.config.max_bytes;
  };
  auto it = state.entries.begin();
  while (over_budget() && it != state.entries.end()) {
    if ((has_keep && it->fingerprint == keep) ||
        PinnedLocked(state, it->input.address)) {
      ++it;
      continue;
    }
    state.total_bytes -= it->bytes;
    ++state.stats.evictions;
    it = state.entries.erase(it);
  }
}

// Drops the entries over `input`'s address built from other contents.
// Identities are never reused, so no future fingerprint can reach them:
// this is exact, and it frees a replaced input's index before its
// successor is built.
void SweepStaleLocked(IndexCacheState& state, const CacheInput& input)
    PTA_REQUIRES(state.mu) {
  for (auto it = state.entries.begin(); it != state.entries.end();) {
    if (it->input.address == input.address &&
        it->input.identity != input.identity) {
      state.total_bytes -= it->bytes;
      ++state.stats.evictions;
      it = state.entries.erase(it);
    } else {
      ++it;
    }
  }
}

void InsertLocked(IndexCacheState& state, uint64_t fingerprint,
                  const CacheInput& input,
                  std::shared_ptr<const PtaIndex> index)
    PTA_REQUIRES(state.mu) {
  for (auto it = state.entries.begin(); it != state.entries.end(); ++it) {
    if (it->fingerprint == fingerprint) {
      state.total_bytes -= it->bytes;
      state.entries.erase(it);
      break;
    }
  }
  CacheEntry entry;
  entry.fingerprint = fingerprint;
  entry.input = input;
  entry.bytes = index != nullptr ? index->MemoryFootprint() : 0;
  entry.index = std::move(index);
  state.total_bytes += entry.bytes;
  state.entries.push_back(std::move(entry));
  EvictToBudgetLocked(state, fingerprint, /*has_keep=*/true);
  // An entry that survives eviction is live routing state: kAuto must see
  // its fingerprint as executed for as long as the index is cached.
  NoteFingerprintLocked(state, fingerprint);
}

std::shared_ptr<const PtaIndex> LookupLocked(IndexCacheState& state,
                                             uint64_t fingerprint)
    PTA_REQUIRES(state.mu) {
  for (auto it = state.entries.begin(); it != state.entries.end(); ++it) {
    if (it->fingerprint == fingerprint) {
      CacheEntry entry = std::move(*it);
      state.entries.erase(it);
      state.entries.push_back(std::move(entry));  // refresh LRU position
      return state.entries.back().index;
    }
  }
  return nullptr;
}

}  // namespace

uint64_t PlanFingerprint(const PtaPlan& plan) {
  Fnv64 h;
  if (plan.sequential != nullptr) {
    h.U64(1);
    h.U64(plan.sequential->identity());
  } else if (plan.relation != nullptr) {
    h.U64(2);
    h.U64(plan.relation->identity());
  } else {
    h.U64(3);
    h.U64(plan.stream_arity);
  }
  h.U64(plan.spec.group_by.size());
  for (const std::string& attr : plan.spec.group_by) h.Str(attr);
  h.U64(plan.spec.aggregates.size());
  for (const AggregateSpec& agg : plan.spec.aggregates) {
    h.U64(static_cast<uint64_t>(agg.kind));
    h.Str(agg.attr);
    h.Str(agg.output_name);
  }
  // The planner injected the effective weights into every engine's options,
  // so the greedy copy is authoritative. Delta and the gPTAε estimation
  // knobs stay out of the key: they tune how the *greedy* engines
  // approximate GMS, but the index's content — the recorded GMS order —
  // is the same for all of them (which is also why the kAuto upgrade is
  // an explicit WithBudget opt-in: an indexed answer is the GMS cut, not
  // a byte-replay of a particular delta's run). The budget is
  // deliberately absent — that is the whole point.
  h.U64(plan.greedy.weights.size());
  for (const double w : plan.greedy.weights) h.F64(w);
  h.U64(plan.greedy.merge_across_gaps ? 1 : 0);
  return h.value();
}

void PtaIndexCacheSetConfig(const PtaIndexCacheConfig& config) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  state.config = config;
  EvictToBudgetLocked(state, /*keep=*/0, /*has_keep=*/false);
}

PtaIndexCacheConfig PtaIndexCacheGetConfig() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.config;
}

size_t PtaIndexCacheSize() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.entries.size();
}

size_t PtaIndexCacheBytes() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.total_bytes;
}

PtaIndexCacheStats PtaIndexCacheGetStats() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.stats;
}

void PtaIndexCachePin(const void* input, bool pinned) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  if (pinned) {
    state.pinned.insert(input);
  } else {
    state.pinned.erase(input);
    EvictToBudgetLocked(state, /*keep=*/0, /*has_keep=*/false);
  }
}

void PtaIndexCacheClear() {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  state.entries.clear();
  state.total_bytes = 0;
  state.seen_order.clear();
  state.seen.clear();
}

namespace internal {

bool IndexCacheSawFingerprint(uint64_t fingerprint) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return state.seen.count(fingerprint) > 0;
}

void IndexCacheNoteFingerprint(uint64_t fingerprint) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  NoteFingerprintLocked(state, fingerprint);
}

std::shared_ptr<const PtaIndex> IndexCacheLookup(uint64_t fingerprint) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  return LookupLocked(state, fingerprint);
}

void IndexCacheInsert(const PtaPlan& plan,
                      std::shared_ptr<const PtaIndex> index) {
  const uint64_t fingerprint = PlanFingerprint(plan);
  const CacheInput input = InputOf(plan);
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  SweepStaleLocked(state, input);
  InsertLocked(state, fingerprint, input, std::move(index));
}

void SetIndexCacheBuildHook(std::function<void(uint64_t)> hook) {
  IndexCacheState& state = CacheState();
  MutexLock lock(&state.mu);
  state.build_hook = std::move(hook);
}

Result<std::shared_ptr<const PtaIndex>> IndexCacheGetOrBuild(
    const PtaPlan& plan, PtaIndexRunStats* stats) {
  const uint64_t fingerprint = PlanFingerprint(plan);
  const CacheInput input = InputOf(plan);
  IndexCacheState& state = CacheState();
  std::shared_ptr<InFlightBuild> build;
  bool owns_build = false;
  std::function<void(uint64_t)> hook;
  {
    MutexLock lock(&state.mu);
    if (auto cached = LookupLocked(state, fingerprint)) {
      ++state.stats.hits;
      NoteFingerprintLocked(state, fingerprint);
      if (stats != nullptr) stats->cache_hit = true;
      return cached;
    }
    const auto it = state.inflight.find(fingerprint);
    if (it != state.inflight.end()) {
      ++state.stats.coalesced;
      build = it->second;
    } else {
      ++state.stats.misses;
      ++state.stats.builds;
      build = std::make_shared<InFlightBuild>();
      build->future = build->promise.get_future().share();
      state.inflight.emplace(fingerprint, build);
      owns_build = true;
      hook = state.build_hook;
      SweepStaleLocked(state, input);
    }
  }

  if (!owns_build) {
    // Another thread is building this fingerprint right now; wait for its
    // outcome instead of duplicating the work (and the memory).
    const InFlightBuild::Outcome& outcome = build->future.get();
    if (!outcome.status.ok()) return outcome.status;
    if (stats != nullptr) {
      stats->coalesced = true;
      stats->build_seconds = outcome.build_seconds;
    }
    return outcome.index;
  }

  if (hook) hook(fingerprint);
  InFlightBuild::Outcome outcome;
  auto built = [&]() -> Result<PtaIndex> {
    SequentialRelation input;
    if (plan.sequential != nullptr) {
      // Build() owns its leaves (the index must outlive the caller's
      // relation inside the cache), so the input is copied once here.
      input = *plan.sequential;
    } else {
      auto ita = Ita(*plan.relation, plan.spec);
      if (!ita.ok()) return ita.status();
      input = std::move(*ita);
    }
    PtaIndexOptions options;
    options.weights = plan.greedy.weights;
    options.merge_across_gaps = plan.greedy.merge_across_gaps;
    options.num_threads = plan.parallel.num_threads;
    PtaIndexBuildStats build_stats;
    auto index = PtaIndex::Build(std::move(input), options, &build_stats);
    outcome.build_seconds = build_stats.build_seconds;
    return index;
  }();

  if (built.ok()) {
    outcome.index = std::make_shared<const PtaIndex>(std::move(*built));
  } else {
    outcome.status = built.status();
  }
  {
    MutexLock lock(&state.mu);
    state.inflight.erase(fingerprint);
    if (outcome.index != nullptr) {
      InsertLocked(state, fingerprint, input, outcome.index);
    } else {
      // A failed build is not remembered; the next request retries.
      --state.stats.builds;
    }
  }
  // Fulfill outside the lock so woken waiters never contend on it.
  build->promise.set_value(outcome);
  if (!outcome.status.ok()) return outcome.status;
  if (stats != nullptr) stats->build_seconds = outcome.build_seconds;
  return outcome.index;
}

}  // namespace internal

size_t PtaPlan::num_aggregates() const {
  if (sequential != nullptr) return sequential->num_aggregates();
  if (stream_arity > 0) return stream_arity;
  return spec.aggregates.size();
}

namespace {

// ---- backends over a base TemporalRelation (ITA runs first) ------------

Result<PtaResult> ExecExactOverRelation(const PtaPlan& plan) {
  auto ita = Ita(*plan.relation, plan.spec);
  if (!ita.ok()) return ita.status();
  const DpOptions dp_options{plan.exact.weights, plan.exact.use_pruning,
                             plan.exact.use_early_break,
                             plan.exact.merge_across_gaps};
  auto reduced =
      plan.budget.is_size()
          ? ReduceToSizeDp(*ita, plan.budget.size(), dp_options)
          : ReduceToErrorDp(*ita, plan.budget.relative_error(), dp_options);
  return FromReduction(std::move(reduced), ita->size());
}

Result<PtaResult> ExecGreedyOverRelation(const PtaPlan& plan,
                                         GreedyStats* stats) {
  GreedyErrorEstimates estimates;
  if (!plan.budget.is_size()) {
    // The ITA result of |r| tuples has at most 2|r| - 1 tuples (Sec. 3).
    estimates.estimated_n =
        plan.greedy.estimated_n > 0
            ? plan.greedy.estimated_n
            : (plan.relation->empty() ? 1 : 2 * plan.relation->size() - 1);
    if (plan.greedy.estimated_max_error >= 0.0) {
      estimates.estimated_max_error = plan.greedy.estimated_max_error;
    } else {
      auto est = EstimateMaxError(*plan.relation, plan.spec, plan.greedy);
      if (!est.ok()) return est.status();
      estimates.estimated_max_error = *est;
    }
  }

  auto stream = ItaStream::Create(*plan.relation, plan.spec);
  if (!stream.ok()) return stream.status();
  CountingSource source(**stream);
  const GreedyOptions greedy{plan.greedy.weights, plan.greedy.delta,
                             plan.greedy.merge_across_gaps,
                             plan.greedy.eager};
  auto reduced =
      plan.budget.is_size()
          ? GreedyReduceToSize(source, plan.budget.size(), greedy, stats)
          : GreedyReduceToError(source, plan.budget.relative_error(),
                                estimates, greedy, stats);
  auto out = FromReduction(std::move(reduced), source.count());
  if (!out.ok()) return out;
  out->relation.SetGroupKeys((*stream)->group_keys());
  out->relation.SetValueNames((*stream)->value_names());
  return out;
}

Result<PtaResult> ExecParallelOverRelation(const PtaPlan& plan,
                                           ParallelStats* stats) {
  auto stream = ItaStream::Create(*plan.relation, plan.spec);
  if (!stream.ok()) return stream.status();
  auto shards = ShardSource(**stream, (*stream)->group_keys(),
                            plan.spec.group_by, plan.parallel);
  if (!shards.ok()) return shards.status();
  const ParallelReduceOptions reduce =
      ToReduceOptions(plan.parallel, plan.greedy);
  auto reduced =
      plan.budget.is_size()
          ? ParallelReduceToSize(*shards, plan.budget.size(), reduce, stats)
          : ParallelReduceToError(*shards, plan.budget.relative_error(),
                                  reduce, stats);
  auto out = FromReduction(std::move(reduced), shards->total_size());
  if (!out.ok()) return out;
  out->relation.SetGroupKeys((*stream)->group_keys());
  out->relation.SetValueNames((*stream)->value_names());
  return out;
}

// ---- backends over a pre-aggregated SequentialRelation (ITA skipped) ---

Result<PtaResult> ExecExactOverSequential(const PtaPlan& plan) {
  const DpOptions dp_options{plan.exact.weights, plan.exact.use_pruning,
                             plan.exact.use_early_break,
                             plan.exact.merge_across_gaps};
  auto reduced =
      plan.budget.is_size()
          ? ReduceToSizeDp(*plan.sequential, plan.budget.size(), dp_options)
          : ReduceToErrorDp(*plan.sequential, plan.budget.relative_error(),
                            dp_options);
  // The DP reconstructs metadata from its input; nothing to re-attach.
  return FromReduction(std::move(reduced), plan.sequential->size());
}

Result<PtaResult> ExecGreedyOverSequential(const PtaPlan& plan,
                                           GreedyStats* stats) {
  GreedyErrorEstimates estimates;
  if (!plan.budget.is_size()) {
    // Unlike the base-relation path, n is known exactly here, and Êmax can
    // be sampled at the segment level (fraction 1 = the exact MaxError).
    estimates.estimated_n = plan.greedy.estimated_n > 0
                                ? plan.greedy.estimated_n
                                : plan.sequential->size();
    if (plan.greedy.estimated_max_error >= 0.0) {
      estimates.estimated_max_error = plan.greedy.estimated_max_error;
    } else {
      auto est = EstimateMaxErrorBySampling(
          *plan.sequential, plan.greedy.weights, plan.greedy.sample_fraction,
          plan.greedy.sample_seed, plan.greedy.merge_across_gaps);
      if (!est.ok()) return est.status();
      estimates.estimated_max_error = *est;
    }
  }

  RelationSegmentSource source(*plan.sequential);
  const GreedyOptions greedy{plan.greedy.weights, plan.greedy.delta,
                             plan.greedy.merge_across_gaps,
                             plan.greedy.eager};
  auto reduced =
      plan.budget.is_size()
          ? GreedyReduceToSize(source, plan.budget.size(), greedy, stats)
          : GreedyReduceToError(source, plan.budget.relative_error(),
                                estimates, greedy, stats);
  auto out = FromReduction(std::move(reduced), plan.sequential->size());
  if (!out.ok()) return out;
  out->relation.SetGroupKeys(plan.sequential->group_keys());
  out->relation.SetValueNames(plan.sequential->value_names());
  return out;
}

Result<PtaResult> ExecParallelOverSequential(const PtaPlan& plan,
                                             ParallelStats* stats) {
  if (plan.sequential->group_keys().empty()) {
    return Status::InvalidArgument(
        "parallel engine over a sequential input requires group keys "
        "(SequentialRelation::SetGroupKeys)");
  }
  RelationSegmentSource source(*plan.sequential);
  auto shards = ShardSource(source, plan.sequential->group_keys(),
                            plan.spec.group_by, plan.parallel);
  if (!shards.ok()) return shards.status();
  const ParallelReduceOptions reduce =
      ToReduceOptions(plan.parallel, plan.greedy);
  auto reduced =
      plan.budget.is_size()
          ? ParallelReduceToSize(*shards, plan.budget.size(), reduce, stats)
          : ParallelReduceToError(*shards, plan.budget.relative_error(),
                                  reduce, stats);
  auto out = FromReduction(std::move(reduced), shards->total_size());
  if (!out.ok()) return out;
  out->relation.SetGroupKeys(plan.sequential->group_keys());
  out->relation.SetValueNames(plan.sequential->value_names());
  return out;
}

// ---- the indexed backend (works for both input bindings) ---------------

Result<PtaResult> ExecIndexed(const PtaPlan& plan, PtaRunStats* stats) {
  PtaIndexRunStats* index_stats = stats != nullptr ? &stats->indexed : nullptr;
  auto index = internal::IndexCacheGetOrBuild(plan, index_stats);
  if (!index.ok()) return index.status();

  Stopwatch cut_watch;
  auto cut = plan.budget.is_size()
                 ? (*index)->CutToSize(plan.budget.size())
                 : (*index)->CutToError(plan.budget.relative_error());
  if (stats != nullptr) {
    stats->indexed.cut_seconds = cut_watch.ElapsedSeconds();
  }
  // The cut carries the index's leaf metadata (group keys, value names);
  // ita_size is the leaf count — on a cache hit the re-budget run skipped
  // ITA entirely, which is exactly the fast path being advertised.
  return FromReduction(std::move(cut), (*index)->input_size());
}

}  // namespace

Result<PtaResult> PtaPlan::Execute(PtaRunStats* stats) const {
  Stopwatch watch;
  GreedyStats* greedy_stats = stats != nullptr ? &stats->greedy : nullptr;
  ParallelStats* parallel_stats =
      stats != nullptr ? &stats->parallel : nullptr;

  auto run = [&]() -> Result<PtaResult> {
    switch (engine) {
      case Engine::kExactDp:
        return sequential != nullptr ? ExecExactOverSequential(*this)
                                     : ExecExactOverRelation(*this);
      case Engine::kGreedy:
        return sequential != nullptr
                   ? ExecGreedyOverSequential(*this, greedy_stats)
                   : ExecGreedyOverRelation(*this, greedy_stats);
      case Engine::kParallel:
        return sequential != nullptr
                   ? ExecParallelOverSequential(*this, parallel_stats)
                   : ExecParallelOverRelation(*this, parallel_stats);
      case Engine::kIndexed:
        return ExecIndexed(*this, stats);
      case Engine::kStreaming:
        return Status::InvalidArgument(
            "a streaming plan has no batch execution; bind it with "
            "PtaQuery::Start() (pta/stream_api.h, link pta_stream)");
      case Engine::kAuto:
        break;
    }
    return Status::InvalidArgument(
        "plan has an unresolved engine; build plans with PtaQuery::Plan()");
  };

  auto out = run();
  if (out.ok() && engine == Engine::kGreedy && stream_arity == 0) {
    // Remember this budget-stripped shape: when the same query comes back
    // with only the budget changed, kAuto upgrades it to the indexed cut
    // (pta/query.cc) instead of repeating the full greedy run.
    internal::IndexCacheNoteFingerprint(PlanFingerprint(*this));
  }
  if (stats != nullptr) {
    stats->engine = engine;
    stats->run_seconds = watch.ElapsedSeconds();
  }
  return out;
}

}  // namespace pta
