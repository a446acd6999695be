// PtaIndex — the multi-resolution merge-tree index over one greedy run.
//
// The greedy merging strategy (GMS, Sec. 6.1) defines a *total order* on
// merges: which pair folds next never depends on the budget, only on the
// evolving keys — the budget merely decides where the sequence stops. One
// full run to cmin therefore computes the entire hierarchy of solutions at
// once. PtaIndex materializes that hierarchy: it runs GMS once, records the
// dendrogram (per-merge Δ-error, cumulative SSE, merged payloads, sequence
// ids), and then answers
//
//   * any size budget c        — CutToSize(c), an O(k) frontier walk
//                                (k = output size), byte-identical to
//                                GmsReduceToSize(rel, c);
//   * any error budget eps     — CutToError(eps), a binary search on the
//                                cumulative-SSE curve plus the same O(k)
//                                walk, byte-identical to
//                                GmsReduceToError(rel, eps);
//   * a whole zoom ladder      — MultiBudgetCut({c1 < c2 < ...}), all
//                                levels in one coarse-to-fine refinement of
//                                the same frontier.
//
// Byte-identical means the same segments, the same floating-point values,
// and the same accumulated error double as the materialized greedy
// reducers — the cumulative-SSE curve is recorded in GMS merge order, so
// even the error sums agree bit for bit. The streaming gPTAc/gPTAε
// (GreedyReduceToSize/-ToError) coincide with GMS whenever their early
// merges do not fire — in particular on gap-free input with
// delta = kDeltaInfinity (the Fig. 18(a) S1 workload) — and stay within
// the documented lookahead deviation otherwise (see greedy_test.cc).
//
// Construction is group-sharded on util/thread_pool: adjacency never
// crosses an aggregation group, so contiguous group-aligned chunks run
// independent recorders and a deterministic k-way gather — ordered by
// (key, sequence id), exactly the heap's tie-break — reassembles the
// global GMS order. The result is a pure function of the input: thread
// count only changes the wall clock.
//
// The planner exposes the index as Engine::kIndexed, re-binds budgets with
// PtaQuery::WithBudget, and caches built indexes by the budget-stripped
// plan fingerprint (pta/plan.h) so that dashboard-style re-budgeting pays
// one build and then O(k) per zoom level.

#ifndef PTA_PTA_INDEX_H_
#define PTA_PTA_INDEX_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "core/interval.h"
#include "pta/error.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pta {

/// \brief Options of the index build.
struct PtaIndexOptions {
  /// Per-dimension error weights w_d (Def. 5); empty means all ones.
  std::vector<double> weights;
  /// Future-work extension (Sec. 8): merge across temporal gaps.
  bool merge_across_gaps = false;
  /// Build threads; 0 means all hardware threads, or the caller's thread
  /// alone for inputs too small to gain from a pool. Never changes the
  /// result, only the wall clock.
  size_t num_threads = 0;
};

/// \brief Observability of one index construction.
struct PtaIndexBuildStats {
  /// Group-aligned chunks the input was split into.
  size_t chunks = 0;
  /// Threads the pool actually ran with.
  size_t threads_used = 0;
  /// Dendrogram merges recorded (input size minus cmin).
  size_t merges = 0;
  double build_seconds = 0.0;
};

/// \brief The recorded GMS dendrogram: one greedy run, every budget.
///
/// Build() copies the input relation (leaves plus group keys and value
/// names), so the index is self-contained and safely cacheable — it holds
/// no pointers into caller data. All Cut methods are const and thread-safe
/// once built (the lazily computed Emax is guarded internally).
class PtaIndex {
 public:
  /// An empty index (zero leaves, zero merges); every cut returns an empty
  /// relation. Real indexes come from Build() — this exists for
  /// Result<PtaIndex> and container plumbing.
  PtaIndex() = default;

  /// Runs the full greedy merge (to cmin) once and records the dendrogram.
  /// Validates the input's sequential order and the weights arity; fails
  /// with InvalidArgument like the greedy reducers do.
  [[nodiscard]] static Result<PtaIndex> Build(SequentialRelation input,
                                const PtaIndexOptions& options = {},
                                PtaIndexBuildStats* stats = nullptr);

  /// The internal node created by (1-based) merge step j + 1; its payload
  /// lives at merge_values()[j * p .. (j + 1) * p). Public because the
  /// persistence layer (pta/index_io.h) serializes the dendrogram verbatim.
  struct MergeNode {
    int32_t left = -1;   // dendrogram node folded into (the predecessor)
    int32_t right = -1;  // dendrogram node folded away (the heap top)
    int32_t group = 0;
    Interval t;  // hull under gap merging, concatenation otherwise
  };

  /// Reassembles an index from its recorded parts (the load path of
  /// pta/index_io.h). Validates everything Build() would have guaranteed:
  /// input order, weights arity/positivity, array-size consistency, the
  /// delta/cumulative error relationship (bitwise — the running sum is
  /// re-accumulated in merge order), and the dendrogram's structure (every
  /// child index in range and consumed exactly once, groups and intervals
  /// consistent with the children). Roots are recomputed, not trusted.
  /// Rejects anything else as InvalidArgument — never crashes on a
  /// malformed dendrogram.
  [[nodiscard]] static Result<PtaIndex> FromParts(SequentialRelation input,
                                    std::vector<MergeNode> merges,
                                    std::vector<double> merge_values,
                                    std::vector<double> deltas,
                                    std::vector<double> cumulative,
                                    std::vector<double> weights,
                                    bool merge_across_gaps);

  /// Read access to the recorded run, for serialization and tests: the
  /// dendrogram nodes in merge order, their payloads (merges() * p
  /// row-major doubles), the per-merge introduced error, the cumulative
  /// curve (merges() + 1, starting at 0.0), and the build options.
  const std::vector<MergeNode>& merge_nodes() const { return merges_; }
  const std::vector<double>& merge_values() const { return merge_values_; }
  const std::vector<double>& merge_deltas() const { return delta_; }
  const std::vector<double>& cumulative_errors() const { return cum_; }
  const std::vector<double>& weights() const { return weights_; }
  bool merge_across_gaps() const { return merge_across_gaps_; }

  /// Number of input segments (the dendrogram's leaves).
  size_t input_size() const { return input_.size(); }
  /// Aggregate values per segment (the paper's p).
  size_t num_aggregates() const { return input_.num_aggregates(); }
  /// Smallest reachable output size: number of maximal mergeable runs.
  size_t cmin() const { return input_.empty() ? 0 : input_.size() - merges(); }
  /// Recorded merges (input_size() - cmin()).
  size_t merges() const { return delta_.size(); }
  /// The input relation the index was built over (leaves + metadata).
  const SequentialRelation& input() const { return input_; }

  /// Approximate heap footprint in bytes: the leaves' columns plus the
  /// recorded dendrogram (merge nodes, payloads, error curves). Ignores
  /// small metadata (group keys, value names); this is the eviction
  /// currency of the plan cache's byte budget (PtaIndexCacheConfig).
  size_t MemoryFootprint() const;

  /// Largest possible error Emax = SSE at cmin (Def. 7's scale), computed
  /// with the exact arithmetic of ErrorContext::MaxError on first use.
  double max_error() const;

  /// Cumulative SSE after m merges (m <= merges()), accumulated in GMS
  /// merge order — bit-identical to the reducers' running totals.
  double cumulative_error(size_t m) const { return cum_[m]; }

  /// The reduction to (at most) c segments: byte-identical relation and
  /// error to GmsReduceToSize(input, c). Fails with InvalidArgument when
  /// c == 0 or c < cmin, matching the reducer's contract.
  [[nodiscard]] Result<Reduction> CutToSize(size_t c) const;

  /// The SSE of the cut CutToSize(c) would emit — a curve lookup on the
  /// recorded cumulative errors, no Reduction materialized. Same domain
  /// and failures as CutToSize (c == 0 and c < cmin are InvalidArgument).
  [[nodiscard]] Result<double> ErrorForSize(size_t c) const;

  /// The output size CutToError(eps) would select: the minimal c whose
  /// curve error is <= eps * max_error(), again without materializing the
  /// cut. Requires eps in [0, 1]. CutToError and the granularity
  /// advisor's target-relative-error criterion both delegate here, so the
  /// two surfaces can never drift apart.
  [[nodiscard]] Result<size_t> SizeForError(double eps) const;

  /// The maximal reduction with SSE <= eps * Emax: byte-identical to
  /// GmsReduceToError(input, eps). Requires eps in [0, 1].
  [[nodiscard]] Result<Reduction> CutToError(double eps) const;

  /// All cuts of a strictly ascending size-budget vector in one
  /// coarse-to-fine frontier refinement; out[i] is byte-identical to
  /// CutToSize(sizes[i]). Total work is O(sum of output sizes), not
  /// O(levels * input size) — the zoom-ladder path.
  [[nodiscard]] Result<std::vector<Reduction>> MultiBudgetCut(
      const std::vector<size_t>& sizes) const;

 private:
  /// Creation step of dendrogram node x: leaves exist from step 0, the
  /// node of merge j from step j + 1.
  size_t CreatedAt(int32_t x) const {
    return x < static_cast<int32_t>(input_.size())
               ? 0
               : static_cast<size_t>(x) - input_.size() + 1;
  }

  void AppendNode(SequentialRelation* out, int32_t x) const;
  /// One fused descent emitting the cut after m merges directly (the
  /// single-budget fast path).
  Reduction EmitCut(size_t m) const;
  /// The frontier after m merges: every node created at or before m whose
  /// parent (if any) comes after m, in chronological order.
  std::vector<int32_t> FrontierAt(size_t m) const;
  /// Refines a coarser frontier (at m_from merges) to m_to < m_from.
  std::vector<int32_t> RefineFrontier(const std::vector<int32_t>& frontier,
                                      size_t m_to) const;
  Reduction MaterializeCut(const std::vector<int32_t>& frontier,
                           size_t m) const;

  SequentialRelation input_;
  std::vector<MergeNode> merges_;
  std::vector<double> merge_values_;  // merges_.size() * p
  std::vector<double> delta_;         // introduced error per merge
  std::vector<double> cum_{0.0};      // cum_[m] = error after m merges
  std::vector<int32_t> roots_;        // frontier at merges(), chronological
  std::vector<double> weights_;       // effective weights (for Emax)
  bool merge_across_gaps_ = false;

  // Emax is only needed by error cuts; computing it eagerly would tax
  // size-only workloads with a full ErrorContext pass, so it is derived on
  // first use (same arithmetic as GmsReduceToError's budget). Heap-held so
  // the index stays movable; the once_flag makes the lazy fill race-free.
  struct LazyEmax {
    std::once_flag once;
    double value = 0.0;
  };
  std::unique_ptr<LazyEmax> emax_ = std::make_unique<LazyEmax>();
};

}  // namespace pta

#endif  // PTA_PTA_INDEX_H_
