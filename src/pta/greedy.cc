#include "pta/greedy.h"

#include "pta/merge_heap.h"

namespace pta {

namespace {

static_assert(GreedyOptions::kDeltaInfinity == static_cast<size_t>(-1),
              "MergeHeap::TopHasDeltaSuccessors tests this sentinel");

void FillStats(const MergeHeap& heap, size_t merges, size_t early_merges,
               GreedyStats* stats) {
  if (stats == nullptr) return;
  stats->max_heap_size = heap.max_size();
  stats->merges = merges;
  stats->early_merges = early_merges;
}

// Accumulates the exact Emax = SSE(s, rho(s, cmin)) while segments stream
// by: per maximal adjacent run, Emax grows by the SSE of merging the whole
// run into one tuple, computable from running (sum L, sum L*v, sum L*v^2).
class RunErrorAccumulator {
 public:
  RunErrorAccumulator(size_t p, const std::vector<double>& weights)
      : p_(p),
        weights_(WeightsOrOnes(p, weights)),
        sum_lv_(p, 0.0),
        sum_lv2_(p, 0.0) {}

  void Add(const Segment& seg) {
    const double len = static_cast<double>(seg.t.length());
    sum_l_ += len;
    for (size_t d = 0; d < p_; ++d) {
      sum_lv_[d] += len * seg.values[d];
      sum_lv2_[d] += len * seg.values[d] * seg.values[d];
    }
  }

  /// SSE of collapsing the accumulated run into one tuple; resets the run.
  double FinishAndReset() {
    if (sum_l_ <= 0.0) return 0.0;
    double acc = 0.0;
    for (size_t d = 0; d < p_; ++d) {
      const double w = weights_[d];
      acc += w * w * (sum_lv2_[d] - sum_lv_[d] * sum_lv_[d] / sum_l_);
      sum_lv_[d] = 0.0;
      sum_lv2_[d] = 0.0;
    }
    sum_l_ = 0.0;
    return acc < 0.0 ? 0.0 : acc;
  }

 private:
  size_t p_;
  std::vector<double> weights_;
  double sum_l_ = 0.0;
  std::vector<double> sum_lv_;
  std::vector<double> sum_lv2_;
};

}  // namespace

Result<Reduction> GmsReduceToSize(const SequentialRelation& ita, size_t c,
                                  const GreedyOptions& options,
                                  GreedyStats* stats) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  MergeHeap heap(ita.num_aggregates(), options.weights,
                 options.merge_across_gaps);
  heap.Reserve(ita.size());
  for (size_t i = 0; i < ita.size(); ++i) heap.Insert(ita.view(i));

  double total = 0.0;
  size_t merges = 0;
  while (heap.size() > c) {
    if (heap.Peek().key == kInfiniteError) {
      return Status::InvalidArgument(
          "size bound " + std::to_string(c) + " is below cmin = " +
          std::to_string(heap.size()));
    }
    total += heap.MergeTop();
    ++merges;
  }
  FillStats(heap, merges, 0, stats);
  Reduction out{heap.ExtractRelation(), total};
  out.relation.SetGroupKeys(ita.group_keys());
  out.relation.SetValueNames(ita.value_names());
  return out;
}

Result<Reduction> GmsReduceToError(const SequentialRelation& ita, double eps,
                                   const GreedyOptions& options,
                                   GreedyStats* stats) {
  PTA_RETURN_IF_ERROR(ita.Validate());
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  const ErrorContext ctx(ita, options.weights, options.merge_across_gaps);
  const double budget = eps * ctx.MaxError();

  MergeHeap heap(ita.num_aggregates(), options.weights,
                 options.merge_across_gaps);
  heap.Reserve(ita.size());
  for (size_t i = 0; i < ita.size(); ++i) heap.Insert(ita.view(i));

  double total = 0.0;
  size_t merges = 0;
  while (!heap.empty()) {
    const MergeHeap::TopInfo top = heap.Peek();
    if (top.key == kInfiniteError || total + top.key > budget) break;
    total += heap.MergeTop();
    ++merges;
  }
  FillStats(heap, merges, 0, stats);
  Reduction out{heap.ExtractRelation(), total};
  out.relation.SetGroupKeys(ita.group_keys());
  out.relation.SetValueNames(ita.value_names());
  return out;
}

Result<Reduction> GreedyReduceToSize(SegmentSource& source, size_t c,
                                     const GreedyOptions& options,
                                     GreedyStats* stats) {
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  MergeHeap heap(source.num_aggregates(), options.weights,
                 options.merge_across_gaps);
  int64_t last_gap_id = 0;
  int64_t before_gap = 0;  // BG: live tuples preceding the last gap node
  int64_t after_gap = 0;   // AG: live tuples from the last gap node onward
  double total = 0.0;
  size_t merges = 0;
  size_t early_merges = 0;

  Segment seg;
  while (source.Next(&seg)) {
    int64_t id = 0;
    const double key = heap.Insert(seg, &id);
    if (key == kInfiniteError) {
      // A non-adjacent pair (or the first tuple) marks a merge boundary.
      last_gap_id = id;
      before_gap += after_gap;
      after_gap = 1;
    } else {
      ++after_gap;
    }

    while (options.eager && heap.size() > c) {
      const MergeHeap::TopInfo top = heap.Peek();
      // An infinite top key means every live pair is non-adjacent; nothing
      // can merge until more tuples arrive (if c < cmin, the final drain
      // reports the error).
      if (top.key == kInfiniteError) break;
      if (top.id < last_gap_id && before_gap > static_cast<int64_t>(c)) {
        // Prop. 3: a later non-adjacent pair exists and *more than* c live
        // tuples precede it, so GMS is forced to perform this merge too
        // (the post-gap region keeps at least one tuple, capping the final
        // pre-gap count at c - 1). The bound is strict: merging while
        // before_gap == c would take the pre-gap region down to c - 1 one
        // step before the stream proves the step is needed, and the merge's
        // re-keying can expose a cheaper pair to the final drain than GMS
        // ever sees at its stop-at-c cutoff — the budget-boundary bug the
        // PtaIndex regression sweep caught.
        --before_gap;
        total += heap.MergeTop();
        ++merges;
        ++early_merges;
      } else if (top.id > last_gap_id &&
                 heap.TopHasDeltaSuccessors(options.delta)) {
        --after_gap;
        total += heap.MergeTop();
        ++merges;
        ++early_merges;
      } else {
        break;
      }
    }
  }

  // Input exhausted: finish the reduction with plain GMS.
  while (heap.size() > c) {
    if (heap.Peek().key == kInfiniteError) {
      return Status::InvalidArgument(
          "size bound " + std::to_string(c) + " is below cmin = " +
          std::to_string(heap.size()));
    }
    total += heap.MergeTop();
    ++merges;
  }
  FillStats(heap, merges, early_merges, stats);
  return Reduction{heap.ExtractRelation(), total};
}

Result<Reduction> GreedyReduceToError(SegmentSource& source, double eps,
                                      const GreedyErrorEstimates& estimates,
                                      const GreedyOptions& options,
                                      GreedyStats* stats) {
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  if (estimates.estimated_n == 0 || estimates.estimated_max_error < 0.0) {
    return Status::InvalidArgument(
        "gPTAeps requires positive estimated_n and non-negative "
        "estimated_max_error");
  }
  // Prop. 4's per-step allowance: merges cheaper than eps * Emax / n are
  // safe to take as soon as a later non-adjacent pair (or delta successors)
  // confirms their key can no longer change.
  const double step_budget =
      eps * estimates.estimated_max_error /
      static_cast<double>(estimates.estimated_n);

  MergeHeap heap(source.num_aggregates(), options.weights,
                 options.merge_across_gaps);
  RunErrorAccumulator run(source.num_aggregates(), options.weights);
  int64_t last_gap_id = 0;
  int64_t before_gap = 0;
  int64_t after_gap = 0;
  double total = 0.0;
  double emax = 0.0;  // exact Emax, finalized once the stream ends
  size_t merges = 0;
  size_t early_merges = 0;

  Segment seg;
  while (source.Next(&seg)) {
    int64_t id = 0;
    const double key = heap.Insert(seg, &id);
    if (key == kInfiniteError) {
      last_gap_id = id;
      before_gap += after_gap;
      after_gap = 1;
      emax += run.FinishAndReset();
    } else {
      ++after_gap;
    }
    run.Add(seg);

    while (options.eager && !heap.empty()) {
      const MergeHeap::TopInfo top = heap.Peek();
      if (top.key > step_budget) break;  // also breaks on infinite keys
      if (top.id < last_gap_id) {
        --before_gap;
        total += heap.MergeTop();
        ++merges;
        ++early_merges;
      } else if (top.id > last_gap_id &&
                 heap.TopHasDeltaSuccessors(options.delta)) {
        --after_gap;
        total += heap.MergeTop();
        ++merges;
        ++early_merges;
      } else {
        break;
      }
    }
  }
  emax += run.FinishAndReset();

  // Input exhausted: the exact Emax is now known; continue with GMS while
  // the global budget allows (Fig. 13 lines 22-28).
  const double budget = eps * emax;
  while (!heap.empty()) {
    const MergeHeap::TopInfo top = heap.Peek();
    if (top.key == kInfiniteError || total + top.key > budget) break;
    total += heap.MergeTop();
    ++merges;
  }
  FillStats(heap, merges, early_merges, stats);
  return Reduction{heap.ExtractRelation(), total};
}

}  // namespace pta
