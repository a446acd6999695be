#include "pta/index.h"

#include <algorithm>
#include <cstring>
#include <string>
#include <utility>

#include "pta/merge_heap.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace pta {

namespace {

// Leaves below which a build with num_threads = 0 runs single-threaded.
// Measured on a 4-vCPU x86-64 host (Release, 50-group synthetic ITA input,
// median of 11): one thread and four take equally long at ~11.7k leaves
// (2.3 ms); at 1.4k leaves four threads are 34% slower, at 190k 13% faster.
constexpr size_t kMinPooledBuildRows = 12000;

// One chunk-local merge, with ids already shifted into the global (whole
// relation) insertion numbering so the gather can replay the global heap's
// (key, id) order and tie-break verbatim.
struct LoggedMerge {
  double key = 0.0;
  int64_t top_id = 0;   // global id of the node folded away
  int64_t pred_id = 0;  // global id of the surviving node
  int32_t group = 0;
  Interval t;
  // Post-merge values live in the chunk's payload buffer at
  // index * p .. (index + 1) * p.
};

// The full GMS run of one contiguous, group-aligned row range [begin, end):
// every merge until only non-mergeable pairs remain, in chunk-local GMS
// order. Because adjacency never crosses a group and chunks never split a
// group, chunk-local keys and merge sub-orders are exactly the global ones.
struct ChunkLog {
  std::vector<LoggedMerge> merges;
  std::vector<double> values;  // merges.size() * p payload copies
};

void RunChunk(const SequentialRelation& rel, size_t begin, size_t end,
              size_t p, const PtaIndexOptions& options, ChunkLog* log) {
  MergeHeap heap(p, options.weights, options.merge_across_gaps);
  heap.Reserve(end - begin);
  for (size_t i = begin; i < end; ++i) heap.Insert(rel.view(i));
  log->merges.reserve(end - begin);
  log->values.reserve((end - begin) * p);
  while (!heap.empty() && heap.Peek().key < kInfiniteError) {
    MergeHeap::MergeRecord rec;
    heap.MergeTop(&rec);
    LoggedMerge entry;
    entry.key = rec.key;
    // Chunk-local ids are 1-based in chunk insertion order; row `begin`
    // holds global id begin + 1.
    entry.top_id = static_cast<int64_t>(begin) + rec.top_id;
    entry.pred_id = static_cast<int64_t>(begin) + rec.pred_id;
    entry.group = rec.group;
    entry.t = rec.t;
    log->merges.push_back(entry);
    log->values.insert(log->values.end(), rec.values, rec.values + p);
  }
}

// Contiguous group-aligned chunk ranges of roughly equal row counts. The
// boundaries never affect the result (the gather re-serializes the global
// order); they only balance the build across the pool.
std::vector<std::pair<size_t, size_t>> ChunkRanges(
    const SequentialRelation& rel, size_t target_chunks) {
  std::vector<std::pair<size_t, size_t>> ranges;
  const size_t n = rel.size();
  if (n == 0) return ranges;
  const size_t target_rows = std::max<size_t>(1, n / std::max<size_t>(
                                                      1, target_chunks));
  size_t begin = 0;
  for (size_t i = 1; i < n; ++i) {
    if (rel.group(i) != rel.group(i - 1) && i - begin >= target_rows) {
      ranges.push_back({begin, i});
      begin = i;
    }
  }
  ranges.push_back({begin, n});
  return ranges;
}

}  // namespace

Result<PtaIndex> PtaIndex::Build(SequentialRelation input,
                                 const PtaIndexOptions& options,
                                 PtaIndexBuildStats* stats) {
  PTA_RETURN_IF_ERROR(input.Validate());
  const size_t p = input.num_aggregates();
  if (!options.weights.empty()) {
    if (options.weights.size() != p) {
      return Status::InvalidArgument(
          "weights arity (" + std::to_string(options.weights.size()) +
          ") does not match the aggregate dimension count (" +
          std::to_string(p) + ")");
    }
    for (const double w : options.weights) {
      if (!(w > 0.0)) {
        return Status::InvalidArgument("weights must be positive");
      }
    }
  }

  Stopwatch watch;
  if (stats != nullptr) *stats = PtaIndexBuildStats{};
  PtaIndex index;
  index.input_ = std::move(input);
  index.weights_ = options.weights;
  index.merge_across_gaps_ = options.merge_across_gaps;
  const SequentialRelation& rel = index.input_;
  const size_t n = rel.size();
  index.cum_.assign(1, 0.0);
  if (n == 0) {
    if (stats != nullptr) {
      *stats = PtaIndexBuildStats{};
      stats->build_seconds = watch.ElapsedSeconds();
    }
    return index;
  }

  // ---- scatter: one recorded GMS run per group-aligned chunk ------------
  // An automatic thread count runs small builds on the caller: below
  // kMinPooledBuildRows leaves, starting the pool costs more than the
  // chunks save.
  const size_t threads =
      options.num_threads != 0       ? options.num_threads
      : n < kMinPooledBuildRows ? 1
                                : ThreadPool::DefaultThreadCount();
  // A few chunks per thread keeps the pool busy when group sizes are
  // skewed; chunking never changes the result. A single-threaded build
  // uses one chunk and records straight into the index (no pool, no log,
  // one payload copy) — the bench gates build cost at <= 1.3x one greedy
  // run, and spawning workers or double-buffering would eat that margin.
  const auto ranges =
      threads == 1 ? std::vector<std::pair<size_t, size_t>>{{0, n}}
                   : ChunkRanges(rel, threads * 4);

  // dnode[row] = dendrogram node currently carrying the heap node whose
  // global id is row + 1 (survivors keep their id, so the slot stays live).
  std::vector<int32_t> dnode(n);
  for (size_t i = 0; i < n; ++i) dnode[i] = static_cast<int32_t>(i);
  size_t total_merges = 0;

  if (ranges.size() == 1) {
    index.merges_.reserve(n);
    index.merge_values_.reserve(n * p);
    index.delta_.reserve(n);
    index.cum_.reserve(n + 1);
    MergeHeap heap(p, options.weights, options.merge_across_gaps);
    heap.Reserve(n);
    for (size_t i = 0; i < n; ++i) heap.Insert(rel.view(i));
    double running = 0.0;
    while (!heap.empty() && heap.Peek().key < kInfiniteError) {
      MergeHeap::MergeRecord rec;
      heap.MergeTop(&rec);
      const int32_t left = dnode[static_cast<size_t>(rec.pred_id) - 1];
      const int32_t right = dnode[static_cast<size_t>(rec.top_id) - 1];
      index.merges_.push_back(MergeNode{left, right, rec.group, rec.t});
      index.merge_values_.insert(index.merge_values_.end(), rec.values,
                                 rec.values + p);
      index.delta_.push_back(rec.key);
      running += rec.key;
      index.cum_.push_back(running);
      dnode[static_cast<size_t>(rec.pred_id) - 1] =
          static_cast<int32_t>(n + total_merges);
      ++total_merges;
    }
    if (stats != nullptr) {
      stats->chunks = 1;
      stats->threads_used = 1;
    }
  } else {
    std::vector<ChunkLog> logs(ranges.size());
    {
      ThreadPool pool(std::max<size_t>(1, std::min(threads, ranges.size())));
      pool.ParallelFor(ranges.size(), [&](size_t i) {
        RunChunk(rel, ranges[i].first, ranges[i].second, p, options,
                 &logs[i]);
      });
      if (stats != nullptr) {
        stats->chunks = ranges.size();
        stats->threads_used = pool.num_threads();
      }
    }

    // ---- gather: replay the global GMS order ---------------------------
    // At any global state, every chunk's next local merge is that chunk's
    // current heap minimum, so the global minimum is the smallest chunk
    // head by (key, id) — a deterministic k-way merge of the logs
    // reproduces the global sequence, and with it the bitwise-identical
    // cumulative SSE.
    size_t merge_total = 0;
    for (const ChunkLog& log : logs) merge_total += log.merges.size();
    index.merges_.reserve(merge_total);
    index.merge_values_.reserve(merge_total * p);
    index.delta_.reserve(merge_total);
    index.cum_.reserve(merge_total + 1);

    // A binary min-heap over the chunk heads keyed by (key, top_id) — the
    // heap's own tie-break — keeps each step at O(log chunks) instead of a
    // linear scan (chunk count scales with the thread count).
    struct Head {
      double key;
      int64_t top_id;
      uint32_t chunk;
    };
    const auto head_after = [](const Head& a, const Head& b) {
      if (a.key != b.key) return a.key > b.key;
      return a.top_id > b.top_id;
    };
    std::vector<size_t> cursor(logs.size(), 0);
    std::vector<Head> heads;
    heads.reserve(logs.size());
    for (size_t s = 0; s < logs.size(); ++s) {
      if (logs[s].merges.empty()) continue;
      heads.push_back(Head{logs[s].merges[0].key, logs[s].merges[0].top_id,
                           static_cast<uint32_t>(s)});
    }
    std::make_heap(heads.begin(), heads.end(), head_after);

    double running = 0.0;
    for (size_t step = 0; step < merge_total; ++step) {
      std::pop_heap(heads.begin(), heads.end(), head_after);
      const size_t best = heads.back().chunk;
      heads.pop_back();
      const LoggedMerge& e = logs[best].merges[cursor[best]];
      const double* values = logs[best].values.data() + cursor[best] * p;
      ++cursor[best];
      if (cursor[best] < logs[best].merges.size()) {
        const LoggedMerge& next = logs[best].merges[cursor[best]];
        heads.push_back(
            Head{next.key, next.top_id, static_cast<uint32_t>(best)});
        std::push_heap(heads.begin(), heads.end(), head_after);
      }

      const int32_t left = dnode[static_cast<size_t>(e.pred_id) - 1];
      const int32_t right = dnode[static_cast<size_t>(e.top_id) - 1];
      index.merges_.push_back(MergeNode{left, right, e.group, e.t});
      index.merge_values_.insert(index.merge_values_.end(), values,
                                 values + p);
      index.delta_.push_back(e.key);
      running += e.key;
      index.cum_.push_back(running);
      dnode[static_cast<size_t>(e.pred_id) - 1] =
          static_cast<int32_t>(n + step);
    }
    total_merges = merge_total;
  }

  // ---- roots: the surviving nodes, chronologically ----------------------
  // Reconstructed from the dendrogram itself: a node is a root iff no
  // merge consumed it; its chronological rank is its leftmost leaf.
  std::vector<int32_t> lo(n + total_merges);
  for (size_t i = 0; i < n; ++i) lo[i] = static_cast<int32_t>(i);
  std::vector<bool> consumed(n + total_merges, false);
  for (size_t j = 0; j < total_merges; ++j) {
    consumed[static_cast<size_t>(index.merges_[j].left)] = true;
    consumed[static_cast<size_t>(index.merges_[j].right)] = true;
    lo[n + j] = lo[static_cast<size_t>(index.merges_[j].left)];
  }
  index.roots_.reserve(n - total_merges);
  for (size_t x = 0; x < consumed.size(); ++x) {
    if (!consumed[x]) index.roots_.push_back(static_cast<int32_t>(x));
  }
  std::sort(index.roots_.begin(), index.roots_.end(),
            [&lo](int32_t a, int32_t b) { return lo[a] < lo[b]; });
  PTA_CHECK_MSG(index.roots_.size() == n - total_merges,
                "dendrogram root count mismatch");

  if (stats != nullptr) {
    stats->merges = total_merges;
    stats->build_seconds = watch.ElapsedSeconds();
  }
  return index;
}

Result<PtaIndex> PtaIndex::FromParts(SequentialRelation input,
                                     std::vector<MergeNode> merges,
                                     std::vector<double> merge_values,
                                     std::vector<double> deltas,
                                     std::vector<double> cumulative,
                                     std::vector<double> weights,
                                     bool merge_across_gaps) {
  PTA_RETURN_IF_ERROR(input.Validate());
  const size_t p = input.num_aggregates();
  const size_t n = input.size();
  const size_t m = merges.size();
  if (!weights.empty()) {
    if (weights.size() != p) {
      return Status::InvalidArgument(
          "weights arity (" + std::to_string(weights.size()) +
          ") does not match the aggregate dimension count (" +
          std::to_string(p) + ")");
    }
    for (const double w : weights) {
      if (!(w > 0.0)) {
        return Status::InvalidArgument("weights must be positive");
      }
    }
  }
  if (merge_values.size() != m * p) {
    return Status::InvalidArgument("merge payload size mismatch");
  }
  if (deltas.size() != m) {
    return Status::InvalidArgument("merge delta count mismatch");
  }
  if (cumulative.size() != m + 1) {
    return Status::InvalidArgument("cumulative error count mismatch");
  }
  // The error curve must be exactly what Build would have accumulated:
  // cum_[0] = +0.0 and each step adds the recorded delta in merge order.
  // The comparison is on bits, not values, so the loaded curve replays
  // bitwise in cuts (and NaN smuggling fails here rather than downstream).
  const auto bits = [](double v) {
    uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
  };
  if (bits(cumulative[0]) != bits(0.0)) {
    return Status::InvalidArgument("cumulative error curve must start at 0");
  }
  double running = 0.0;
  for (size_t j = 0; j < m; ++j) {
    running += deltas[j];
    if (bits(running) != bits(cumulative[j + 1])) {
      return Status::InvalidArgument(
          "cumulative error curve does not match the merge deltas at merge " +
          std::to_string(j));
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (input.interval(i).begin > input.interval(i).end) {
      return Status::InvalidArgument("inverted leaf interval at segment " +
                                     std::to_string(i));
    }
  }

  // Structural check: merge j may only fold two distinct, not-yet-consumed
  // nodes that already exist (index < n + j), its group must agree with
  // both children, and its interval must be their hull. Everything the cut
  // walks rely on follows from this — no descent can go out of bounds or
  // loop.
  std::vector<bool> consumed(n + m, false);
  std::vector<int32_t> node_group(n + m);
  std::vector<Interval> node_t(n + m);
  for (size_t i = 0; i < n; ++i) {
    node_group[i] = input.group(i);
    node_t[i] = input.interval(i);
  }
  for (size_t j = 0; j < m; ++j) {
    const MergeNode& node = merges[j];
    const auto in_range = [&](int32_t x) {
      return x >= 0 && static_cast<size_t>(x) < n + j;
    };
    if (!in_range(node.left) || !in_range(node.right) ||
        node.left == node.right) {
      return Status::InvalidArgument("merge " + std::to_string(j) +
                                     " references invalid dendrogram nodes");
    }
    const size_t l = static_cast<size_t>(node.left);
    const size_t r = static_cast<size_t>(node.right);
    if (consumed[l] || consumed[r]) {
      return Status::InvalidArgument("merge " + std::to_string(j) +
                                     " reuses an already-merged node");
    }
    if (node.group != node_group[l] || node.group != node_group[r]) {
      return Status::InvalidArgument("merge " + std::to_string(j) +
                                     " crosses aggregation groups");
    }
    const Interval hull = Interval::Hull(node_t[l], node_t[r]);
    if (!(node.t == hull)) {
      return Status::InvalidArgument(
          "merge " + std::to_string(j) +
          " interval is not the hull of its children");
    }
    consumed[l] = true;
    consumed[r] = true;
    node_group[n + j] = node.group;
    node_t[n + j] = node.t;
  }

  PtaIndex index;
  index.input_ = std::move(input);
  index.merges_ = std::move(merges);
  index.merge_values_ = std::move(merge_values);
  index.delta_ = std::move(deltas);
  index.cum_ = std::move(cumulative);
  index.weights_ = std::move(weights);
  index.merge_across_gaps_ = merge_across_gaps;

  // Roots are recomputed exactly as Build does, never trusted from the
  // caller — the frontier-at-merges() invariant holds by construction.
  std::vector<int32_t> lo(n + m);
  for (size_t i = 0; i < n; ++i) lo[i] = static_cast<int32_t>(i);
  for (size_t j = 0; j < m; ++j) {
    lo[n + j] = lo[static_cast<size_t>(index.merges_[j].left)];
  }
  index.roots_.reserve(n - m);
  for (size_t x = 0; x < consumed.size(); ++x) {
    if (!consumed[x]) index.roots_.push_back(static_cast<int32_t>(x));
  }
  std::sort(index.roots_.begin(), index.roots_.end(),
            [&lo](int32_t a, int32_t b) { return lo[a] < lo[b]; });
  return index;
}

size_t PtaIndex::MemoryFootprint() const {
  const size_t p = input_.num_aggregates();
  size_t bytes = sizeof(*this);
  bytes +=
      input_.size() * (sizeof(int32_t) + sizeof(Interval) + p * sizeof(double));
  bytes += merges_.size() * sizeof(MergeNode);
  bytes += merge_values_.size() * sizeof(double);
  bytes += delta_.size() * sizeof(double);
  bytes += cum_.size() * sizeof(double);
  bytes += roots_.size() * sizeof(int32_t);
  bytes += weights_.size() * sizeof(double);
  return bytes;
}

double PtaIndex::max_error() const {
  std::call_once(emax_->once, [this] {
    const ErrorContext ctx(input_, weights_, merge_across_gaps_);
    emax_->value = ctx.MaxError();
  });
  return emax_->value;
}

void PtaIndex::AppendNode(SequentialRelation* out, int32_t x) const {
  const int32_t n = static_cast<int32_t>(input_.size());
  if (x < n) {
    out->Append(input_.group(x), input_.interval(x), input_.values(x));
  } else {
    const size_t j = static_cast<size_t>(x - n);
    out->Append(merges_[j].group, merges_[j].t,
                merge_values_.data() + j * input_.num_aggregates());
  }
}

std::vector<int32_t> PtaIndex::FrontierAt(size_t m) const {
  return RefineFrontier(roots_, m);
}

std::vector<int32_t> PtaIndex::RefineFrontier(
    const std::vector<int32_t>& frontier, size_t m_to) const {
  std::vector<int32_t> out;
  out.reserve(frontier.size());
  std::vector<int32_t> stack;
  for (const int32_t root : frontier) {
    stack.push_back(root);
    while (!stack.empty()) {
      const int32_t x = stack.back();
      stack.pop_back();
      if (CreatedAt(x) <= m_to) {
        out.push_back(x);
      } else {
        const MergeNode& node = merges_[static_cast<size_t>(x) -
                                        input_.size()];
        // Right (the later half) first so the left pops first: the walk
        // stays chronological.
        stack.push_back(node.right);
        stack.push_back(node.left);
      }
    }
  }
  return out;
}

Reduction PtaIndex::MaterializeCut(const std::vector<int32_t>& frontier,
                                   size_t m) const {
  Reduction out;
  out.relation = SequentialRelation(input_.num_aggregates());
  out.relation.Reserve(frontier.size());
  for (const int32_t x : frontier) AppendNode(&out.relation, x);
  out.relation.SetGroupKeys(input_.group_keys());
  out.relation.SetValueNames(input_.value_names());
  out.error = cum_[m];
  return out;
}

Reduction PtaIndex::EmitCut(size_t m) const {
  // The single-budget fast path: one descent that appends straight into
  // the output relation, with no intermediate frontier vector (cuts are
  // the latency-critical re-budget operation).
  Reduction out;
  out.relation = SequentialRelation(input_.num_aggregates());
  out.relation.Reserve(input_.size() >= m ? input_.size() - m : 0);
  std::vector<int32_t> stack;
  for (const int32_t root : roots_) {
    stack.push_back(root);
    while (!stack.empty()) {
      const int32_t x = stack.back();
      stack.pop_back();
      if (CreatedAt(x) <= m) {
        AppendNode(&out.relation, x);
      } else {
        const MergeNode& node =
            merges_[static_cast<size_t>(x) - input_.size()];
        stack.push_back(node.right);
        stack.push_back(node.left);
      }
    }
  }
  out.relation.SetGroupKeys(input_.group_keys());
  out.relation.SetValueNames(input_.value_names());
  out.error = cum_[m];
  return out;
}

Result<Reduction> PtaIndex::CutToSize(size_t c) const {
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  const size_t n = input_.size();
  const size_t m = c >= n ? 0 : n - c;
  if (m > merges()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(c) + " is below cmin = " +
        std::to_string(cmin()));
  }
  return EmitCut(m);
}

Result<double> PtaIndex::ErrorForSize(size_t c) const {
  if (c == 0) {
    return Status::InvalidArgument("size bound c must be positive");
  }
  const size_t n = input_.size();
  const size_t m = c >= n ? 0 : n - c;
  if (m > merges()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(c) + " is below cmin = " +
        std::to_string(cmin()));
  }
  return cum_[m];
}

Result<size_t> PtaIndex::SizeForError(double eps) const {
  if (eps < 0.0 || eps > 1.0) {
    return Status::InvalidArgument("error bound eps must be in [0, 1]");
  }
  // GmsReduceToError merges while total + key <= budget; with the
  // cumulative curve recorded in the same order that is the largest m with
  // cum_[m] <= budget — a binary search instead of a re-run.
  const double budget = eps * max_error();
  const auto it = std::upper_bound(cum_.begin(), cum_.end(), budget);
  const size_t m = static_cast<size_t>(it - cum_.begin()) - 1;
  return input_.size() - m;
}

Result<Reduction> PtaIndex::CutToError(double eps) const {
  auto size = SizeForError(eps);
  if (!size.ok()) return size.status();
  return EmitCut(input_.size() - *size);
}

Result<std::vector<Reduction>> PtaIndex::MultiBudgetCut(
    const std::vector<size_t>& sizes) const {
  std::vector<Reduction> out;
  if (sizes.empty()) return out;
  const size_t n = input_.size();
  for (size_t i = 0; i < sizes.size(); ++i) {
    if (sizes[i] == 0) {
      return Status::InvalidArgument("size bound c must be positive");
    }
    if (i > 0 && sizes[i] <= sizes[i - 1]) {
      const std::string tail =
          sizes[i] == sizes[i - 1]
              ? std::to_string(sizes[i]) + " twice"
              : std::to_string(sizes[i]) + " after " +
                    std::to_string(sizes[i - 1]);
      return Status::InvalidArgument(
          "MultiBudgetCut needs strictly ascending budgets; got " + tail);
    }
  }
  if (n > sizes[0] && n - sizes[0] > merges()) {
    return Status::InvalidArgument(
        "size bound " + std::to_string(sizes[0]) + " is below cmin = " +
        std::to_string(cmin()));
  }

  out.reserve(sizes.size());
  // Coarsest level first (smallest c = most merges), then refine: each
  // finer level only expands the nodes born after its own merge count.
  std::vector<int32_t> frontier;
  for (size_t i = 0; i < sizes.size(); ++i) {
    const size_t m = sizes[i] >= n ? 0 : n - sizes[i];
    frontier = i == 0 ? FrontierAt(m) : RefineFrontier(frontier, m);
    out.push_back(MaterializeCut(frontier, m));
  }
  return out;
}

}  // namespace pta
