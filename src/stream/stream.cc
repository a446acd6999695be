#include "stream/stream.h"

#include <algorithm>
#include <cmath>
#include <string>

namespace pta {

namespace {

// Fibonacci hashing of a group id; the caller masks the low bits.
size_t IndexHash(int32_t group_id) {
  return static_cast<size_t>(
      (static_cast<uint64_t>(static_cast<uint32_t>(group_id)) *
       0x9E3779B97F4A7C15ull) >>
      32);
}

}  // namespace

StreamingPtaEngine::StreamingPtaEngine(size_t num_aggregates,
                                       StreamingOptions options)
    : p_(num_aggregates),
      options_(std::move(options)),
      heap_(p_, options_.weights, options_.merge_across_gaps) {
  PTA_CHECK_MSG(options_.size_budget > 0, "size_budget must be positive");
}

int32_t StreamingPtaEngine::FindGroup(int32_t group_id) const {
  if (index_.empty()) return -1;
  const size_t mask = index_.size() - 1;
  for (size_t i = IndexHash(group_id) & mask;; i = (i + 1) & mask) {
    const IndexEntry& entry = index_[i];
    if (entry.slot < 0 || entry.group == group_id) return entry.slot;
  }
}

void StreamingPtaEngine::RebuildIndex() {
  size_t capacity = 16;
  while (capacity < 2 * order_.size()) capacity *= 2;
  index_.assign(capacity, IndexEntry{});
  for (const int32_t slot : order_) IndexPut(slot);
}

void StreamingPtaEngine::IndexPut(int32_t slot) {
  const int32_t group_id = groups_[slot].id;
  const size_t mask = index_.size() - 1;
  size_t i = IndexHash(group_id) & mask;
  while (index_[i].slot >= 0) i = (i + 1) & mask;
  index_[i] = IndexEntry{group_id, slot};
}

int32_t StreamingPtaEngine::AddGroup(int32_t group_id) {
  int32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<int32_t>(groups_.size());
    groups_.emplace_back();
  }
  groups_[slot].id = group_id;
  order_.insert(std::lower_bound(order_.begin(), order_.end(), group_id,
                                 [this](int32_t s, int32_t id) {
                                   return groups_[s].id < id;
                                 }),
                slot);
  if (2 * order_.size() > index_.size()) {
    RebuildIndex();
  } else {
    IndexPut(slot);
  }
  return slot;
}

void StreamingPtaEngine::MergeTop() {
  const int32_t h = heap_.TopNode();
  const MergeHeap::Node& node = heap_.node(h);
  Group& group = groups_[node.group];
  if (group.tail == h) group.tail = node.prev;
  stats_.merge_sse += heap_.MergeTop();
  ++stats_.merges;
}

void StreamingPtaEngine::MergeWhileOverBudget() {
  // The gPTAc ingest loop (Fig. 11 / greedy.cc): merge the globally
  // cheapest pair while over budget, but only when Prop. 3 (a later gap
  // with strictly more than c live rows before it) or the δ read-ahead
  // confirms the merge is one GMS would also perform.
  const int64_t c = static_cast<int64_t>(options_.size_budget);
  while (heap_.size() > options_.size_budget) {
    const MergeHeap::TopInfo top = heap_.Peek();
    if (top.key == kInfiniteError) break;  // every live pair is non-adjacent
    // Strict bound, mirroring greedy.cc: only merges the stream has already
    // proven forced (pre-gap count must fall below c, not merely to c - 1
    // eventually) keep the replay byte-identical to batch gPTAc.
    if (top.id < last_gap_id_ && before_gap_ > c) {
      --before_gap_;
    } else if (top.id > last_gap_id_ &&
               heap_.TopHasDeltaSuccessors(options_.delta)) {
      --after_gap_;
    } else if (watermark_ != kNoWatermark) {
      // Watermark mode: the engine is a sliding-window GMS, not a replay
      // of full-stream gPTAc (that equivalence needs the whole stream and
      // is only promised while the watermark stays disabled). A pair's
      // dsim never changes with future arrivals, so merging the current
      // cheapest pair under budget pressure is exactly what GMS over the
      // resident window would do — and it keeps live rows at c + 1 even
      // after sealing has drained the Prop. 3 counters. Never fires while
      // the watermark is disabled, preserving batch byte-identity.
      if (top.id < last_gap_id_) {
        if (before_gap_ > 0) --before_gap_;
      } else if (after_gap_ > 0) {
        --after_gap_;
      }
    } else {
      break;
    }
    MergeTop();
    ++stats_.early_merges;
  }
}

Status StreamingPtaEngine::Ingest(const Segment& seg) {
  if (!finalized_ && seg.values.size() != p_) {
    return Status::InvalidArgument("segment arity mismatch: got " +
                                   std::to_string(seg.values.size()) +
                                   ", engine expects " + std::to_string(p_));
  }
  return IngestRow(seg.group, seg.t, seg.values.data());
}

Status StreamingPtaEngine::IngestRow(int32_t group_id, Interval t,
                                     const double* values) {
  if (finalized_) {
    return Status::FailedPrecondition("engine is finalized");
  }
  if (t.begin > t.end) {
    return Status::InvalidArgument(
        "segment of group " + std::to_string(group_id) +
        " has an inverted interval [" + std::to_string(t.begin) + ", " +
        std::to_string(t.end) + "]");
  }
  for (size_t d = 0; d < p_; ++d) {
    if (!std::isfinite(values[d])) {
      return Status::InvalidArgument(
          "segment of group " + std::to_string(group_id) +
          " has a non-finite value in dimension " + std::to_string(d));
    }
  }
  if (watermark_ != kNoWatermark && t.begin < watermark_) {
    return Status::FailedPrecondition(
        "segment begins at " + std::to_string(t.begin) +
        ", before the watermark " + std::to_string(watermark_));
  }
  int32_t slot = FindGroup(group_id);
  if (slot < 0) {
    slot = AddGroup(group_id);
  } else if (groups_[slot].tail >= 0 &&
             heap_.node(groups_[slot].tail).t.end >= t.begin) {
    return Status::FailedPrecondition(
        "segments of group " + std::to_string(group_id) +
        " must arrive chronologically with disjoint intervals");
  }

  Group& group = groups_[slot];
  const int64_t id = next_id_++;
  int32_t h;
  const double key = heap_.Append(group.tail, SegmentView{slot, t, values},
                                  t.length(), id, &h);
  if (group.tail < 0) group.head = h;
  group.tail = h;

  // Prop. 3 bookkeeping (greedy.cc): a non-adjacent arrival (chain head or
  // gap) marks a merge boundary in global insertion order.
  if (key == kInfiniteError) {
    last_gap_id_ = id;
    before_gap_ += after_gap_;
    after_gap_ = 1;
  } else {
    ++after_gap_;
  }

  ++stats_.ingested;
  stats_.max_live_rows = std::max(stats_.max_live_rows, heap_.size());
  if (max_begin_seen_ == kNoWatermark || t.begin > max_begin_seen_) {
    max_begin_seen_ = t.begin;
  }

  MergeWhileOverBudget();
  return Status::Ok();
}

Status StreamingPtaEngine::IngestChunk(const SequentialRelation& chunk) {
  if (chunk.num_aggregates() != p_) {
    return Status::InvalidArgument("chunk arity mismatch");
  }
  for (size_t i = 0; i < chunk.size(); ++i) {
    PTA_RETURN_IF_ERROR(
        IngestRow(chunk.group(i), chunk.interval(i), chunk.values(i)));
  }
  if (options_.auto_watermark_lag >= 0 && max_begin_seen_ != kNoWatermark) {
    const Chronon target = max_begin_seen_ - options_.auto_watermark_lag;
    if (watermark_ == kNoWatermark || target > watermark_) {
      PTA_RETURN_IF_ERROR(AdvanceWatermark(target));
    }
  }
  return Status::Ok();
}

void StreamingPtaEngine::SealSettledPrefix(Group& group, Chronon w) {
  while (group.head >= 0) {
    const int32_t h = group.head;
    const MergeHeap::Node& node = heap_.node(h);
    // Settled: no future arrival (all begin >= w) can meet this row. With
    // gap merging any future same-group segment can fold into the chain
    // tail, so tails stay live there.
    if (node.t.end + 1 >= w) break;
    if (options_.merge_across_gaps && node.next < 0) break;

    group.pending_t.push_back(node.t);
    group.pending_values.insert(group.pending_values.end(), heap_.values(h),
                                heap_.values(h) + p_);
    ++pending_;
    ++stats_.emitted;

    // The sealed row leaves the live set: update the Prop. 3 counters the
    // same way a merge that consumed it would have.
    if (node.id < last_gap_id_) {
      if (before_gap_ > 0) --before_gap_;
    } else if (after_gap_ > 0) {
      --after_gap_;
    }

    group.head = node.next;
    if (group.head < 0) group.tail = -1;
    heap_.RemoveHead(h);  // the new chain head cannot merge down
  }
}

Status StreamingPtaEngine::AdvanceWatermark(Chronon watermark) {
  if (finalized_) {
    return Status::FailedPrecondition("engine is finalized");
  }
  if (watermark_ != kNoWatermark && watermark < watermark_) {
    return Status::InvalidArgument(
        "watermark must be monotone: " + std::to_string(watermark) +
        " is below the current " + std::to_string(watermark_));
  }
  // Re-announcing the current watermark is an idempotent no-op (retried
  // upstream frames do this routinely); only a strictly lower advance is an
  // error. Skip the sealing scan — nothing new can settle.
  if (watermark == watermark_) return Status::Ok();
  watermark_ = watermark;
  for (Group& group : groups_) SealSettledPrefix(group, watermark);
  return Status::Ok();
}

void StreamingPtaEngine::DrainPending(SequentialRelation* out) {
  size_t kept = 0;
  for (const int32_t slot : order_) {
    Group& group = groups_[slot];
    if (out != nullptr) {
      for (size_t i = 0; i < group.pending_t.size(); ++i) {
        out->Append(group.id, group.pending_t[i],
                    group.pending_values.data() + i * p_);
      }
    }
    group.pending_t.clear();
    group.pending_values.clear();
    if (group.head >= 0) {
      order_[kept++] = slot;
      continue;
    }
    // A group with no live chain and no pending rows holds no state;
    // release it so churning group populations do not grow the engine
    // forever.
    group = Group{};
    free_slots_.push_back(slot);
  }
  if (kept < order_.size()) {
    order_.resize(kept);
    RebuildIndex();
  }
  pending_ = 0;
}

SequentialRelation StreamingPtaEngine::TakeEmitted() {
  SequentialRelation out(p_);
  // Every tracked group without a live chain has pending rows, so with
  // none pending there is nothing to emit or release.
  if (pending_ == 0) return out;
  out.Reserve(pending_);
  DrainPending(&out);
  return out;
}

SequentialRelation StreamingPtaEngine::Snapshot() const {
  SequentialRelation out(p_);
  out.Reserve(pending_ + heap_.size());
  for (const int32_t slot : order_) {
    const Group& group = groups_[slot];
    for (size_t i = 0; i < group.pending_t.size(); ++i) {
      out.Append(group.id, group.pending_t[i],
                 group.pending_values.data() + i * p_);
    }
    for (int32_t h = group.head; h >= 0; h = heap_.node(h).next) {
      out.Append(group.id, heap_.node(h).t, heap_.values(h));
    }
  }
  return out;
}

Result<SequentialRelation> StreamingPtaEngine::Finalize() {
  if (finalized_) {
    return Status::FailedPrecondition("engine is already finalized");
  }
  finalized_ = true;
  // Terminal GMS drain: no more arrivals can confirm safety, so merge the
  // globally cheapest pair until the budget is met or only non-adjacent
  // pairs remain (the live cmin — unlike batch gPTAc this is not an
  // error, because a long-running stream legitimately outlives any fixed
  // feasibility precondition).
  while (heap_.size() > options_.size_budget) {
    const MergeHeap::TopInfo top = heap_.Peek();
    if (top.key == kInfiniteError) break;
    MergeTop();
  }
  SequentialRelation out = Snapshot();
  DrainPending(nullptr);
  return out;
}

}  // namespace pta
