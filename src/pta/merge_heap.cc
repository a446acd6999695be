#include "pta/merge_heap.h"

#include <algorithm>

namespace pta {

MergeHeap::MergeHeap(size_t p, const std::vector<double>& weights,
                     bool merge_across_gaps)
    : p_(p),
      weights_(WeightsOrOnes(p, weights)),
      merge_across_gaps_(merge_across_gaps) {}

double MergeHeap::KeyFor(int32_t a, int32_t b) const {
  if (a < 0) return kInfiniteError;
  const Node& na = nodes_[a];
  const Node& nb = nodes_[b];
  if (!Mergeable(na, nb)) return kInfiniteError;
  return Dsim(na.covered, ValuesOf(a), nb.covered, ValuesOf(b), p_,
              weights_.data());
}

void MergeHeap::Reserve(size_t n) {
  nodes_.reserve(n);
  values_.reserve(n * p_);
  heap_.reserve(n);
}

int32_t MergeHeap::AllocNode() {
  int32_t h;
  if (!free_.empty()) {
    h = free_.back();
    free_.pop_back();
    nodes_[h] = Node{};
  } else {
    h = static_cast<int32_t>(nodes_.size());
    nodes_.emplace_back();
    values_.resize(nodes_.size() * p_, 0.0);
  }
  max_size_ = std::max(max_size_, size());
  return h;
}

void MergeHeap::FreeNode(int32_t h) { free_.push_back(h); }

void MergeHeap::Place(size_t pos, const Entry& e) {
  heap_[pos] = e;
  nodes_[e.node].heap_pos = static_cast<int32_t>(pos);
}

void MergeHeap::SiftUp(size_t pos, Entry e) {
  while (pos > 0) {
    const size_t parent = (pos - 1) / kArity;
    if (!Less(e, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, e);
}

void MergeHeap::SiftDown(size_t pos, Entry e) {
  const size_t n = heap_.size();
  while (true) {
    const size_t first = kArity * pos + 1;
    if (first >= n) break;
    size_t best = first;
    const size_t last = std::min(first + kArity, n);
    for (size_t c = first + 1; c < last; ++c) {
      if (Less(heap_[c], heap_[best])) best = c;
    }
    if (!Less(heap_[best], e)) break;
    Place(pos, heap_[best]);
    pos = best;
  }
  Place(pos, e);
}

void MergeHeap::HeapRemove(size_t pos) {
  nodes_[heap_[pos].node].heap_pos = -1;
  const Entry last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    SiftDown(pos, last);
    SiftUp(static_cast<size_t>(nodes_[last.node].heap_pos), last);
  }
}

void MergeHeap::SetKey(int32_t h, double key) {
  const int32_t pos = nodes_[h].heap_pos;
  if (!(key < kInfiniteError)) {  // infinite or NaN: never merged
    if (pos >= 0) HeapRemove(static_cast<size_t>(pos));
    return;
  }
  const Entry e{key, h};
  if (pos < 0) {
    heap_.push_back(e);
    SiftUp(heap_.size() - 1, e);
  } else if (key < heap_[pos].key) {
    SiftUp(static_cast<size_t>(pos), e);
  } else if (key != heap_[pos].key) {
    SiftDown(static_cast<size_t>(pos), e);
  }
}

double MergeHeap::Insert(const Segment& seg, int64_t* id) {
  PTA_CHECK_MSG(seg.values.size() == p_, "segment arity mismatch");
  return Insert(SegmentView{seg.group, seg.t, seg.values.data()}, id);
}

double MergeHeap::Insert(const SegmentView& seg, int64_t* id) {
  if (tail_ >= 0) {
    const Node& tail = nodes_[tail_];
    PTA_CHECK_MSG(tail.group < seg.group ||
                      (tail.group == seg.group && tail.t.end < seg.t.begin),
                  "segments must arrive sorted by group then time");
  }
  if (id != nullptr) *id = next_id_;
  int32_t h;
  const double key = Append(tail_, seg, seg.t.length(), next_id_++, &h);
  if (tail_ < 0) head_ = h;
  tail_ = h;
  return key;
}

double MergeHeap::Append(int32_t tail, const SegmentView& seg,
                         int64_t covered, int64_t id, int32_t* handle) {
  const int32_t h = AllocNode();
  Node& node = nodes_[h];
  node.id = id;
  node.group = seg.group;
  node.t = seg.t;
  node.covered = covered;
  node.prev = tail;
  node.next = -1;
  std::copy(seg.values, seg.values + p_, ValuesOf(h));
  if (tail >= 0) nodes_[tail].next = h;
  const double key = KeyFor(tail, h);
  SetKey(h, key);
  *handle = h;
  return key;
}

void MergeHeap::RemoveHead(int32_t h) {
  const Node& n = nodes_[h];
  PTA_CHECK_MSG(n.prev < 0 && n.heap_pos < 0, "RemoveHead on a non-head");
  if (n.next >= 0) {
    nodes_[n.next].prev = -1;
    SetKey(n.next, kInfiniteError);
  }
  if (head_ == h) head_ = n.next;
  if (tail_ == h) tail_ = -1;
  FreeNode(h);
}

MergeHeap::TopInfo MergeHeap::Peek() const {
  PTA_CHECK_MSG(!empty(), "Peek on empty heap");
  if (heap_.empty()) return {head_ < 0 ? 0 : nodes_[head_].id, kInfiniteError};
  return {nodes_[heap_[0].node].id, heap_[0].key};
}

double MergeHeap::MergeTop(MergeRecord* record) {
  PTA_CHECK_MSG(!empty(), "MergeTop on empty heap");
  PTA_CHECK_MSG(!heap_.empty() && heap_[0].key < kInfiniteError,
                "top node has no adjacent predecessor");
  const int32_t nh = heap_[0].node;
  const double introduced = heap_[0].key;
  HeapRemove(0);
  Node& n = nodes_[nh];
  const int32_t ph = n.prev;
  Node& p = nodes_[ph];
  if (record != nullptr) {
    record->top_id = n.id;
    record->pred_id = p.id;
    record->key = introduced;
    record->group = p.group;
  }

  // Fold N into P (Def. 3): weighted-average values, concatenate timestamps
  // (hull when gap merging is enabled; the weights are the covered lengths).
  const double lp = static_cast<double>(p.covered);
  const double ln = static_cast<double>(n.covered);
  double* pv = ValuesOf(ph);
  const double* nv = ValuesOf(nh);
  for (size_t d = 0; d < p_; ++d) {
    pv[d] = (lp * pv[d] + ln * nv[d]) / (lp + ln);
  }
  p.t.end = n.t.end;
  p.covered += n.covered;
  if (record != nullptr) {
    record->t = p.t;
    record->covered = p.covered;
    record->values = pv;
  }

  // Unlink N.
  p.next = n.next;
  if (n.next >= 0) {
    nodes_[n.next].prev = ph;
  } else if (tail_ == nh) {
    tail_ = ph;
  }
  FreeNode(nh);

  // P's value and length changed: re-key P against its predecessor and P's
  // new successor against P.
  SetKey(ph, KeyFor(p.prev, ph));
  if (p.next >= 0) SetKey(p.next, KeyFor(ph, p.next));
  return introduced;
}

size_t MergeHeap::CountAdjacentSuccessorsOfTop(size_t limit) const {
  PTA_CHECK_MSG(!empty(), "empty heap");
  size_t count = 0;
  int32_t cur = TopNode();
  while (count < limit) {
    const int32_t next = nodes_[cur].next;
    if (next < 0) break;
    if (!Mergeable(nodes_[cur], nodes_[next])) break;
    cur = next;
    ++count;
  }
  return count;
}

SequentialRelation MergeHeap::ExtractRelation() const {
  SequentialRelation rel(p_);
  rel.Reserve(size());
  for (int32_t h = head_; h >= 0; h = nodes_[h].next) {
    rel.Append(nodes_[h].group, nodes_[h].t, ValuesOf(h));
  }
  return rel;
}

}  // namespace pta
