// The merge heap of Sec. 6.2.2: heap nodes represent (possibly merged) ITA
// result tuples chained in chronological order; a node's key is the error of
// merging it into its predecessor (dsim, Prop. 2), infinity when the pair is
// non-adjacent or the node is the first of the stream. MERGE pops the
// minimum-key node, folds it into its predecessor, and re-keys the two
// affected neighbours.

#ifndef PTA_PTA_MERGE_HEAP_H_
#define PTA_PTA_MERGE_HEAP_H_

#include <cstdint>
#include <vector>

#include "pta/error.h"
#include "pta/segment.h"

namespace pta {

/// \brief Min-heap over chronologically linked segments with re-keying.
///
/// Node storage is recycled through a free list, so memory is proportional
/// to the maximum number of *live* nodes (the c + beta of Sec. 6.2), not the
/// stream length. Ties on the key are broken by the smaller sequence id,
/// which makes merging deterministic (the paper merges the pair with the
/// smallest timestamp).
///
/// Layout: an indexed 4-ary heap of 16-byte (key, node) entries, four to a
/// cache line, so sifting compares keys without touching the nodes; only
/// an exact key tie reads the nodes' ids. Only finite-key nodes enter it: a
/// node whose key is infinite (a chain head, or a group or gap boundary)
/// can never be merged and waits outside until a re-key makes it finite.
/// A NaN key is kept out the same way, so the array stays totally ordered.
///
/// Two ways to build chains. The batch engines Insert() one group-then-time
/// ordered sequence, linked as a single chain whose group boundaries carry
/// infinite keys. The streaming engine (stream/stream.h) keeps one chain per
/// group, names each chain by its head and tail handles, Append()s rows to
/// a chain's tail as they arrive and RemoveHead()s rows a watermark sealed.
/// Both share the (key, id) merge order, MergeTop's Def. 3 fold and the
/// re-keying of the two affected neighbours.
class MergeHeap {
 public:
  /// Creates a heap for segments with p aggregate values and the given
  /// per-dimension weights (empty = all ones). With `merge_across_gaps`
  /// (the paper's future-work extension) same-group tuples separated by a
  /// temporal gap are mergeable too: the merged timestamp is the hull and
  /// values/keys weigh each side by its *covered* chronons.
  MergeHeap(size_t p, const std::vector<double>& weights,
            bool merge_across_gaps = false);

  /// \brief Key and id of the minimum node (INSERT's sequence numbering).
  struct TopInfo {
    int64_t id = 0;
    double key = kInfiniteError;
  };

  /// One chain node, read through node(). `group` is the caller's chain
  /// tag: the batch engines store the group id, the streaming engine its
  /// group slot.
  struct Node {  // 48 bytes: no padding
    /// Sequence id, the merge tie-breaker.
    int64_t id = 0;
    Interval t;
    /// Chronons actually covered (== t.length() unless gap merging folded
    /// segments across holes).
    int64_t covered = 0;
    int32_t group = 0;
    int32_t prev = -1;
    int32_t next = -1;
    int32_t heap_pos = -1;  // -1 while the key is infinite
  };

  /// \brief One executed merge, as observed by MergeTop(MergeRecord*).
  ///
  /// Everything a dendrogram recorder (pta/index.h) needs: which two chain
  /// nodes were folded (by their stable insertion ids) and the surviving
  /// node's post-merge payload. `values` points into heap-owned storage and
  /// is valid only until the next Insert/MergeTop — copy it out.
  struct MergeRecord {
    /// Id of the node folded away (the heap top).
    int64_t top_id = 0;
    /// Id of the surviving node (the top's chain predecessor).
    int64_t pred_id = 0;
    /// The introduced error (the top's key), also MergeTop's return value.
    double key = 0.0;
    int32_t group = 0;
    /// Post-merge interval (the hull when gap merging is enabled).
    Interval t;
    /// Post-merge covered chronons (== t.length() unless gap-merged).
    int64_t covered = 0;
    /// Post-merge values of the surviving node (p doubles, borrowed).
    const double* values = nullptr;
  };

  /// Inserts a segment as the new chronological tail; returns its sequence
  /// id (1-based) via *id and its key (infinity when it does not follow its
  /// predecessor adjacently).
  double Insert(const SegmentView& seg, int64_t* id = nullptr);
  double Insert(const Segment& seg, int64_t* id = nullptr);

  /// Per-chain insertion: links `seg` after node `tail` (-1 starts a new
  /// chain) with the given covered chronon count and sequence id, and
  /// stores the new node's handle in *handle. The caller keeps each chain
  /// chronological with ascending ids. Returns the node's key, as Insert.
  double Append(int32_t tail, const SegmentView& seg, int64_t covered,
                int64_t id, int32_t* handle);
  /// Removes chain head h (a node without predecessor); its successor
  /// becomes a chain head, whose key is infinite.
  void RemoveHead(int32_t h);

  const Node& node(int32_t h) const { return nodes_[h]; }
  const double* values(int32_t h) const { return ValuesOf(h); }
  /// Node h's current key (dsim with its predecessor, Prop. 2).
  double key(int32_t h) const {
    const int32_t pos = nodes_[h].heap_pos;
    return pos < 0 ? KeyFor(nodes_[h].prev, h) : heap_[pos].key;
  }

  /// Live nodes, finite-key or not.
  size_t size() const { return nodes_.size() - free_.size(); }
  bool empty() const { return size() == 0; }
  /// Reserves room for n live nodes.
  void Reserve(size_t n);
  /// Largest size() observed since construction (Fig. 20's metric).
  size_t max_size() const { return max_size_; }

  /// Minimum-key node; requires a non-empty heap. When no key is finite it
  /// reports the batch chain's head (id 0 for per-chain use).
  TopInfo Peek() const;
  /// Handle of the node Peek() reports (-1 for per-chain use when no key is
  /// finite).
  int32_t TopNode() const { return heap_.empty() ? head_ : heap_[0].node; }

  /// Merges the top node into its predecessor and returns the introduced
  /// error (its key). Requires the top key to be finite. When `record` is
  /// non-null it is filled with the executed merge (see MergeRecord).
  double MergeTop(MergeRecord* record = nullptr);

  /// Counts successors of the top node connected to it by a chain of
  /// adjacent pairs, stopping at `limit` (the gPTA δ check).
  size_t CountAdjacentSuccessorsOfTop(size_t limit) const;
  /// The δ read-ahead heuristic (Sec. 6.2.1): true when at least `delta`
  /// successors follow the top node through adjacent pairs. delta = 0
  /// always allows merging; GreedyOptions::kDeltaInfinity never does (only
  /// the provably safe merge conditions remain).
  bool TopHasDeltaSuccessors(size_t delta) const {
    if (delta == static_cast<size_t>(-1)) return false;
    return delta == 0 || CountAdjacentSuccessorsOfTop(delta) >= delta;
  }

  /// Remaining segments as a SequentialRelation (group keys not attached).
  SequentialRelation ExtractRelation() const;

 private:
  /// One heap slot: a finite-key node and its key.
  struct Entry {
    double key;
    int32_t node;
  };

  static constexpr size_t kArity = 4;

  /// True if b may be merged into its predecessor a.
  bool Mergeable(const Node& a, const Node& b) const {
    if (a.group != b.group) return false;
    return merge_across_gaps_ || a.t.MeetsBefore(b.t);
  }

  bool Less(const Entry& a, const Entry& b) const {
    if (a.key != b.key) return a.key < b.key;
    return nodes_[a.node].id < nodes_[b.node].id;
  }

  double* ValuesOf(int32_t h) { return values_.data() + static_cast<size_t>(h) * p_; }
  const double* ValuesOf(int32_t h) const {
    return values_.data() + static_cast<size_t>(h) * p_;
  }

  /// dsim of node b with its predecessor a; infinity if not adjacent.
  double KeyFor(int32_t a, int32_t b) const;

  int32_t AllocNode();
  void FreeNode(int32_t h);
  void Place(size_t pos, const Entry& e);
  void SiftUp(size_t pos, Entry e);
  void SiftDown(size_t pos, Entry e);
  void HeapRemove(size_t pos);
  /// Sets node h's key, moving it into, within or out of the heap.
  void SetKey(int32_t h, double key);

  size_t p_;
  std::vector<double> weights_;
  bool merge_across_gaps_;
  std::vector<Node> nodes_;
  std::vector<double> values_;   // nodes_.size() * p_
  std::vector<int32_t> free_;    // recycled node handles
  std::vector<Entry> heap_;      // finite-key nodes as a 4-ary min-heap
  // The chain Insert() builds; per-chain Append() leaves both at -1.
  int32_t head_ = -1;
  int32_t tail_ = -1;
  int64_t next_id_ = 1;
  size_t max_size_ = 0;
};

}  // namespace pta

#endif  // PTA_PTA_MERGE_HEAP_H_
