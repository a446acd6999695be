// Instant temporal aggregation (ITA), Def. 1.
//
// For every aggregation group g and time instant t, the aggregate functions
// are evaluated over all tuples with grouping values g whose timestamp
// contains t; value-equivalent results over consecutive instants are
// coalesced into maximal intervals. The result is a sequential relation of up
// to 2n-1 tuples.
//
// Two interfaces:
//  * Ita()      — batch: materializes the full result;
//  * ItaStream  — pull-based SegmentSource producing one coalesced result
//                 tuple at a time, so PTA's greedy reducers can merge while
//                 ITA is still running (Sec. 6.2's integrated evaluation).

#ifndef PTA_CORE_ITA_H_
#define PTA_CORE_ITA_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aggregate.h"
#include "core/relation.h"
#include "pta/segment.h"
#include "util/status.h"

namespace pta {

/// \brief An ITA query: grouping attributes A and aggregate functions F.
struct ItaSpec {
  std::vector<std::string> group_by;
  std::vector<AggregateSpec> aggregates;
};

/// \brief Streaming ITA evaluation.
///
/// Construction validates the spec and the input, and buckets the rows per
/// group; `Next()` then runs the per-group endpoint sweep lazily, reading
/// each group's aggregate inputs into a flat array of doubles when its
/// sweep starts and emitting each coalesced result tuple as soon as it is
/// final. Groups are emitted in their deterministic sorted order,
/// chronologically within each group, as the merging phase requires
/// (Sec. 5.1).
class ItaStream : public SegmentSource {
 public:
  /// The relation must outlive the stream. Fails on a null or non-finite
  /// aggregate input and on an interval ending at the largest chronon (the
  /// sweep's end event would overflow), naming the row.
  [[nodiscard]] static Result<std::unique_ptr<ItaStream>> Create(const TemporalRelation& rel,
                                                   const ItaSpec& spec);
  ~ItaStream() override = default;

  size_t num_aggregates() const override { return aggregates_.size(); }
  bool Next(Segment* out) override;
  /// Next() without the copy: out->values points at num_aggregates()
  /// doubles owned by the stream, valid until the next call.
  bool NextView(SegmentView* out);

  /// Group keys in dense-id order (valid immediately after construction).
  const std::vector<GroupKey>& group_keys() const { return group_keys_; }
  /// Result attribute names B_1 ... B_p.
  std::vector<std::string> value_names() const;

 private:
  ItaStream(const TemporalRelation* rel, std::vector<AggregateSpec> aggregates,
            std::vector<int> attrs);

  /// Loads the next group's events; false when all groups are done.
  bool StartNextGroup();
  /// Processes the events of one instant; true when that flushed a
  /// coalesced segment into flushed_.
  bool StepGroup();

  const TemporalRelation* rel_;
  std::vector<AggregateSpec> aggregates_;
  std::vector<int> attrs_;  // aggregate attribute index, -1 for COUNT
  std::vector<GroupKey> group_keys_;
  // Row indices in group-then-relation order: group g owns
  // rows_[group_begin_[g] .. group_begin_[g + 1]).
  std::vector<size_t> group_begin_;
  std::vector<uint32_t> rows_;
  // The current group's aggregate inputs, p per row (0 for COUNT).
  std::vector<double> inputs_;
  size_t current_group_ = 0;
  bool group_active_ = false;

  // Per-group sweep state: the group's boundary events in time order.
  struct Event {
    Chronon time;
    uint32_t row;  // the row's position within its group
    bool is_start;
  };
  std::vector<Event> events_;
  size_t event_pos_ = 0;
  int64_t active_count_ = 0;
  Chronon boundary_ = 0;
  std::vector<std::unique_ptr<Aggregator>> aggregators_;

  // Coalescing: p values each for the newest elementary result, the
  // segment being extended and the last one handed out; swapped, never
  // reallocated.
  bool pending_valid_ = false;
  Interval pending_t_;
  Interval flushed_t_;
  int32_t flushed_group_ = 0;
  std::vector<double> current_;
  std::vector<double> pending_;
  std::vector<double> flushed_;
};

/// Batch ITA: materializes the full sequential result with group keys
/// attached. Equivalent to draining an ItaStream.
[[nodiscard]] Result<SequentialRelation> Ita(const TemporalRelation& rel,
                               const ItaSpec& spec);

/// \brief Stable shard assignment for ITA groups.
///
/// Maps each dense group id g to `GroupKeyHash(keys[g] projected onto
/// shard_by) % num_shards`. `group_by` gives the attribute order of the
/// stored keys (an ItaSpec's group_by); `shard_by` names the subset to hash
/// — empty means the full key, so every group gets its own shard slot.
/// The hash is byte-stable (FNV-1a over normalized payloads), so the same
/// data produces the same sharding on every platform and run. Fails when a
/// shard_by name is not a grouping attribute.
[[nodiscard]] Result<std::vector<uint32_t>> GroupShardMap(
    const std::vector<GroupKey>& group_keys,
    const std::vector<std::string>& group_by,
    const std::vector<std::string>& shard_by, size_t num_shards);

}  // namespace pta

#endif  // PTA_CORE_ITA_H_
