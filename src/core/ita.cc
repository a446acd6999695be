#include "core/ita.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <numeric>

namespace pta {

namespace {

bool IsNan(const Value& v) {
  return v.type() == ValueType::kDouble && std::isnan(v.AsDoubleExact());
}

// Dense group id of every row, numbered in GroupKeyLess order of the rows'
// projections onto `attrs` (NaNs form one value, after every other double),
// without building a key per row: the map holds each group's first row and
// compares projections in place. Fills one key per id.
std::vector<uint32_t> DenseGroupIds(const TemporalRelation& rel,
                                    const std::vector<size_t>& attrs,
                                    std::vector<GroupKey>* keys) {
  auto less = [&](size_t x, size_t y) {
    for (size_t a : attrs) {
      const Value& u = rel.tuple(x).value(a);
      const Value& v = rel.tuple(y).value(a);
      if (u < v) return true;
      if (v < u) return false;
      if (IsNan(u) != IsNan(v)) return IsNan(v);
    }
    return false;
  };
  std::map<size_t, uint32_t, decltype(less)> groups(less);
  std::vector<uint32_t> ids(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    ids[i] = groups.try_emplace(i, static_cast<uint32_t>(groups.size()))
                 .first->second;
  }
  std::vector<uint32_t> rank(groups.size());
  keys->clear();
  keys->reserve(groups.size());
  for (const auto& [row, code] : groups) {
    rank[code] = static_cast<uint32_t>(keys->size());
    keys->push_back(rel.tuple(row).Project(attrs));
  }
  for (uint32_t& id : ids) id = rank[id];
  return ids;
}

}  // namespace

Result<std::unique_ptr<ItaStream>> ItaStream::Create(
    const TemporalRelation& rel, const ItaSpec& spec) {
  if (spec.aggregates.empty()) {
    return Status::InvalidArgument("ITA requires at least one aggregate");
  }
  auto group_indices = rel.schema().ResolveAll(spec.group_by);
  if (!group_indices.ok()) return group_indices.status();
  if (rel.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("ITA input exceeds 2^32 rows");
  }

  std::vector<int> attrs;  // -1 for count
  for (const AggregateSpec& agg : spec.aggregates) {
    if (agg.kind == AggKind::kCount) {
      attrs.push_back(-1);
      continue;
    }
    const int idx = rel.schema().IndexOf(agg.attr);
    if (idx < 0) {
      return Status::NotFound("unknown aggregate attribute: " + agg.attr);
    }
    const ValueType type = rel.schema().attribute(idx).type;
    if (type != ValueType::kInt64 && type != ValueType::kDouble) {
      return Status::InvalidArgument("aggregate attribute " + agg.attr +
                                     " is not numeric");
    }
    attrs.push_back(idx);
  }

  for (size_t i = 0; i < rel.size(); ++i) {
    const Tuple& tuple = rel.tuple(i);
    if (tuple.interval().end == std::numeric_limits<Chronon>::max()) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + " " + tuple.ToString() +
          ": interval end is the largest chronon, which ITA cannot close");
    }
    for (size_t d = 0; d < attrs.size(); ++d) {
      if (attrs[d] < 0) continue;
      const Value& v = tuple.value(static_cast<size_t>(attrs[d]));
      if (v.is_null() || !std::isfinite(v.ToDouble())) {
        return Status::InvalidArgument(
            "aggregate attribute " + spec.aggregates[d].attr + " is " +
            (v.is_null() ? "null" : "not finite") + " in row " +
            std::to_string(i) + " " + tuple.ToString());
      }
    }
  }

  std::unique_ptr<ItaStream> s(
      new ItaStream(&rel, spec.aggregates, std::move(attrs)));
  const std::vector<uint32_t> ids =
      DenseGroupIds(rel, *group_indices, &s->group_keys_);
  // Counting sort of the rows by group id; rows keep relation order within
  // a group, which fixes each group's event order.
  std::vector<size_t>& begin = s->group_begin_;
  begin.assign(s->group_keys_.size() + 1, 0);
  for (uint32_t id : ids) ++begin[id + 1];
  std::partial_sum(begin.begin(), begin.end(), begin.begin());
  std::vector<size_t> next(begin.begin(), begin.end() - 1);
  s->rows_.resize(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) {
    s->rows_[next[ids[i]]++] = static_cast<uint32_t>(i);
  }
  return s;
}

ItaStream::ItaStream(const TemporalRelation* rel,
                     std::vector<AggregateSpec> aggregates,
                     std::vector<int> attrs)
    : rel_(rel),
      aggregates_(std::move(aggregates)),
      attrs_(std::move(attrs)),
      current_(attrs_.size()),
      pending_(attrs_.size()),
      flushed_(attrs_.size()) {
  for (const AggregateSpec& agg : aggregates_) {
    aggregators_.push_back(CreateAggregator(agg.kind));
  }
}

std::vector<std::string> ItaStream::value_names() const {
  std::vector<std::string> names;
  names.reserve(aggregates_.size());
  for (const AggregateSpec& agg : aggregates_) names.push_back(agg.output_name);
  return names;
}

bool ItaStream::StartNextGroup() {
  if (current_group_ + 1 >= group_begin_.size()) return false;

  const size_t begin = group_begin_[current_group_];
  const size_t size = group_begin_[current_group_ + 1] - begin;
  const size_t p = attrs_.size();
  events_.clear();
  events_.reserve(size * 2);
  inputs_.resize(size * p);
  for (size_t k = 0; k < size; ++k) {
    const Tuple& tuple = rel_->tuple(rows_[begin + k]);
    const auto r = static_cast<uint32_t>(k);
    events_.push_back({tuple.interval().begin, r, /*is_start=*/true});
    events_.push_back({tuple.interval().end + 1, r, /*is_start=*/false});
    for (size_t d = 0; d < p; ++d) {
      inputs_[k * p + d] =
          attrs_[d] < 0 ? 0.0
                        : tuple.value(static_cast<size_t>(attrs_[d])).ToDouble();
    }
  }
  // End events sort before start events at the same instant so that an
  // aggregator never simultaneously holds a tuple that ended at t-1 and one
  // that starts at t (their order is otherwise irrelevant: segments are
  // emitted before any event at the boundary applies).
  std::sort(events_.begin(), events_.end(),
            [](const Event& a, const Event& b) {
              if (a.time != b.time) return a.time < b.time;
              return a.is_start < b.is_start;
            });
  event_pos_ = 0;
  active_count_ = 0;
  boundary_ = events_.empty() ? 0 : events_.front().time;
  for (auto& agg : aggregators_) agg->Reset();
  group_active_ = true;
  return true;
}

bool ItaStream::StepGroup() {
  PTA_DCHECK(group_active_);
  bool flushed = false;

  auto flush = [&] {
    flushed_.swap(pending_);
    flushed_t_ = pending_t_;
    flushed_group_ = static_cast<int32_t>(current_group_);
    flushed = true;
  };

  // End of the current group: flush the pending coalesced segment.
  if (event_pos_ >= events_.size()) {
    if (pending_valid_) flush();
    pending_valid_ = false;
    group_active_ = false;
    ++current_group_;
    return flushed;
  }

  const Chronon t = events_[event_pos_].time;

  // Emit the elementary interval [boundary_, t-1] if tuples are active.
  if (active_count_ > 0 && boundary_ < t) {
    const Interval cand(boundary_, t - 1);
    for (size_t d = 0; d < aggregators_.size(); ++d) {
      current_[d] = aggregators_[d]->Current();
    }
    // Coalesce value-equivalent adjacent results (Def. 1's final step).
    if (pending_valid_ && pending_t_.MeetsBefore(cand) &&
        std::equal(pending_.begin(), pending_.end(), current_.begin())) {
      pending_t_.end = cand.end;
    } else {
      if (pending_valid_) flush();
      pending_.swap(current_);
      pending_t_ = cand;
      pending_valid_ = true;
    }
  }

  // Apply every event at instant t.
  const size_t p = aggregators_.size();
  while (event_pos_ < events_.size() && events_[event_pos_].time == t) {
    const Event& ev = events_[event_pos_];
    const double* in = inputs_.data() + static_cast<size_t>(ev.row) * p;
    for (size_t d = 0; d < p; ++d) {
      if (ev.is_start) {
        aggregators_[d]->Add(in[d]);
      } else {
        aggregators_[d]->Remove(in[d]);
      }
    }
    active_count_ += ev.is_start ? 1 : -1;
    ++event_pos_;
  }
  boundary_ = t;
  return flushed;
}

bool ItaStream::NextView(SegmentView* out) {
  while (group_active_ || StartNextGroup()) {
    if (StepGroup()) {
      *out = {flushed_group_, flushed_t_, flushed_.data()};
      return true;
    }
  }
  return false;  // the last StepGroup of each group flushed its pending
}

bool ItaStream::Next(Segment* out) {
  SegmentView view;
  if (!NextView(&view)) return false;
  out->group = view.group;
  out->t = view.t;
  out->values.assign(view.values, view.values + aggregates_.size());
  return true;
}

Result<SequentialRelation> Ita(const TemporalRelation& rel,
                               const ItaSpec& spec) {
  auto stream = ItaStream::Create(rel, spec);
  if (!stream.ok()) return stream.status();
  ItaStream& s = **stream;

  SequentialRelation out(s.num_aggregates(), s.value_names());
  SegmentView view;
  while (s.NextView(&view)) out.Append(view.group, view.t, view.values);
  out.SetGroupKeys(s.group_keys());
  return out;
}

Result<std::vector<uint32_t>> GroupShardMap(
    const std::vector<GroupKey>& group_keys,
    const std::vector<std::string>& group_by,
    const std::vector<std::string>& shard_by, size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  // Resolve shard_by names to positions within the group key.
  std::vector<size_t> positions;
  positions.reserve(shard_by.size());
  for (const std::string& name : shard_by) {
    size_t pos = group_by.size();
    for (size_t i = 0; i < group_by.size(); ++i) {
      if (group_by[i] == name) {
        pos = i;
        break;
      }
    }
    if (pos == group_by.size()) {
      return Status::InvalidArgument("shard_by attribute '" + name +
                                     "' is not a grouping attribute");
    }
    positions.push_back(pos);
  }

  std::vector<uint32_t> shard_of;
  shard_of.reserve(group_keys.size());
  GroupKey projected;
  for (const GroupKey& key : group_keys) {
    if (!group_by.empty() && key.size() != group_by.size()) {
      return Status::InvalidArgument(
          "group key arity does not match group_by");
    }
    uint64_t h;
    if (shard_by.empty()) {
      h = GroupKeyHash(key);
    } else {
      projected.clear();
      for (size_t pos : positions) projected.push_back(key[pos]);
      h = GroupKeyHash(projected);
    }
    shard_of.push_back(static_cast<uint32_t>(h % num_shards));
  }
  return shard_of;
}

}  // namespace pta
