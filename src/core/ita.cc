#include "core/ita.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>

namespace pta {

namespace {

// Hash of one group-key cell, equal for cells that CompareCells calls equal:
// -0.0 hashes as +0.0 and every NaN alike.
uint64_t CellHash(const Column& column, size_t i) {
  if (column.is_null(i)) return 0x2545f4914f6cdd1dULL;
  switch (column.type()) {
    case ValueType::kInt64:
      return static_cast<uint64_t>(column.ints()[i]);
    case ValueType::kDouble: {
      double x = column.doubles()[i];
      if (std::isnan(x)) return 0x7ff8000000000000ULL;
      // pta-lint: allow(float-equality) -- folds -0.0 onto +0.0, exactly
      if (x == 0.0) x = 0.0;
      uint64_t bits;
      std::memcpy(&bits, &x, sizeof(bits));
      return bits;
    }
    case ValueType::kString:
      return std::hash<std::string>{}(column.strings()[i]);
    case ValueType::kNull:
      break;
  }
  return 0;
}

// The murmur3 finalizer: spreads small integer keys over the table.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  return x ^ (x >> 33);
}

// Dense group id of every row, numbered in GroupKeyLess order of the rows'
// projections onto `attrs` (CompareCells: -0.0 equals +0.0, NaNs form one
// value after every other double). Rows are hashed column by column into
// an open-addressing table holding each group's first row; the distinct
// groups are then ranked by comparing those rows. Fills one key per id,
// taken from the group's first row.
std::vector<uint32_t> DenseGroupIds(const TemporalRelation& rel,
                                    const std::vector<size_t>& attrs,
                                    std::vector<GroupKey>* keys) {
  const size_t n = rel.size();
  std::vector<uint64_t> hash(n, 0);
  for (size_t a : attrs) {
    const Column& column = rel.column(a);
    for (size_t i = 0; i < n; ++i) hash[i] = Mix(hash[i] ^ CellHash(column, i));
  }

  struct Slot {
    uint64_t hash;
    uint32_t row;  // the group's first row; kEmpty for a free slot
    uint32_t id;   // in order of first appearance
  };
  constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  std::vector<Slot> table(16, Slot{0, kEmpty, 0});
  std::vector<uint32_t> first_rows;  // by id
  auto insert = [&table](const Slot& slot) -> Slot& {
    const size_t mask = table.size() - 1;
    size_t s = slot.hash & mask;
    while (table[s].row != kEmpty) s = (s + 1) & mask;
    return table[s] = slot;
  };
  std::vector<uint32_t> ids(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t mask = table.size() - 1;
    size_t s = hash[i] & mask;
    while (table[s].row != kEmpty &&
           (table[s].hash != hash[i] ||
            CompareRows(rel, attrs, table[s].row, i) != 0)) {
      s = (s + 1) & mask;
    }
    if (table[s].row != kEmpty) {
      ids[i] = table[s].id;
      continue;
    }
    const auto id = static_cast<uint32_t>(first_rows.size());
    table[s] = Slot{hash[i], static_cast<uint32_t>(i), id};
    first_rows.push_back(static_cast<uint32_t>(i));
    ids[i] = id;
    if (first_rows.size() * 2 > table.size()) {
      std::vector<Slot> old(table.size() * 2, Slot{0, kEmpty, 0});
      old.swap(table);
      for (const Slot& slot : old) {
        if (slot.row != kEmpty) insert(slot);
      }
    }
  }

  std::vector<uint32_t> order(first_rows.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t x, uint32_t y) {
    return CompareRows(rel, attrs, first_rows[x], first_rows[y]) < 0;
  });
  std::vector<uint32_t> rank(order.size());
  keys->clear();
  keys->reserve(order.size());
  for (uint32_t id : order) {
    rank[id] = static_cast<uint32_t>(keys->size());
    GroupKey& key = keys->emplace_back();
    key.reserve(attrs.size());
    for (size_t a : attrs) key.push_back(rel.value(first_rows[id], a));
  }
  for (uint32_t& id : ids) id = rank[id];
  return ids;
}

// The first row ITA cannot aggregate, as a Status naming and rendering it:
// an interval ending at the largest chronon, or a null or non-finite
// aggregate input. The column scans find clean input fast; only input that
// fails one pays the row-by-row pass.
Status ValidateItaInput(const TemporalRelation& rel, const ItaSpec& spec,
                        const std::vector<int>& attrs) {
  constexpr Chronon kLast = std::numeric_limits<Chronon>::max();
  bool clean = std::find(rel.te().begin(), rel.te().end(), kLast) ==
               rel.te().end();
  for (int attr : attrs) {
    if (attr < 0) continue;
    const Column& column = rel.column(static_cast<size_t>(attr));
    clean = clean && !column.has_nulls() &&
            std::all_of(column.doubles().begin(), column.doubles().end(),
                        [](double x) { return std::isfinite(x); });
  }
  if (clean) return Status::Ok();

  for (size_t i = 0; i < rel.size(); ++i) {
    if (rel.te()[i] == kLast) {
      return Status::InvalidArgument(
          "row " + std::to_string(i) + " " + rel.tuple(i).ToString() +
          ": interval end is the largest chronon, which ITA cannot close");
    }
    for (size_t d = 0; d < attrs.size(); ++d) {
      if (attrs[d] < 0) continue;
      const Column& column = rel.column(static_cast<size_t>(attrs[d]));
      const bool null = column.is_null(i);
      if (null || (column.type() == ValueType::kDouble &&
                   !std::isfinite(column.doubles()[i]))) {
        return Status::InvalidArgument(
            "aggregate attribute " + spec.aggregates[d].attr + " is " +
            (null ? "null" : "not finite") + " in row " + std::to_string(i) +
            " " + rel.tuple(i).ToString());
      }
    }
  }
  return Status::Ok();
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
  PTA_RETURN_IF_ERROR(ValidateItaInput(rel, spec, attrs));

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
  const uint32_t* rows = rows_.data() + begin;
  const size_t p = attrs_.size();
  const Chronon* tb = rel_->tb().data();
  const Chronon* te = rel_->te().data();
  events_.clear();
  events_.reserve(size * 2);
  for (size_t k = 0; k < size; ++k) {
    const auto r = static_cast<uint32_t>(k);
    events_.push_back({tb[rows[k]], r, /*is_start=*/true});
    events_.push_back({te[rows[k]] + 1, r, /*is_start=*/false});
  }
  inputs_.resize(size * p);
  for (size_t d = 0; d < p; ++d) {
    double* in = inputs_.data() + d;
    if (attrs_[d] < 0) {
      for (size_t k = 0; k < size; ++k) in[k * p] = 0.0;
      continue;
    }
    const Column& column = rel_->column(static_cast<size_t>(attrs_[d]));
    if (column.type() == ValueType::kInt64) {
      const int64_t* ints = column.ints().data();
      for (size_t k = 0; k < size; ++k) {
        in[k * p] = static_cast<double>(ints[rows[k]]);
      }
    } else {
      const double* doubles = column.doubles().data();
      for (size_t k = 0; k < size; ++k) in[k * p] = doubles[rows[k]];
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
