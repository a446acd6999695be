#include "core/relation.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pta {

// ---- Column ---------------------------------------------------------------

Value Column::value(size_t i) const {
  if (is_null(i)) return Value();
  switch (type_) {
    case ValueType::kInt64:
      return Value(ints_[i]);
    case ValueType::kDouble:
      return Value(doubles_[i]);
    case ValueType::kString:
      return Value(strings_[i]);
    case ValueType::kNull:
      break;
  }
  return Value();
}

void Column::AppendNull() {
  if (nulls_.empty()) nulls_.assign(size_, 0);
  nulls_.push_back(1);
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kDouble:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      strings_.emplace_back();
      break;
    case ValueType::kNull:
      break;
  }
  ++size_;
}

void Column::AppendInt64(int64_t v) {
  PTA_DCHECK(type_ == ValueType::kInt64);
  ints_.push_back(v);
  if (!nulls_.empty()) nulls_.push_back(0);
  ++size_;
}

void Column::AppendDouble(double v) {
  PTA_DCHECK(type_ == ValueType::kDouble);
  doubles_.push_back(v);
  if (!nulls_.empty()) nulls_.push_back(0);
  ++size_;
}

void Column::AppendString(std::string v) {
  PTA_DCHECK(type_ == ValueType::kString);
  strings_.push_back(std::move(v));
  if (!nulls_.empty()) nulls_.push_back(0);
  ++size_;
}

void Column::AppendValue(const Value& v) {
  PTA_CHECK_MSG(v.is_null() || v.type() == type_,
                "value type does not match the column type");
  switch (v.type()) {
    case ValueType::kNull:
      AppendNull();
      break;
    case ValueType::kInt64:
      AppendInt64(v.AsInt64());
      break;
    case ValueType::kDouble:
      AppendDouble(v.AsDoubleExact());
      break;
    case ValueType::kString:
      AppendString(v.AsString());
      break;
  }
}

Column Column::Take(const std::vector<size_t>& rows) const {
  Column out(type_);
  out.size_ = rows.size();
  auto gather = [&rows](const auto& from, auto* to) {
    to->reserve(rows.size());
    for (size_t r : rows) to->push_back(from[r]);
  };
  switch (type_) {
    case ValueType::kInt64:
      gather(ints_, &out.ints_);
      break;
    case ValueType::kDouble:
      gather(doubles_, &out.doubles_);
      break;
    case ValueType::kString:
      gather(strings_, &out.strings_);
      break;
    case ValueType::kNull:
      break;
  }
  if (!nulls_.empty()) gather(nulls_, &out.nulls_);
  return out;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case ValueType::kInt64:
      ints_.reserve(n);
      break;
    case ValueType::kDouble:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      strings_.reserve(n);
      break;
    case ValueType::kNull:
      nulls_.reserve(n);
      break;
  }
}

int CompareCells(const Column& column, size_t x, size_t y) {
  const bool null_x = column.is_null(x);
  const bool null_y = column.is_null(y);
  if (null_x || null_y) return static_cast<int>(null_y) - null_x;
  auto three_way = [](const auto& a, const auto& b) {
    return static_cast<int>(b < a) - static_cast<int>(a < b);
  };
  switch (column.type()) {
    case ValueType::kInt64:
      return three_way(column.ints()[x], column.ints()[y]);
    case ValueType::kDouble: {
      const double a = column.doubles()[x];
      const double b = column.doubles()[y];
      const bool nan_a = std::isnan(a);
      const bool nan_b = std::isnan(b);
      if (nan_a || nan_b) return static_cast<int>(nan_a) - nan_b;
      return three_way(a, b);
    }
    case ValueType::kString:
      return column.strings()[x].compare(column.strings()[y]);
    case ValueType::kNull:
      break;
  }
  return 0;
}

int CompareRows(const TemporalRelation& rel, const std::vector<size_t>& attrs,
                size_t x, size_t y) {
  for (size_t a : attrs) {
    const int c = CompareCells(rel.column(a), x, y);
    if (c != 0) return c;
  }
  return 0;
}

// ---- TemporalRelation -----------------------------------------------------

namespace {

Status CheckIntervals(const std::vector<Chronon>& tb,
                      const std::vector<Chronon>& te, size_t rows) {
  if (tb.size() != rows || te.size() != rows) {
    return Status::InvalidArgument("interval columns must have one entry "
                                   "per row");
  }
  for (size_t i = 0; i < rows; ++i) {
    if (tb[i] > te[i]) {
      return Status::InvalidArgument("interval begin exceeds end in row " +
                                     std::to_string(i));
    }
  }
  return Status::Ok();
}

}  // namespace

TemporalRelation::TemporalRelation(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_attributes());
  for (const AttributeDef& attr : schema_.attributes()) {
    columns_.emplace_back(attr.type);
  }
}

Result<TemporalRelation> TemporalRelation::FromColumns(
    Schema schema, std::vector<Column> columns, std::vector<Chronon> tb,
    std::vector<Chronon> te) {
  if (columns.size() != schema.num_attributes()) {
    return Status::InvalidArgument("column count does not match the schema");
  }
  for (size_t a = 0; a < columns.size(); ++a) {
    if (columns[a].type() != schema.attribute(a).type) {
      return Status::InvalidArgument("column " + schema.attribute(a).name +
                                     " does not have the attribute's type");
    }
    if (columns[a].size() != tb.size()) {
      return Status::InvalidArgument("column " + schema.attribute(a).name +
                                     " differs in length from tb");
    }
  }
  PTA_RETURN_IF_ERROR(CheckIntervals(tb, te, tb.size()));
  TemporalRelation rel;
  rel.schema_ = std::move(schema);
  rel.columns_ = std::move(columns);
  rel.tb_ = std::move(tb);
  rel.te_ = std::move(te);
  return rel;
}

Status TemporalRelation::SetIntervals(std::vector<Chronon> tb,
                                      std::vector<Chronon> te) {
  PTA_RETURN_IF_ERROR(CheckIntervals(tb, te, size()));
  identity_.Reset();
  tb_ = std::move(tb);
  te_ = std::move(te);
  return Status::Ok();
}

Tuple TemporalRelation::tuple(size_t i) const {
  std::vector<Value> values;
  values.reserve(columns_.size());
  for (const Column& column : columns_) values.push_back(column.value(i));
  return Tuple(std::move(values), interval(i));
}

Status TemporalRelation::Insert(std::vector<Value> values, Interval t) {
  identity_.Reset();
  PTA_RETURN_IF_ERROR(schema_.ValidateRow(values));
  if (t.begin > t.end) {
    return Status::InvalidArgument("interval begin exceeds end");
  }
  for (size_t a = 0; a < columns_.size(); ++a) {
    columns_[a].AppendValue(values[a]);
  }
  tb_.push_back(t.begin);
  te_.push_back(t.end);
  return Status::Ok();
}

Status TemporalRelation::Insert(const Tuple& tuple) {
  return Insert(tuple.values(), tuple.interval());
}

TemporalRelation TemporalRelation::Take(const std::vector<size_t>& rows) const {
  TemporalRelation out;
  out.schema_ = schema_;
  out.columns_.reserve(columns_.size());
  for (const Column& column : columns_) out.columns_.push_back(column.Take(rows));
  out.tb_.reserve(rows.size());
  out.te_.reserve(rows.size());
  for (size_t r : rows) {
    out.tb_.push_back(tb_[r]);
    out.te_.push_back(te_[r]);
  }
  return out;
}

void TemporalRelation::Clear() {
  identity_.Reset();
  for (Column& column : columns_) column = Column(column.type());
  tb_.clear();
  te_.clear();
}

void TemporalRelation::Reserve(size_t n) {
  for (Column& column : columns_) column.Reserve(n);
  tb_.reserve(n);
  te_.reserve(n);
}

void TemporalRelation::SortByGroupThenTime(
    const std::vector<size_t>& group_indices) {
  std::vector<size_t> order(size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const int c = CompareRows(*this, group_indices, x, y);
    if (c != 0) return c < 0;
    if (tb_[x] != tb_[y]) return tb_[x] < tb_[y];
    return te_[x] < te_[y];
  });
  *this = Take(order);  // a fresh relation: the identity changes
}

bool TemporalRelation::IsSequential(
    const std::vector<size_t>& group_indices) const {
  // Order rows by group, then begin; a group is sequential iff each row
  // ends before the next one of the same group begins.
  std::vector<size_t> order(size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    const int c = CompareRows(*this, group_indices, x, y);
    if (c != 0) return c < 0;
    return tb_[x] < tb_[y];
  });
  for (size_t k = 1; k < order.size(); ++k) {
    const size_t prev = order[k - 1];
    const size_t row = order[k];
    if (CompareRows(*this, group_indices, prev, row) == 0 &&
        te_[prev] >= tb_[row]) {
      return false;
    }
  }
  return true;
}

Result<Interval> TemporalRelation::TimeSpan() const {
  if (empty()) {
    return Status::FailedPrecondition("relation is empty");
  }
  return Interval(*std::min_element(tb_.begin(), tb_.end()),
                  *std::max_element(te_.begin(), te_.end()));
}

bool TemporalRelation::SameTuples(const TemporalRelation& other) const {
  if (size() != other.size()) return false;
  auto rendered = [](const TemporalRelation& rel) {
    std::vector<std::string> rows;
    rows.reserve(rel.size());
    for (size_t i = 0; i < rel.size(); ++i) {
      rows.push_back(rel.tuple(i).ToString());
    }
    std::sort(rows.begin(), rows.end());
    return rows;
  };
  return rendered(*this) == rendered(other);
}

std::string TemporalRelation::ToString() const {
  std::string out;
  for (size_t i = 0; i < size(); ++i) {
    out += tuple(i).ToString();
    out += "\n";
  }
  return out;
}

Result<std::vector<TemporalRelation>> PartitionByGroupHash(
    const TemporalRelation& rel, const std::vector<std::string>& group_by,
    size_t num_shards) {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  auto indices = rel.schema().ResolveAll(group_by);
  if (!indices.ok()) return indices.status();

  // GroupKeyHash, folded one key column at a time.
  std::vector<uint64_t> hash(rel.size(), kGroupKeyHashSeed);
  for (size_t a : *indices) {
    const Column& column = rel.column(a);
    for (size_t i = 0; i < rel.size(); ++i) {
      hash[i] = GroupKeyHashFold(hash[i], column.value(i).Hash());
    }
  }
  std::vector<std::vector<size_t>> rows(num_shards);
  for (size_t i = 0; i < rel.size(); ++i) {
    rows[static_cast<size_t>(hash[i] % num_shards)].push_back(i);
  }
  std::vector<TemporalRelation> shards;
  shards.reserve(num_shards);
  for (const std::vector<size_t>& shard_rows : rows) {
    shards.push_back(rel.Take(shard_rows));
  }
  return shards;
}

}  // namespace pta
