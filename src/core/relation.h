// Temporal relations: a schema plus a multiset of temporal tuples, stored
// column by column, with the ordering and sequentiality helpers the
// aggregation operators rely on.

#ifndef PTA_CORE_RELATION_H_
#define PTA_CORE_RELATION_H_

#include <string>
#include <vector>

#include "core/schema.h"
#include "core/tuple.h"
#include "util/identity.h"
#include "util/status.h"

namespace pta {

/// \brief One attribute of a TemporalRelation: a payload vector of the
/// attribute's type plus a null mask.
///
/// Only the vector of the column's type is used. A null cell holds a zero
/// (or empty) payload so positions stay aligned; the mask is allocated on
/// the first null, so `has_nulls()` is false for a column that never held
/// one. A column of type kNull holds nulls only.
class Column {
 public:
  explicit Column(ValueType type = ValueType::kNull) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const { return size_; }
  bool has_nulls() const { return !nulls_.empty(); }
  bool is_null(size_t i) const { return !nulls_.empty() && nulls_[i] != 0; }

  /// Payloads of an int64 / double / string column (null cells included).
  const std::vector<int64_t>& ints() const { return ints_; }
  const std::vector<double>& doubles() const { return doubles_; }
  const std::vector<std::string>& strings() const { return strings_; }

  /// Cell i as a Value (null for a null cell).
  Value value(size_t i) const;

  void AppendNull();
  void AppendInt64(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);
  /// Appends `v`, which must be null or of the column's type.
  void AppendValue(const Value& v);

  /// The cells at `rows`, in that order.
  Column Take(const std::vector<size_t>& rows) const;

  void Reserve(size_t n);

 private:
  ValueType type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> nulls_;  // empty until the first null cell
};

/// \brief A temporal relation: schema + tuples, each with a validity
/// interval, stored as one typed Column per attribute plus `tb` and `te`
/// columns.
class TemporalRelation {
 public:
  TemporalRelation() = default;
  explicit TemporalRelation(Schema schema);

  /// Adopts whole columns: one per schema attribute, of the attribute's
  /// type, all as long as `tb` and `te`. Fails on a shape mismatch or an
  /// interval with tb > te.
  [[nodiscard]] static Result<TemporalRelation> FromColumns(
      Schema schema, std::vector<Column> columns, std::vector<Chronon> tb,
      std::vector<Chronon> te);

  const Schema& schema() const { return schema_; }
  size_t size() const { return tb_.size(); }
  bool empty() const { return tb_.empty(); }
  const Column& column(size_t attr) const { return columns_[attr]; }
  const std::vector<Chronon>& tb() const { return tb_; }
  const std::vector<Chronon>& te() const { return te_; }
  Interval interval(size_t i) const { return Interval(tb_[i], te_[i]); }
  Value value(size_t i, size_t attr) const { return columns_[attr].value(i); }
  /// Row i assembled as a Tuple; for cold callers, as it builds a Value
  /// per attribute.
  Tuple tuple(size_t i) const;
  /// Process-unique stamp of the current contents (util/identity.h): every
  /// mutator below changes it, and copies never share it.
  uint64_t identity() const { return identity_.Get(); }

  /// Appends a tuple after validating it against the schema.
  [[nodiscard]] Status Insert(std::vector<Value> values, Interval t);
  /// Appends a pre-built tuple after validating it against the schema.
  [[nodiscard]] Status Insert(const Tuple& tuple);

  /// The rows at `rows`, in that order, with their intervals.
  TemporalRelation Take(const std::vector<size_t>& rows) const;
  /// Replaces every row's interval; fails, changing nothing, unless both
  /// columns have size() entries and tb <= te in every row.
  [[nodiscard]] Status SetIntervals(std::vector<Chronon> tb,
                                    std::vector<Chronon> te);

  void Clear();
  void Reserve(size_t n);

  /// Sorts tuples by their projection onto `group_indices`
  /// (lexicographically), then chronologically by interval begin, then end.
  /// This is the input order the PTA merging phase assumes (Sec. 5.1).
  void SortByGroupThenTime(const std::vector<size_t>& group_indices);

  /// True if within every group (projection onto `group_indices`) the tuple
  /// timestamps are pairwise disjoint — the paper's *sequential* property.
  bool IsSequential(const std::vector<size_t>& group_indices) const;

  /// Minimum and maximum chronon covered by any tuple; fails on empty input.
  [[nodiscard]] Result<Interval> TimeSpan() const;

  /// Multiset equality (order-insensitive); used by tests.
  bool SameTuples(const TemporalRelation& other) const;

  /// Renders all tuples, one per line.
  std::string ToString() const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  std::vector<Chronon> tb_;
  std::vector<Chronon> te_;
  Identity identity_;
};

/// Three-way comparison of rows x and y of `column` in group-key order:
/// nulls first; within doubles -0.0 equals +0.0 and every NaN is one value
/// after all other doubles. Returns <0, 0 or >0.
int CompareCells(const Column& column, size_t x, size_t y);

/// Compares rows x and y on `attrs` lexicographically with CompareCells.
int CompareRows(const TemporalRelation& rel, const std::vector<size_t>& attrs,
                size_t x, size_t y);

/// \brief Stable group-hash partitioning of a base relation.
///
/// Splits `rel` into `num_shards` relations (all sharing rel's schema):
/// tuple t goes to shard `GroupKeyHash(t projected onto group_by) %
/// num_shards`, so all tuples of one aggregation group land in the same
/// shard and ITA/PTA can run per shard independently. Tuples keep their
/// relative order; the hash is byte-stable across platforms and runs.
/// Fails on unknown attribute names.
[[nodiscard]] Result<std::vector<TemporalRelation>> PartitionByGroupHash(
    const TemporalRelation& rel, const std::vector<std::string>& group_by,
    size_t num_shards);

}  // namespace pta

#endif  // PTA_CORE_RELATION_H_
