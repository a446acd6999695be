#include "datasets/synthetic.h"

#include <algorithm>

#include "util/random.h"

namespace pta {

TemporalRelation GenerateSyntheticRelation(const SyntheticOptions& options) {
  std::vector<AttributeDef> attrs;
  attrs.push_back({"G", ValueType::kInt64});
  for (size_t d = 0; d < options.num_dims; ++d) {
    attrs.push_back({"A" + std::to_string(d + 1), ValueType::kDouble});
  }
  std::vector<Column> columns;
  for (const AttributeDef& attr : attrs) {
    columns.emplace_back(attr.type).Reserve(options.num_tuples);
  }
  std::vector<Chronon> tb, te;
  tb.reserve(options.num_tuples);
  te.reserve(options.num_tuples);

  Random rng(options.seed);
  for (size_t i = 0; i < options.num_tuples; ++i) {
    columns[0].AppendInt64(
        rng.UniformInt(0, static_cast<int64_t>(options.num_groups) - 1));
    for (size_t d = 0; d < options.num_dims; ++d) {
      columns[d + 1].AppendDouble(rng.Uniform(0.0, 1000.0));
    }
    const Chronon begin = rng.UniformInt(0, options.time_span - 1);
    tb.push_back(begin);
    te.push_back(begin + rng.UniformInt(0, options.max_duration - 1));
  }
  auto rel = TemporalRelation::FromColumns(Schema(std::move(attrs)),
                                           std::move(columns), std::move(tb),
                                           std::move(te));
  PTA_CHECK(rel.ok());
  return std::move(*rel);
}

SequentialRelation GenerateSyntheticSequential(size_t num_groups,
                                               size_t tuples_per_group,
                                               size_t num_dims,
                                               uint64_t seed) {
  PTA_CHECK(num_groups >= 1 && num_dims >= 1);
  SequentialRelation rel(num_dims);
  rel.Reserve(num_groups * tuples_per_group);
  Random rng(seed);
  std::vector<double> row(num_dims);
  std::vector<GroupKey> keys;
  keys.reserve(num_groups);
  for (size_t g = 0; g < num_groups; ++g) {
    keys.push_back({Value(static_cast<int64_t>(g))});
    for (size_t i = 0; i < tuples_per_group; ++i) {
      for (size_t d = 0; d < num_dims; ++d) {
        row[d] = rng.Uniform(0.0, 1000.0);
      }
      rel.Append(static_cast<int32_t>(g),
                 Interval(static_cast<Chronon>(i), static_cast<Chronon>(i)),
                 row.data());
    }
  }
  rel.SetGroupKeys(std::move(keys));
  return rel;
}

SequentialRelation GenerateSyntheticWithGaps(size_t num_tuples,
                                             size_t num_dims, size_t num_gaps,
                                             uint64_t seed) {
  PTA_CHECK(num_dims >= 1 && num_tuples >= 1);
  num_gaps = std::min(num_gaps, num_tuples - 1);

  // Choose distinct gap positions (after which a hole is punched).
  Random rng(seed);
  std::vector<size_t> positions(num_tuples - 1);
  for (size_t i = 0; i < positions.size(); ++i) positions[i] = i;
  for (size_t i = 0; i < num_gaps; ++i) {
    const size_t j =
        i + static_cast<size_t>(rng.UniformInt(
                0, static_cast<int64_t>(positions.size() - i) - 1));
    std::swap(positions[i], positions[j]);
  }
  positions.resize(num_gaps);
  std::sort(positions.begin(), positions.end());

  SequentialRelation rel(num_dims);
  rel.Reserve(num_tuples);
  std::vector<double> row(num_dims);
  Chronon t = 0;
  size_t next_gap = 0;
  for (size_t i = 0; i < num_tuples; ++i) {
    for (size_t d = 0; d < num_dims; ++d) row[d] = rng.Uniform(0.0, 1000.0);
    rel.Append(0, Interval(t, t), row.data());
    ++t;
    if (next_gap < positions.size() && positions[next_gap] == i) {
      ++t;  // leave a one-chronon hole
      ++next_gap;
    }
  }
  rel.SetGroupKeys({GroupKey{}});
  return rel;
}

}  // namespace pta
