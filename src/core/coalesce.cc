#include "core/coalesce.h"

#include <algorithm>
#include <unordered_map>

namespace pta {

TemporalRelation Coalesce(const TemporalRelation& rel) {
  // Bucket intervals by the full value vector, then merge sorted intervals
  // that overlap or meet.
  std::unordered_map<GroupKey, std::vector<Interval>, GroupKeyHasher> buckets;
  for (size_t i = 0; i < rel.size(); ++i) {
    const Tuple t = rel.tuple(i);
    buckets[t.values()].push_back(t.interval());
  }

  // Deterministic output order: sort the distinct value vectors.
  std::vector<const GroupKey*> keys;
  keys.reserve(buckets.size());
  // Only collects pointers to the distinct keys; the sort below fixes
  // the output order.
  // pta-lint: allow(unordered-iteration) -- order fixed by sort below
  for (const auto& [key, _] : buckets) keys.push_back(&key);
  std::sort(keys.begin(), keys.end(),
            [](const GroupKey* a, const GroupKey* b) {
              return GroupKeyLess(*a, *b);
            });

  TemporalRelation out(rel.schema());
  for (const GroupKey* key : keys) {
    std::vector<Interval>& intervals = buckets[*key];
    std::sort(intervals.begin(), intervals.end(),
              [](const Interval& a, const Interval& b) {
                if (a.begin != b.begin) return a.begin < b.begin;
                return a.end < b.end;
              });
    Interval cur = intervals.front();
    for (size_t i = 1; i < intervals.size(); ++i) {
      const Interval& next = intervals[i];
      if (next.begin <= cur.end + 1) {
        cur.end = std::max(cur.end, next.end);
      } else {
        PTA_CHECK(out.Insert(*key, cur).ok());
        cur = next;
      }
    }
    PTA_CHECK(out.Insert(*key, cur).ok());
  }
  return out;
}

}  // namespace pta
