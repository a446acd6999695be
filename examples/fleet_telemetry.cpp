// Sharded PTA end to end: compress per-vehicle telemetry with the parallel
// group-sharded engine (docs/ARCHITECTURE.md §5).
//
// A fleet of vehicles reports overlapping measurement intervals; ITA turns
// them into per-vehicle constant segments and a PtaQuery with Parallel()
// tuning reduces the result to a global budget, sharding the vehicles
// across a thread pool by a stable hash of the grouping attribute. The
// result is identical for any thread count — threads only change the wall
// clock.
//
// Run:  ./build/examples/fleet_telemetry

#include <cstdio>

#include "core/ita.h"
#include "datasets/synthetic.h"
#include "pta/pta.h"
#include "util/stopwatch.h"

int main() {
  using namespace pta;

  // 24 vehicles ("groups"), ~200 overlapping readings each, two sensors.
  SyntheticOptions synth;
  synth.num_tuples = 5000;
  synth.num_dims = 2;
  synth.num_groups = 24;
  synth.max_duration = 30;
  synth.time_span = 600;  // dense coverage: few temporal gaps per vehicle
  synth.seed = 2026;
  const TemporalRelation fleet = GenerateSyntheticRelation(synth);
  std::printf("fleet telemetry: %zu readings from %zu vehicles\n",
              fleet.size(), synth.num_groups);

  // Average both sensors per vehicle at every instant, then keep a budget
  // of 300 output tuples, sharded over the vehicle attribute G. Giving the
  // query Parallel() tuning steers the planner to the sharded engine.
  ParallelOptions parallel;
  parallel.num_threads = 4;
  parallel.num_shards = 8;
  parallel.shard_by = {"G"};

  PtaRunStats run_stats;
  Stopwatch watch;
  auto result = PtaQuery::Over(fleet)
                    .GroupBy("G")
                    .Aggregate(Avg("A1", "AvgSpeed"))
                    .Aggregate(Avg("A2", "AvgTemp"))
                    .Budget(Budget::Size(300))
                    .Parallel(parallel)
                    .Run(&run_stats);
  const double seconds = watch.ElapsedSeconds();
  if (!result.ok()) {
    std::fprintf(stderr, "parallel PTA failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }
  const ParallelStats& stats = run_stats.parallel;

  std::printf(
      "reduced ITA result of %zu segments to %zu tuples "
      "(SSE %.1f) in %.3f s [engine %s, planning %.0f us]\n",
      result->ita_size, result->relation.size(), result->error, seconds,
      EngineName(run_stats.engine), run_stats.plan_seconds * 1e6);
  std::printf("shards: %zu on %zu threads; per-shard (size -> budget):\n",
              stats.num_shards, stats.threads_used);
  for (size_t s = 0; s < stats.num_shards; ++s) {
    std::printf("  shard %zu: %6zu segments -> budget %5zu (Emax %.1f)\n", s,
                stats.shard_sizes[s], stats.shard_budgets[s],
                stats.shard_max_errors[s]);
  }

  // The reduced relation is a regular temporal relation again.
  const Schema group_schema({{"G", ValueType::kInt64}});
  auto displayable = result->relation.ToTemporalRelation(group_schema);
  if (!displayable.ok()) return 1;
  std::printf("\nfirst rows of the reduced relation:\n");
  for (size_t i = 0; i < displayable->size() && i < 5; ++i) {
    std::printf("  %s\n", displayable->tuple(i).ToString().c_str());
  }
  return 0;
}
