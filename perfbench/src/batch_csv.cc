// batch_csv: what `pta_csv_tool --query` does, in memory. One operation is
// RelationFromCsv -> ql::ParseAndExecute -> RelationToCsv over a 100k-row,
// 100-group, gappy synthetic relation serialized to CSV before timing. At
// about a quarter of a second per operation a run times near a hundred of
// them, so their median holds still while the host's speed wanders, and
// the tail is always their p75.
#include <cstdio>
#include <string>
#include <vector>

#include "core/ita.h"
#include "datasets/csv.h"
#include "datasets/synthetic.h"
#include "pta/query.h"
#include "ql/ql.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kRows = 100'000;
constexpr size_t kGroups = 100;
constexpr size_t kBudget = 40'000;
constexpr const char* kQuery =
    "SELECT AVG(A1) AS avg_a1 FROM events GROUP BY G BUDGET SIZE 40000";
// The tail reported: p75 needs 40 operations (10 beyond its rank); a cap
// keeps it from switching to p90 on runs that fit 100.
constexpr double kTailPct = 75.0;
constexpr int kSetupRepeats = 9;

pta::SyntheticOptions InputOptions(uint64_t seed) {
  pta::SyntheticOptions options;
  options.num_tuples = kRows;
  options.num_dims = 1;
  options.num_groups = kGroups;
  options.max_duration = 20;
  options.time_span = 5000;
  options.seed = seed;
  return options;
}

pta::Schema InputSchema() {
  return pta::Schema({{"G", pta::ValueType::kInt64},
                      {"A1", pta::ValueType::kDouble}});
}

// The end-to-end operation as a user runs it. Returns the output CSV, or
// an empty string (after recording the failure) on error.
std::string RunEndToEnd(const Context& ctx, const std::string& csv,
                        uint64_t op, size_t* out_rows) {
  Tracer& tracer = *ctx.tracer;
  Report& report = *ctx.report;
  ScopedSpan root(tracer, "batch.op", op);
  pta::Result<pta::TemporalRelation> parsed = [&] {
    ScopedSpan span(tracer, "datasets.csv_parse", op);
    return pta::RelationFromCsv(csv, InputSchema());
  }();
  if (!report.Check(parsed.ok(), "RelationFromCsv: " + parsed.status().ToString())) {
    return {};
  }
  pta::ql::Catalog catalog;
  catalog.Register("events", &*parsed);
  pta::Result<pta::ql::ExecResult> result = [&] {
    ScopedSpan span(tracer, "ql.parse_and_execute", op);
    return pta::ql::ParseAndExecute(kQuery, catalog);
  }();
  if (!report.Check(result.ok(), "ParseAndExecute: " + result.status().ToString())) {
    return {};
  }
  *out_rows = result->table.size();
  ScopedSpan span(tracer, "datasets.csv_write", op);
  return pta::RelationToCsv(result->table);
}

// The same work, one public layer call at a time, for the per-layer times.
std::string RunDecomposed(const Context& ctx, const std::string& csv,
                          uint64_t op, pta::GreedyStats* greedy,
                          size_t* ita_rows) {
  Tracer& tracer = *ctx.tracer;
  Report& report = *ctx.report;
  ScopedSpan root(tracer, "batch.decomposed", op);
  pta::Result<pta::TemporalRelation> parsed = [&] {
    ScopedSpan span(tracer, "datasets.csv_parse", op);
    return pta::RelationFromCsv(csv, InputSchema());
  }();
  if (!report.Check(parsed.ok(), "RelationFromCsv: " + parsed.status().ToString())) {
    return {};
  }
  pta::Result<pta::ql::Query> query = [&] {
    ScopedSpan span(tracer, "ql.parse", op);
    return pta::ql::ParseQuery(kQuery);
  }();
  if (!report.Check(query.ok(), "ParseQuery: " + query.status().ToString())) {
    return {};
  }
  pta::ItaSpec spec;
  spec.group_by = query->group_by;
  for (const pta::ql::SelectItem& item : query->items) {
    spec.aggregates.push_back({item.kind, item.attr, item.output_name()});
  }
  pta::Result<pta::SequentialRelation> ita = [&] {
    ScopedSpan span(tracer, "core.ita", op);
    return pta::Ita(*parsed, spec);
  }();
  if (!report.Check(ita.ok(), "Ita: " + ita.status().ToString())) return {};
  *ita_rows = ita->size();
  pta::PtaRunStats run_stats;
  pta::Result<pta::PtaResult> reduced = [&] {
    ScopedSpan span(tracer, "pta.reduce", op);
    return pta::PtaQuery::OverSequential(*ita)
        .Budget(pta::Budget::Size(query->budget.size))
        .Engine(pta::Engine::kGreedy)
        .Run(&run_stats);
  }();
  if (!report.Check(reduced.ok(), "greedy reduce: " + reduced.status().ToString())) {
    return {};
  }
  *greedy = run_stats.greedy;
  pta::Result<pta::TemporalRelation> table = [&] {
    ScopedSpan span(tracer, "pta.to_table", op);
    return reduced->relation.ToTemporalRelation(
        pta::Schema({{"G", pta::ValueType::kInt64}}));
  }();
  if (!report.Check(table.ok(), "ToTemporalRelation: " + table.status().ToString())) {
    return {};
  }
  ScopedSpan span(tracer, "datasets.csv_write", op);
  return pta::RelationToCsv(*table);
}

}  // namespace

void RunBatchCsv(const Context& ctx) {
  Report& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  const bool traced = tracer.enabled();
  tracer.set_enabled(false);

  // Set-up: materialize the input relation and its CSV text. Repeat 0
  // warms the allocator up and is dropped: whether its buffers come from
  // fresh pages differs from run to run.
  std::vector<double> setup_s;
  std::string csv;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    PinToCpu(i);
    const double t0 = NowS();
    pta::TemporalRelation input = pta::GenerateSyntheticRelation(
        InputOptions(ctx.seed));
    csv = pta::RelationToCsv(input);
    if (i > 0) setup_s.push_back(NowS() - t0);
  }
  report.Set("setup_s", Median(setup_s), "s");
  std::printf("batch_csv: %zu rows, %zu CSV bytes, query: %s\n", kRows,
              csv.size(), kQuery);

  // One untimed warm-up operation fixes the reference output bytes.
  size_t out_rows = 0;
  report.Attempt();
  const std::string reference = RunEndToEnd(ctx, csv, 0, &out_rows);
  if (reference.empty()) {
    report.Fail();
    return;
  }
  report.Check(out_rows <= kBudget, "output has more rows than the budget");
  const uint64_t digest = DigestBytes(0, reference);
  report.Note("output_digest", Hex(digest));
  report.Note("output_rows", std::to_string(out_rows));
  // Peak memory of set-up plus one operation: later operations only add
  // allocator fragmentation, which would tie the figure to how many
  // operations fit into the run.
  report.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (!traced) {
    std::vector<double> op_s;
    const double deadline = NowS() + ctx.seconds;
    for (uint64_t op = 1; op == 1 || NowS() < deadline; ++op) {
      PinToCpu(op);
      report.Attempt();
      const double t0 = NowS();
      size_t rows = 0;
      const std::string out = RunEndToEnd(ctx, csv, op, &rows);
      op_s.push_back(NowS() - t0);
      if (!report.Check(out == reference,
                        "operation " + std::to_string(op) +
                            " output differs from the first")) {
        report.Fail();
      }
    }
    const Tail tail = TailOf(op_s, kTailPct);
    const double median_s = Median(op_s);
    report.Set("throughput_per_s", kRows / median_s, "1/s");
    report.Set("p50_ms", median_s * 1e3, "ms");
    report.Set("p99_ms", tail.value * 1e3, "ms");
    report.Set("batch_rows_per_s", kRows / median_s, "1/s");
    report.Note("operations", std::to_string(op_s.size()));
    report.Note("tail_percentile", JsonNumber(tail.pct));
    return;
  }

  // Traced: rotate through the end-to-end operation untraced, the
  // layer-by-layer decomposition (whose bytes must equal the end-to-end
  // bytes), and the end-to-end operation traced (ParseAndExecute's whole
  // time, and the tracing overhead against the untraced operations).
  std::vector<double> untraced_s;
  std::vector<double> traced_s;
  pta::GreedyStats greedy;
  size_t ita_rows = 0;
  const double deadline = NowS() + ctx.seconds;
  for (uint64_t op = 1; op <= 3 || NowS() < deadline; ++op) {
    PinToCpu(op);
    report.Attempt();
    size_t rows = 0;
    std::string out;
    const double t0 = NowS();
    switch (op % 3) {
      case 1:
        tracer.set_enabled(false);
        out = RunEndToEnd(ctx, csv, op, &rows);
        untraced_s.push_back(NowS() - t0);
        tracer.set_enabled(true);
        break;
      case 2:
        out = RunDecomposed(ctx, csv, op, &greedy, &ita_rows);
        break;
      default:
        out = RunEndToEnd(ctx, csv, op, &rows);
        traced_s.push_back(NowS() - t0);
        break;
    }
    if (!report.Check(out == reference,
                      "operation " + std::to_string(op) +
                          " bytes differ from the end-to-end bytes")) {
      report.Fail();
    }
  }
  const SelfTimes self = SelfTimeByRequest(tracer.spans());
  const double parse = MedianSelf(self, "datasets.csv_parse");
  const double ita = MedianSelf(self, "core.ita");
  const double reduce = MedianSelf(self, "pta.reduce");
  const double to_table = MedianSelf(self, "pta.to_table");
  const double ql_parse = MedianSelf(self, "ql.parse");
  report.Set("datasets.csv_parse_s", parse, "s");
  report.Set("datasets.csv_write_s", MedianSelf(self, "datasets.csv_write"), "s");
  report.Set("ql.parse_s", ql_parse, "s");
  report.Set("ql.exec_glue_s",
             MedianSelf(self, "ql.parse_and_execute") - ql_parse - ita -
                 reduce - to_table,
             "s");
  report.Set("core.ita_s", ita, "s");
  report.Set("core.ita_rows", static_cast<double>(ita_rows), "count");
  report.Set("pta.reduce_s", reduce, "s");
  report.Set("pta.merges", static_cast<double>(greedy.merges), "count");
  report.Set("pta.heap_peak", static_cast<double>(greedy.max_heap_size), "count");
  report.Set("pta.to_table_s", to_table, "s");
  report.Set("trace.overhead_ratio", Median(traced_s) / Median(untraced_s),
             "ratio");
}

}  // namespace perfbench
