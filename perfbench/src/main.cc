// ptabench: runs one workload of the PTA benchmark.
//
//   ptabench --workload batch_csv|serve_update|stream_feed
//            --seed N --seconds S --trace 0|1
//            [--commit ID] [--work-dir DIR] [--results FILE]
//            [--trace-file FILE]
//
// Prints every metric as "metric <name> <value> <unit>", then one JSON line
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Exits 1 when a
// correctness check failed, 2 on bad usage.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The end-to-end metrics every workload reports (BENCHMARK.json).
constexpr MetricDef kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"p50_ms", "ms"},     {"p99_ms", "ms"},
    {"setup_s", "s"},            {"peak_rss_mb", "MB"},
};

// The per-layer metrics every traced run reports; 0 where the workload does
// not call the layer.
constexpr MetricDef kPerLayer[] = {
    {"datasets.csv_parse_s", "s"},  {"datasets.csv_write_s", "s"},
    {"ql.parse_s", "s"},            {"ql.exec_glue_s", "s"},
    {"core.ita_s", "s"},            {"core.ita_rows", "count"},
    {"pta.reduce_s", "s"},          {"pta.merges", "count"},
    {"pta.heap_peak", "count"},     {"pta.to_table_s", "s"},
    {"pta.index_build_s", "s"},     {"pta.index_merges", "count"},
    {"pta.index_load_s", "s"},      {"pta.index_bytes", "bytes"},
    {"pta.plan_s", "s"},            {"pta.cut_s", "s"},
    {"pta.cut_rows", "count"},      {"pta.cache_hits", "count"},
    {"pta.cache_misses", "count"},  {"pta.cache_builds", "count"},
    {"pta.cache_coalesced", "count"}, {"pta.cache_hit_ratio", "ratio"},
    {"serve.cut_s", "s"},           {"serve.overhead_s", "s"},
    {"serve.queue_wait_ms", "ms"},  {"serve.admitted", "count"},
    {"serve.shed", "count"},        {"serve.failed", "count"},
    {"serve.update_s", "s"},        {"serve.rebuild_s", "s"},
    {"stream.ingest_s", "s"},       {"stream.take_emitted_s", "s"},
    {"stream.finalize_s", "s"},     {"stream.merges", "count"},
    {"stream.early_merges", "count"}, {"stream.emitted_rows", "count"},
    {"stream.max_live_rows", "count"}, {"loadgen.late_p99_ms", "ms"},
    {"loadgen.backlog_growing", "count"}, {"trace.overhead_ratio", "ratio"},
};

// Milliseconds a fixed single-threaded integer loop takes: a note of how
// fast the host ran this process, taken before and after the workload, so
// runs on a host slowed by its neighbours can be told apart.
double CalibrationMs() {
  const int64_t t0 = NowNs();
  uint64_t x = 88172645463325252ULL;
  for (int i = 0; i < 20'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const int64_t t1 = NowNs();
  // Keeps the loop from being optimized away.
  if (x == 0) std::printf("calibration: zero\n");
  return (t1 - t0) / 1e6;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "ptabench: %s\nusage: ptabench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--commit ID] [--work-dir DIR] "
               "[--results FILE] [--trace-file FILE]\n",
               why);
  return 2;
}

std::string EnvJson(const std::vector<std::pair<std::string, std::string>>& env) {
  std::string out = "{";
  for (size_t i = 0; i < env.size(); ++i) {
    if (i > 0) out += ",";
    out += JsonString(env[i].first) + ":" + JsonString(env[i].second);
  }
  return out + "}";
}

std::string MetricsJson(const Report& report, const MetricDef* defs,
                        size_t count) {
  std::string out = "{";
  for (size_t i = 0; i < count; ++i) {
    const Metric* m = report.Find(defs[i].name);
    if (i > 0) out += ", ";
    out += JsonString(defs[i].name) + ": {\"value\": " +
           JsonNumber(m != nullptr ? m->value : 0.0) +
           ", \"unit\": " + JsonString(defs[i].unit) + "}";
  }
  return out + "}";
}

int Main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  std::string work_dir = ".";
  std::string results_path;
  std::string trace_path;
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const char* value = argv[++i];
    if (arg == "--workload") {
      workload = value;
    } else if (arg == "--seed") {
      seed = std::atoll(value);
    } else if (arg == "--seconds") {
      seconds = std::atof(value);
    } else if (arg == "--trace") {
      trace = std::atoi(value);
    } else if (arg == "--commit") {
      commit = value;
    } else if (arg == "--work-dir") {
      work_dir = value;
    } else if (arg == "--results") {
      results_path = value;
    } else if (arg == "--trace-file") {
      trace_path = value;
    } else {
      return Usage(("unknown flag " + arg).c_str());
    }
  }
  void (*run)(const Context&) = nullptr;
  if (workload == "batch_csv") run = RunBatchCsv;
  if (workload == "serve_update") run = RunServeUpdate;
  if (workload == "stream_feed") run = RunStreamFeed;
  if (run == nullptr) return Usage("unknown --workload");
  if (seed < 0 || seconds <= 0 || (trace != 0 && trace != 1)) {
    return Usage("--seed, --seconds and --trace 0|1 are required");
  }

  const std::vector<std::pair<std::string, std::string>> env = {
      {"workload", workload},
      {"seed", std::to_string(seed)},
      {"seconds", JsonNumber(seconds)},
      {"trace", std::to_string(trace)},
      {"commit", commit},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
  };
  std::printf("env %s\n", EnvJson(env).c_str());
  std::fflush(stdout);

  Tracer tracer(trace == 1);
  Report report;
  Context ctx;
  ctx.seed = static_cast<uint64_t>(seed);
  ctx.seconds = seconds;
  ctx.work_dir = work_dir;
  ctx.tracer = &tracer;
  ctx.report = &report;
  const double calibration_before = CalibrationMs();
  run(ctx);
  report.Note("host_calibration_ms", JsonNumber(calibration_before) + " " +
                                         JsonNumber(CalibrationMs()));

  if (report.Find("peak_rss_mb") == nullptr) {
    report.Set("peak_rss_mb", PeakRssMb(), "MB");
  }
  report.Set("error_ratio",
             report.attempted() == 0
                 ? 1.0
                 : static_cast<double>(report.failed()) / report.attempted(),
             "ratio");
  for (const auto& [key, value] : report.notes()) {
    std::printf("note %s %s\n", key.c_str(), value.c_str());
  }
  for (const Metric& m : report.metrics()) {
    std::printf("metric %s %s %s\n", m.name.c_str(), JsonNumber(m.value).c_str(),
                m.unit.c_str());
  }

  const bool correct = report.correct() && report.attempted() > 0;
  const std::string metrics =
      trace == 1
          ? MetricsJson(report, kPerLayer, sizeof(kPerLayer) / sizeof(kPerLayer[0]))
          : MetricsJson(report, kEndToEnd, sizeof(kEndToEnd) / sizeof(kEndToEnd[0]));
  if (!results_path.empty()) {
    std::string all = "{";
    for (size_t i = 0; i < report.metrics().size(); ++i) {
      const Metric& m = report.metrics()[i];
      if (i > 0) all += ", ";
      all += JsonString(m.name) + ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    }
    all += "}";
    FILE* f = std::fopen(results_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"env\": %s, \"notes\": %s, \"correct\": %s, "
                   "\"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                   EnvJson(env).c_str(), EnvJson(report.notes()).c_str(),
                   correct ? "true" : "false",
                   static_cast<unsigned long long>(report.attempted()),
                   static_cast<unsigned long long>(report.failed()), all.c_str());
      std::fclose(f);
    }
  }
  if (trace == 1 && !trace_path.empty()) {
    if (!tracer.WriteChromeTrace(trace_path, EnvJson(env), 200'000)) {
      std::printf("could not write %s\n", trace_path.c_str());
    } else {
      std::printf("trace written to %s\n", trace_path.c_str());
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
