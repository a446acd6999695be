// serve_update: dashboard traffic against a PtaServer whose dataset is
// swapped while it serves.
//
// The timed runs keep a fixed number of CutAsync requests in flight (a
// closed loop of kDepth clients), more than the server has workers, so a
// worker always finds the next request queued: the figures measure the
// plan, cache lookup, queue and frontier walk, not how long the host takes
// to wake an idle worker (on a VM that wake-up ranged from tens of
// microseconds to a third of a millisecond with the neighbours' load, and
// dominated open-loop medians). The traced runs add an open-loop phase of
// Poisson arrivals at a fixed rate, timed from each request's due time,
// for queueing, generator lateness and backlog. Budgets come from a seeded
// pool: sizes log-uniform between the dataset's cmin and 16k, plus a fixed
// share of relative-error budgets. One generator thread sends, polls
// completions, and swaps the dataset; with the server's two
// workers that leaves one of the four cores for the index build's threads,
// the update copier, and the system.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/ita.h"
#include "datasets/synthetic.h"
#include "pta/index.h"
#include "pta/index_io.h"
#include "pta/query.h"
#include "serve/server.h"
#include "stats.h"
#include "util/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr size_t kTuples = 200'000;
constexpr size_t kGroups = 100;
constexpr size_t kMaxCut = 16'000;
constexpr size_t kWorkers = 2;
constexpr size_t kMaxPending = 1 << 16;
constexpr double kErrorShare = 0.1;
constexpr size_t kPoolSizes = 960;
constexpr size_t kPoolErrors = 64;
// Requests kept in flight by the timed runs' closed loop: four per worker.
constexpr size_t kDepth = 8;
// One dataset swap per kUpdateEvery requests. Latency and throughput are
// medians over the update periods (about a second and a half each, one
// rebuild in each), so a stall of the host moves a few periods, not the
// run's figures.
constexpr size_t kUpdateEvery = 10'000;
// Traced runs' open-loop phase: offered rate (about a third of the
// closed loop's throughput on a 4-vCPU host) and one swap per
// kOpenUpdateEvery requests (two seconds).
constexpr double kOpenRate = 3000;
constexpr size_t kOpenUpdateEvery = 6000;
// Budget-pool picks drawn per phase; a closed loop that sends more reuses
// them from the start.
constexpr size_t kPicks = 1 << 20;
// Every kSampleEvery-th request is checked bitwise.
constexpr size_t kSampleEvery = 16;
// Set-up is timed kSetupRepeats times after one dropped warm-up repeat,
// whose allocations meet fresh pages.
constexpr int kSetupRepeats = 9;
// Unloaded probes of the traced run.
constexpr size_t kProbeCuts = 2000;
constexpr size_t kProbePlans = 200;

pta::ServeOptions ServerOptions(size_t threads) {
  pta::ServeOptions options;
  options.num_threads = threads;
  options.max_pending = kMaxPending;
  return options;
}

pta::ItaSpec ServeSpec() {
  pta::ItaSpec spec;
  spec.group_by = {"G"};
  spec.aggregates = {pta::Avg("A1", "avg_a1"), pta::Avg("A2", "avg_a2")};
  return spec;
}

pta::TemporalRelation ServeRelation(uint64_t seed) {
  pta::SyntheticOptions options;
  options.num_tuples = kTuples;
  options.num_dims = 2;
  options.num_groups = kGroups;
  options.max_duration = 20;
  options.time_span = 1750;
  options.seed = seed;
  return pta::GenerateSyntheticRelation(options);
}

uint64_t DigestAnswer(const pta::SequentialRelation& rel, double error) {
  uint64_t bits;
  std::memcpy(&bits, &error, sizeof(bits));
  return DigestRelation(MixDigest(0, bits), rel);
}

// One dataset version with an index built independently of the server,
// and what building it took.
struct Generation {
  pta::PtaIndex index;
  std::vector<uint64_t> answers;  // digest per budget-pool entry
  double ita_s = 0.0;
  double build_s = 0.0;
  size_t ita_rows = 0;
  size_t merges = 0;
};

Generation BuildGeneration(const Context& ctx, const pta::TemporalRelation& rel,
                           uint64_t id) {
  Tracer& tracer = *ctx.tracer;
  Generation gen;
  double t0 = NowS();
  pta::Result<pta::SequentialRelation> ita = [&] {
    ScopedSpan span(tracer, "core.ita", id);
    return pta::Ita(rel, ServeSpec());
  }();
  gen.ita_s = NowS() - t0;
  if (!ctx.report->Check(ita.ok(), "Ita: " + ita.status().ToString())) return gen;
  gen.ita_rows = ita->size();
  pta::PtaIndexBuildStats stats;
  t0 = NowS();
  pta::Result<pta::PtaIndex> index = [&] {
    ScopedSpan span(tracer, "pta.index_build", id);
    return pta::PtaIndex::Build(std::move(*ita), {}, &stats);
  }();
  gen.build_s = NowS() - t0;
  if (!ctx.report->Check(index.ok(), "PtaIndex::Build: " + index.status().ToString())) {
    return gen;
  }
  gen.merges = stats.merges;
  gen.index = std::move(*index);
  return gen;
}

// The budget mix: sizes log-uniform in [cmin, 16k], errors log-uniform over
// the relative errors those sizes give on the first generation. Stratified
// (one draw per equal slice of the log range), so every seed's pool has
// nearly the same distribution. Empty if the first index cannot say.
std::vector<pta::Budget> MakeBudgetPool(const std::vector<const Generation*>& gens,
                                        uint64_t seed) {
  size_t lo = 1;
  size_t hi = kMaxCut;
  for (const Generation* g : gens) {
    lo = std::max(lo, g->index.cmin());
    hi = std::min(hi, g->index.input_size());
  }
  const pta::PtaIndex& index = gens.front()->index;
  const double emax = index.max_error();
  const pta::Result<double> err_hi = index.ErrorForSize(hi);
  const pta::Result<double> err_lo = index.ErrorForSize(std::max(lo, hi / 16));
  if (!err_hi.ok() || !err_lo.ok() || emax <= 0) return {};
  const double eps_lo = *err_hi / emax;
  const double eps_hi = *err_lo / emax;
  pta::Random rng(seed ^ 0x5eedb0d6e7ULL);
  std::vector<pta::Budget> pool;
  auto stratum = [&](size_t i, size_t n, double a, double b) {
    const double u = (static_cast<double>(i) + rng.NextDouble()) / n;
    return std::exp(std::log(a) + u * (std::log(b) - std::log(a)));
  };
  for (size_t i = 0; i < kPoolSizes; ++i) {
    const double x = stratum(i, kPoolSizes, double(lo), double(hi));
    pool.push_back(pta::Budget::Size(
        std::clamp<size_t>(static_cast<size_t>(std::llround(x)), lo, hi)));
  }
  for (size_t i = 0; i < kPoolErrors; ++i) {
    pool.push_back(
        pta::Budget::RelativeError(stratum(i, kPoolErrors, eps_lo, eps_hi)));
  }
  return pool;
}

pta::Result<pta::Reduction> CutIndex(const pta::PtaIndex& index,
                                     const pta::Budget& budget) {
  return budget.is_size() ? index.CutToSize(budget.size())
                          : index.CutToError(budget.relative_error());
}

void FillAnswers(const Context& ctx, const std::vector<pta::Budget>& pool,
                 Generation* gen) {
  for (const pta::Budget& budget : pool) {
    pta::Result<pta::Reduction> cut = CutIndex(gen->index, budget);
    if (!ctx.report->Check(cut.ok(), "reference cut: " + cut.status().ToString())) {
      gen->answers.push_back(0);
      continue;
    }
    gen->answers.push_back(DigestAnswer(cut->relation, cut->error));
  }
}

// Per request, an index into the pool: kErrorShare of them error budgets.
std::vector<uint16_t> DrawRequests(size_t n, uint64_t seed) {
  pta::Random rng(seed);
  std::vector<uint16_t> out(n);
  for (uint16_t& r : out) {
    r = rng.Bernoulli(kErrorShare)
            ? static_cast<uint16_t>(kPoolSizes + rng.UniformInt(0, kPoolErrors - 1))
            : static_cast<uint16_t>(rng.UniformInt(0, kPoolSizes - 1));
  }
  return out;
}

std::vector<double> PoissonSchedule(double rate, double duration_s,
                                    uint64_t seed) {
  pta::Random rng(seed);
  std::vector<double> due;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= duration_s) return due;
    due.push_back(t);
  }
}

// What the served side of a run holds.
struct Served {
  pta::PtaServer* server = nullptr;
  pta::PtaSession session;
  std::string dataset;
  std::vector<pta::Budget> pool;
  // References by generation parity: generation g serves gens[g % 2].
  std::vector<const Generation*> gens;
  // serve_update: the two relations the dataset alternates between, and
  // a copy of the next one, made in the background after each update.
  const pta::TemporalRelation* rel[2] = {nullptr, nullptr};
  std::future<pta::TemporalRelation> next_copy;
  size_t generation = 0;
};

struct PhaseResult {
  std::vector<RequestTimes> times;
  OpenLoopSummary summary;
  std::vector<double> update_s;
  std::vector<double> rebuild_s;
  size_t checked = 0;
  size_t mismatched = 0;
  size_t shed = 0;
  size_t errors = 0;
};

std::future<pta::TemporalRelation> CopyAsync(const pta::TemporalRelation& rel) {
  return std::async(std::launch::async, [&rel] { return rel; });
}

// How a phase sends: open loop (Poisson arrivals at `rate`, each timed from
// its due time) or closed loop (`depth` requests kept in flight, each timed
// from when it was sent).
struct Load {
  double rate = 0.0;
  size_t depth = 0;
};

// One phase of `duration_s` seconds; with `update_every` > 0, the dataset
// is swapped before every update_every-th request.
PhaseResult RunPhase(const Context& ctx, Served& served, const Load& load,
                     double duration_s, uint64_t seed, size_t update_every) {
  Tracer& tracer = *ctx.tracer;
  PhaseResult out;
  const bool closed = load.depth > 0;
  const std::vector<double> due =
      closed ? std::vector<double>() : PoissonSchedule(load.rate, duration_s, seed);
  const std::vector<uint16_t> picks =
      DrawRequests(closed ? kPicks : due.size(), seed + 1);
  out.times.reserve(closed ? kPicks : due.size());

  struct InFlight {
    size_t i;
    size_t gen;
    bool check;
    std::future<pta::Result<pta::PtaResult>> future;
  };
  std::vector<InFlight> inflight;
  inflight.reserve(4096);
  size_t next_update = 0;
  bool window_open = false;  // an update returned; its rebuild not yet seen
  double update_returned = 0.0;

  const int64_t origin_ns = NowNs() + 1'000'000;
  const double origin = origin_ns / 1e9;
  const double hard_stop = origin + duration_s + 20.0;
  size_t next = 0;
  while (true) {
    const double now = NowS() - origin;
    const bool more = closed ? now < duration_s : next < due.size();
    if (!more && inflight.empty()) break;
    if (more && (closed ? inflight.size() < load.depth && now >= 0
                        : due[next] <= now)) {
      if (update_every > 0 && next > 0 && next % update_every == 0 &&
          next_update < next / update_every) {
        pta::TemporalRelation data = served.next_copy.get();
        const double u0 = NowS();
        pta::Status status;
        {
          ScopedSpan span(tracer, "serve.update", next);
          status = served.server->UpdateDataset(served.dataset, std::move(data));
        }
        const double u1 = NowS();
        ++next_update;
        // The update after this one restores the relation just replaced.
        served.next_copy = CopyAsync(*served.rel[served.generation % 2]);
        if (!ctx.report->Check(status.ok(), "UpdateDataset: " + status.ToString())) {
          ++out.errors;
        } else {
          ++served.generation;
          out.update_s.push_back(u1 - u0);
          window_open = true;
          update_returned = u1 - origin;
        }
        continue;
      }
      const size_t i = next++;
      const uint16_t pick = picks[i % picks.size()];
      out.times.emplace_back();
      RequestTimes& r = out.times.back();
      r.sent = NowS() - origin;
      r.due = closed ? r.sent : due[i];
      auto future = served.session.CutAsync(served.pool[pick]);
      if (!future.ok()) {
        ++(future.status().code() == pta::StatusCode::kResourceExhausted
               ? out.shed
               : out.errors);
        continue;
      }
      inflight.push_back({i, served.generation,
                          window_open || i % kSampleEvery == 0,
                          std::move(*future)});
      continue;
    }
    for (size_t k = 0; k < inflight.size();) {
      InFlight& f = inflight[k];
      if (f.future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      const double done = NowS() - origin;
      pta::Result<pta::PtaResult> result = f.future.get();
      RequestTimes& r = out.times[f.i];
      r.done = done;
      r.ok = result.ok();
      if (!result.ok()) {
        ++out.errors;
      } else if (f.check) {
        ++out.checked;
        const uint64_t digest = DigestAnswer(result->relation, result->error);
        // A request sent under generation g runs on g, or on a later one if
        // an update got in before a worker picked it up.
        bool match = false;
        for (size_t g = f.gen; g <= served.generation && !match; ++g) {
          match = digest == served.gens[g % 2]->answers[picks[f.i % picks.size()]];
        }
        if (!match) {
          ++out.mismatched;
          r.ok = false;
        }
      }
      if (window_open && f.gen == served.generation) {
        out.rebuild_s.push_back(done - update_returned);
        window_open = false;
      }
      tracer.Record("serve.request", origin_ns + static_cast<int64_t>(r.due * 1e9),
                    origin_ns + static_cast<int64_t>(done * 1e9), -1, f.i);
      inflight[k] = std::move(inflight.back());
      inflight.pop_back();
    }
    if (NowS() > hard_stop) {
      ctx.report->CheckFailed(std::to_string(inflight.size()) +
                              " requests still pending after the drain limit");
      out.errors += inflight.size();
      for (InFlight& f : inflight) f.future.wait();
      inflight.clear();
      break;
    }
  }
  out.summary = SummarizeOpenLoop(out.times, duration_s);
  return out;
}

// Counts a phase's requests in the report and fails it on any problem.
void Account(const Context& ctx, const PhaseResult& phase, const char* what) {
  Report& report = *ctx.report;
  report.Attempt(phase.times.size());
  report.Fail(phase.summary.failed);
  report.Check(phase.mismatched == 0,
               std::string(what) + ": " + std::to_string(phase.mismatched) +
                   " served cuts differ from the reference index");
  report.Check(phase.shed == 0, std::string(what) + ": " +
                                    std::to_string(phase.shed) + " requests shed");
  report.Check(phase.errors == 0, std::string(what) + ": " +
                                      std::to_string(phase.errors) + " requests failed");
  if (phase.summary.backlog_growing) {
    std::printf("%s: backlog grew during the phase (outstanding %zu %zu %zu %zu)\n",
                what, phase.summary.outstanding[0], phase.summary.outstanding[1],
                phase.summary.outstanding[2], phase.summary.outstanding[3]);
  }
  std::printf("%s: %zu requests, %zu checked, p50 %.4f ms, p%.4g %.4f ms, "
              "late p%.4g %.4f ms\n",
              what, phase.times.size(), phase.checked, phase.summary.p50_ms,
              phase.summary.latency_ms.pct, phase.summary.latency_ms.value,
              phase.summary.late_ms.pct, phase.summary.late_ms.value);
}

// Unloaded per-layer probes of the traced run: plan, the index cut, and the
// synchronous session cut on the same budget sequence.
void ProbeLayers(const Context& ctx, Served& served, const Generation& gen,
                 double* serve_cut_p50_s) {
  Tracer& tracer = *ctx.tracer;
  Report& report = *ctx.report;
  const std::vector<uint16_t> picks = DrawRequests(kProbeCuts, ctx.seed + 77);

  for (size_t i = 0; i < kProbePlans; ++i) {
    ScopedSpan span(tracer, "pta.plan", i);
    pta::Result<pta::PtaPlan> plan =
        pta::PtaQuery::OverSequential(gen.index.input())
            .Budget(served.pool[picks[i]])
            .Engine(pta::Engine::kIndexed)
            .Plan();
    report.Check(plan.ok(), "Plan: " + plan.status().ToString());
  }
  // Per budget: the index cut, and the session cut twice, traced and
  // untraced, for the tracing overhead.
  double rows = 0.0;
  double traced = 0.0;
  double untraced = 0.0;
  for (size_t i = 0; i < kProbeCuts; ++i) {
    const pta::Budget& budget = served.pool[picks[i]];
    // The three calls rotate, so none always runs on a warmer cache.
    for (size_t pass = 0; pass < 3; ++pass) {
      const size_t call = (i + pass) % 3;
      if (call == 0) {
        ScopedSpan span(tracer, "pta.cut", i);
        pta::Result<pta::Reduction> cut = CutIndex(gen.index, budget);
        if (report.Check(cut.ok(), "index cut: " + cut.status().ToString())) {
          rows += cut->relation.size();
        }
        continue;
      }
      const bool trace_this = call == 1;
      tracer.set_enabled(trace_this);
      const double t0 = NowS();
      {
        ScopedSpan span(tracer, "serve.cut", i);
        pta::Result<pta::PtaResult> cut = served.session.Cut(budget);
        report.Check(cut.ok(), "session cut: " + cut.status().ToString());
      }
      (trace_this ? traced : untraced) += NowS() - t0;
      tracer.set_enabled(true);
    }
  }

  const SelfTimes self = SelfTimeByRequest(tracer.spans());
  const double cut_s = MedianSelf(self, "pta.cut");
  *serve_cut_p50_s = MedianSelf(self, "serve.cut");
  report.Set("pta.plan_s", MedianSelf(self, "pta.plan"), "s");
  report.Set("pta.cut_s", cut_s, "s");
  report.Set("pta.cut_rows", rows / kProbeCuts, "count");
  report.Set("serve.cut_s", *serve_cut_p50_s, "s");
  report.Set("serve.overhead_s", *serve_cut_p50_s - cut_s, "s");
  report.Set("trace.overhead_ratio", traced / untraced, "ratio");
}

// Per-layer numbers of a loaded phase: queueing, cache and server deltas.
void ReportLoaded(const Context& ctx, const PhaseResult& phase,
                  double serve_cut_p50_s, const pta::PtaIndexCacheStats& c0,
                  const pta::PtaIndexCacheStats& c1, const pta::PtaServerStats& s0,
                  const pta::PtaServerStats& s1) {
  Report& report = *ctx.report;
  report.Set("serve.queue_wait_ms", phase.summary.p50_ms - serve_cut_p50_s * 1e3,
             "ms");
  report.Set("loadgen.late_p99_ms", phase.summary.late_ms.value, "ms");
  report.Set("loadgen.backlog_growing", phase.summary.backlog_growing ? 1 : 0,
             "count");
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double misses = static_cast<double>(c1.misses - c0.misses);
  report.Set("pta.cache_hits", hits, "count");
  report.Set("pta.cache_misses", misses, "count");
  report.Set("pta.cache_builds", static_cast<double>(c1.builds - c0.builds), "count");
  report.Set("pta.cache_coalesced", static_cast<double>(c1.coalesced - c0.coalesced),
             "count");
  report.Set("pta.cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0,
             "ratio");
  report.Set("serve.admitted", static_cast<double>(s1.admitted - s0.admitted), "count");
  report.Set("serve.shed", static_cast<double>(s1.shed - s0.shed), "count");
  report.Set("serve.failed", static_cast<double>(s1.failed - s0.failed), "count");
}

void NoteDigest(const Context& ctx, const std::vector<const Generation*>& gens) {
  uint64_t digest = 0;
  for (const Generation* g : gens) {
    for (uint64_t a : g->answers) digest = MixDigest(digest, a);
  }
  ctx.report->Note("output_digest", Hex(digest));
}

// The index file round trip of a warm start: SaveIndex once, then LoadIndex
// kSetupRepeats times; the loaded index must cut as the original does.
void ProbeIndexIo(const Context& ctx, const Served& served, const Generation& gen) {
  Tracer& tracer = *ctx.tracer;
  Report& report = *ctx.report;
  const std::string path =
      ctx.work_dir + "/update-" + std::to_string(ctx.seed) + ".ptaidx";
  const pta::Status saved = pta::SaveIndex(gen.index, path);
  if (!report.Check(saved.ok(), "SaveIndex: " + saved.ToString())) return;
  for (int i = 0; i < kSetupRepeats; ++i) {
    pta::Result<pta::PtaIndex> loaded = [&] {
      ScopedSpan span(tracer, "pta.index_load", i);
      return pta::LoadIndex(path);
    }();
    if (!report.Check(loaded.ok(), "LoadIndex: " + loaded.status().ToString())) break;
    pta::Result<pta::Reduction> cut = CutIndex(*loaded, served.pool.front());
    report.Check(cut.ok() && DigestAnswer(cut->relation, cut->error) ==
                                 gen.answers.front(),
                 "a cut of the loaded index differs from the original's");
  }
  report.Set("pta.index_load_s",
             MedianSelf(SelfTimeByRequest(tracer.spans()), "pta.index_load"), "s");
  FILE* f = std::fopen(path.c_str(), "rb");
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    report.Set("pta.index_bytes", static_cast<double>(std::ftell(f)), "bytes");
    std::fclose(f);
  }
  std::remove(path.c_str());
}

}  // namespace

void RunServeUpdate(const Context& ctx) {
  Report& report = *ctx.report;
  Tracer& tracer = *ctx.tracer;
  const bool traced = tracer.enabled();
  pta::PtaIndexCacheClear();

  // Two relations of the same shape; references built independently.
  const pta::TemporalRelation rel_a = ServeRelation(ctx.seed);
  const pta::TemporalRelation rel_b = ServeRelation(ctx.seed + 1'000'003);
  Generation gen_a = BuildGeneration(ctx, rel_a, 0);
  Generation gen_b = BuildGeneration(ctx, rel_b, 1);
  tracer.set_enabled(false);
  Served served;
  served.dataset = "live";
  served.gens = {&gen_a, &gen_b};
  served.pool = MakeBudgetPool({&gen_a, &gen_b}, ctx.seed);
  if (!report.Check(!served.pool.empty(), "no budget mix for the dataset")) return;
  FillAnswers(ctx, served.pool, &gen_a);
  FillAnswers(ctx, served.pool, &gen_b);
  NoteDigest(ctx, {&gen_a, &gen_b});
  std::printf("serve_update: %zu / %zu leaves, budget pool %zu\n",
              gen_a.index.input_size(), gen_b.index.input_size(),
              served.pool.size());

  // Set-up: register cold and serve the first cut, several times.
  std::unique_ptr<pta::PtaServer> server;
  std::vector<double> setup_s;
  for (int i = 0; i <= kSetupRepeats; ++i) {
    server.reset();
    pta::PtaIndexCacheClear();
    server = std::make_unique<pta::PtaServer>(ServerOptions(kWorkers));
    pta::TemporalRelation copy = rel_a;
    const double t0 = NowS();
    pta::Status status = server->AddDataset("live", std::move(copy));
    pta::Result<pta::PtaSession> session =
        status.ok() ? server->OpenSession("live", ServeSpec())
                    : pta::Result<pta::PtaSession>(status);
    pta::Result<pta::PtaResult> first =
        session.ok() ? session->Cut(served.pool.front())
                     : pta::Result<pta::PtaResult>(session.status());
    if (i > 0) setup_s.push_back(NowS() - t0);
    if (!report.Check(first.ok(), "cold start: " + first.status().ToString())) return;
    report.Check(DigestAnswer(first->relation, first->error) == gen_a.answers.front(),
                 "first cold cut differs from the reference");
    served.session = *session;
  }
  served.server = server.get();
  report.Set("setup_s", Median(setup_s), "s");

  const double phase_s = traced ? ctx.seconds * 0.5 : ctx.seconds;
  served.rel[0] = &rel_a;
  served.rel[1] = &rel_b;
  served.next_copy = CopyAsync(rel_b);
  double serve_cut_p50_s = 0.0;
  if (traced) {
    tracer.set_enabled(true);
    ProbeLayers(ctx, served, gen_a, &serve_cut_p50_s);
    ProbeIndexIo(ctx, served, gen_a);
  }
  const auto c0 = pta::PtaIndexCacheGetStats();
  const auto s0 = server->stats();
  // Timed runs: the closed loop; traced runs: the open-loop phase.
  const Load load = traced ? Load{kOpenRate, 0} : Load{0.0, kDepth};
  const size_t update_every = traced ? kOpenUpdateEvery : kUpdateEvery;
  PhaseResult phase =
      RunPhase(ctx, served, load, phase_s, ctx.seed * 31 + 1, update_every);
  const auto c1 = pta::PtaIndexCacheGetStats();
  Account(ctx, phase, "updates");
  report.Check(c1.builds - c0.builds == phase.update_s.size(),
               "expected one index build per update, got " +
                   std::to_string(c1.builds - c0.builds) + " for " +
                   std::to_string(phase.update_s.size()) + " updates");
  report.Check(phase.rebuild_s.size() == phase.update_s.size(),
               "an update saw no cut of its generation");
  report.Note("updates", std::to_string(phase.update_s.size()));
  const double rebuild = Median(phase.rebuild_s);

  if (!traced) {
    const BlockLatency periods = MedianOfBlocks(phase.times, kUpdateEvery);
    report.Set("throughput_per_s", periods.per_s, "1/s");
    report.Set("p50_ms", periods.p50_ms, "ms");
    report.Set("p99_ms", periods.p99_ms, "ms");
    report.Set("cut_qps", periods.per_s, "1/s");
    report.Set("cut_p50_ms", periods.p50_ms, "ms");
    report.Set("cut_p99_ms", periods.p99_ms, "ms");
    report.Set("rebuild_s", rebuild, "s");
    report.Note("blocks", std::to_string(periods.blocks));
    report.Note("cut_samples", std::to_string(phase.summary.latency_ms.samples));
  } else {
    ReportLoaded(ctx, phase, serve_cut_p50_s, c0, c1, s0, server->stats());
    report.Set("core.ita_s", (gen_a.ita_s + gen_b.ita_s) / 2, "s");
    report.Set("core.ita_rows", static_cast<double>(gen_a.ita_rows), "count");
    report.Set("pta.index_build_s", (gen_a.build_s + gen_b.build_s) / 2, "s");
    report.Set("pta.index_merges", static_cast<double>(gen_a.merges), "count");
    report.Set("serve.update_s", Median(phase.update_s), "s");
    report.Set("serve.rebuild_s", rebuild, "s");
  }
  server.reset();
}

}  // namespace perfbench
