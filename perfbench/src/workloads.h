// The three workloads. Each generates its inputs from ctx.seed, measures for
// ctx.seconds, checks its outputs, and fills ctx.report. With ctx.tracer
// enabled it instead records spans around every layer call and reports the
// per-layer metrics (see README.md for the names and what they predict).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "pta/segment.h"
#include "report.h"

namespace perfbench {

void RunBatchCsv(const Context& ctx);
void RunServeUpdate(const Context& ctx);
void RunStreamFeed(const Context& ctx);

/// Order-sensitive digest of a relation's groups, intervals and value bits.
uint64_t DigestRelation(uint64_t h, const pta::SequentialRelation& rel);

/// Seconds since an arbitrary steady origin.
inline double NowS() { return NowNs() / 1e9; }

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
