// The workloads. Each fills a RunResult with its end-to-end
// metrics (trace off) or its per-layer metrics (trace on).
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "common.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string xsqd;      // path to the xsqd binary
  std::string router;    // path to the xsq_router binary
  std::string work_dir;  // daemon logs, traces and reports go here
};

// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 5;

void RunStream(const Options& options, Tracer* tracer, RunResult* result);

// Where the serving workloads' requests go.
enum class ServeMode {
  kInProcess,   // serve-inproc: xsqd's connection handler, in process
  kSingleNode,  // serve-mixed: one xsqd
  kCluster,     // cluster-rf2: xsq_router, replication factor 2, two xsqd
};
void RunServe(const Options& options, ServeMode mode, Tracer* tracer,
              RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
