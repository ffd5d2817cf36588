#ifndef ZEROTUNE_PERFBENCH_WORKLOADS_H_
#define ZEROTUNE_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/model.h"
#include "setup.h"
#include "stats.h"

namespace perfbench {

/// What one workload run hands back to main(): metrics plus the
/// operation counts and correctness verdict of the result line.
struct WorkloadOutput {
  MetricTable metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Failed correctness checks; empty means correct.
  std::vector<std::string> problems;
  /// Figures that must repeat exactly for the same seed and program
  /// (failure counts, regret, chosen plans); the runner compares them
  /// across runs.
  std::map<std::string, std::string> repeat;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;
};

struct RunConfig {
  uint64_t seed = 0;
  double seconds = 10.0;
  bool traced = false;
};

/// Closed-loop tuning: one client tunes a seeded query stream, one
/// operation at a time, in a forked worker process that is replaced when
/// an operation overruns its time limit.
WorkloadOutput RunTuneWorkload(const SetupResult& setup, const RunConfig& run,
                               bool prescreen);

/// Serving: single-plan predictions into a pooled prediction fleet,
/// closed-loop in untraced runs and at fixed arrival rates in traced runs.
WorkloadOutput RunServeWorkload(const SetupResult& setup,
                                const RunConfig& run);

/// Adds the set-up figures every workload reports.
void AddSetupMetrics(const SetupResult& setup, bool traced,
                     double extra_setup_ms, WorkloadOutput* out);

}  // namespace perfbench

#endif  // ZEROTUNE_PERFBENCH_WORKLOADS_H_
