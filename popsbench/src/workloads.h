// The benchmark workloads and the metrics each run reports.
//
// Every workload prints the same metric names, so any two runs
// compare. An "op" is one verified permutation on the routing
// workloads and one verified demand on serve_zipf; a "call" is the
// blocking API call a user waits on (see README.md).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.h"

namespace popsbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// false: time the untraced path and report the end-to-end metrics.
  /// true: half the time untraced, half traced; report the per-layer
  /// metrics.
  bool trace = false;
  /// Where the traced run writes its spans as CSV ("" = nowhere).
  std::string trace_path;
};

struct RunResult {
  bool correct = true;
  long long attempted = 0;
  long long failed = 0;
  Report report;
  /// Human-readable details (sample counts, fingerprints, server
  /// counters) for standard error.
  std::string summary;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; false when the name is unknown.
bool run_workload(const RunConfig& config, RunResult& result);

}  // namespace popsbench
