// The benchmark's four workloads. Each builds its inputs from the seed,
// times set-up separately from steps, measures for the requested duration
// in whole units (runs, grid passes or rounds), checks the program's outputs
// and returns either the end-to-end metrics (untraced) or the per-layer
// metrics of a separate traced measurement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "checks.h"

namespace perfbench {

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for snapshots and the traced run's span file.
  std::string out_dir = ".";
};

struct Report {
  std::vector<Metric> metrics;
  /// Steps (rounds on scale_1m) plus one per whole-run check.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Check> checks;
  /// Free-form lines printed before the result (host noise, trace path).
  std::vector<std::string> notes;
};

const std::vector<std::string>& workload_names();

/// Runs one workload; throws std::invalid_argument for an unknown name.
Report run_workload(const Options& options);

}  // namespace perfbench
