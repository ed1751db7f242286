#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Directory the run's databases live in (created, removed at the end).
  std::string data_dir;
  /// Where a traced run writes its spans (CSV); empty = not written.
  std::string trace_path;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Run description (offered rates, row counts, flush policy...) and
  /// diagnostic counters recorded on every run, as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> info;
  /// Why `correct` is false, one line each.
  std::vector<std::string> errors;
};

/// Sets up and runs one workload. Unknown names are reported as errors.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
