// perfbench: one InstantDB workload, end to end (--trace 0) or per layer
// (--trace 1). Usually started through perfbench/run.py, which builds it.
//
//   perfbench --workload hot_reads --seed 1 --seconds 10 --trace 0
//             [--data-dir DIR] [--out FILE] [--trace-out FILE] [--git-sha SHA]
//
// The last line of standard output is the result:
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
// The line before it ("info {...}") describes the run. --out also writes
// both, with the metrics of the other kind, to FILE. Exit code 1 when a
// correctness gate failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <string>
#include <thread>

#include "json.h"
#include "workloads.h"

namespace {

using perfbench::JsonNumber;
using perfbench::JsonString;
using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunResult;

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) + ": {\"value\": " + JsonNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  return out + "}";
}

std::string InfoJson(const RunResult& r, const std::string& git_sha) {
  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::string out = "{\"git_sha\": " + JsonString(git_sha);
  out += ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  out += ", \"compiler\": \"" PERFBENCH_COMPILER "\"";
  out += ", \"date\": \"" + std::string(date) + "\"";
  for (const auto& [key, json] : r.info) out += ", \"" + key + "\": " + json;
  out += ", \"errors\": [";
  for (size_t i = 0; i < r.errors.size(); ++i) {
    out += (i > 0 ? ", " : "") + JsonString(r.errors[i]);
  }
  return out + "]}";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--out FILE] [--trace-out FILE] "
               "[--git-sha SHA]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.data_dir = ".bench_build/data";
  std::string out_path;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      config.workload = value;
    } else if (key == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      config.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      config.trace = value == "1";
    } else if (key == "--data-dir") {
      config.data_dir = value;
    } else if (key == "--out") {
      out_path = value;
    } else if (key == "--trace-out") {
      config.trace_path = value;
    } else if (key == "--git-sha") {
      git_sha = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("arguments come in pairs");
  if (config.workload.empty()) return Usage("--workload is required");
  if (config.seconds < 1 || config.seconds > 600) return Usage("--seconds must be 1..600");

  std::error_code ec;
  std::filesystem::create_directories(config.data_dir, ec);
  const RunResult r = perfbench::RunWorkload(config);
  for (const std::string& e : r.errors) std::fprintf(stderr, "perfbench: %s\n", e.c_str());

  const std::string info = InfoJson(r, git_sha);
  const std::string head = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                           ", \"attempted\": " + std::to_string(r.attempted) +
                           ", \"failed\": " + std::to_string(r.failed);
  if (!out_path.empty()) {
    if (std::FILE* f = std::fopen(out_path.c_str(), "w")) {
      std::fprintf(f, "%s, \"info\": %s, \"end_to_end\": %s, \"per_layer\": %s}\n", head.c_str(),
                   info.c_str(), MetricsJson(r.end_to_end).c_str(),
                   MetricsJson(r.per_layer).c_str());
      std::fclose(f);
    }
  }
  std::printf("info %s\n", info.c_str());
  std::printf("%s, \"metrics\": %s}\n", head.c_str(),
              MetricsJson(config.trace ? r.per_layer : r.end_to_end).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
