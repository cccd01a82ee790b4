// Benchmark harness entry point. Runs one workload and prints, as its last
// line, one JSON object: {"correct", "attempted", "failed", "metrics"}.
//
//   perfbench_harness --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                     [--out_dir <dir>]
//
// Lines before the result start with '#': host noise, the span file of a
// traced run, and one line per correctness check.
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& error) {
  std::cerr << "perfbench_harness: " << error << "\n"
            << "usage: perfbench_harness --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--out_dir <dir>]\nworkloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << ' ' << name;
  std::cerr << "\n";
  return 2;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return usage("bad --seed " + value);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0.0)) {
        return usage("bad --seconds " + value);
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace " + value);
      options.trace = value == "1";
    } else if (flag == "--out_dir") {
      options.out_dir = value;
    } else {
      return usage("unknown flag " + flag);
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::Report report;
  try {
    report = perfbench::run_workload(options);
  } catch (const std::exception& error) {
    std::cerr << "perfbench_harness: " << options.workload << ": " << error.what()
              << "\n";
    return 1;
  }
  for (const auto& note : report.notes) std::cout << "# " << note << "\n";
  for (const auto& check : report.checks) {
    std::cout << "# check " << (check.ok ? "ok   " : "FAIL ") << check.name << ": "
              << check.detail << "\n";
  }
  std::ostringstream json;
  json.precision(17);
  json << "{\"correct\": " << (report.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
       << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& metric = report.metrics[i];
    const double value = std::isfinite(metric.value) ? metric.value : 0.0;
    json << (i == 0 ? "" : ", ") << json_string(metric.name) << ": {\"value\": "
         << value << ", \"unit\": " << json_string(metric.unit) << "}";
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return 0;
}
