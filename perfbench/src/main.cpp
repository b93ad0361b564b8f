// perfbench: the repository benchmark. One invocation runs one workload
// for one seed and prints, as its last stdout line, a JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A failed
// correctness check makes the process exit 1 after printing.
//
//   perfbench --workload <train|train_dist|eval|serve> --seed <n>
//             --seconds <s> --trace <0|1>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"
#include "obs/json.hpp"

namespace {

using perfbench::Options;
using perfbench::Result;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<train|train_dist|eval|serve> --seed <n> --seconds <s> "
               "--trace <0|1>\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(options.seconds >= 1.0))
        usage("--seconds takes a number >= 1");
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      options.trace = value[0] == '1';
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.workload.empty()) usage("--workload is required");
  return options;
}

std::string result_json(const Result& result) {
  si::JsonObject metrics;
  for (const auto& [name, metric] : result.metrics)
    metrics.raw(name, si::JsonObject()
                          .field("value", metric.value)
                          .field("unit", metric.unit)
                          .str());
  return si::JsonObject()
      .field("correct", result.correct())
      .field("attempted", result.attempted)
      .field("failed", result.failed)
      .raw("metrics", metrics.str())
      .str();
}

}  // namespace

int main(int argc, char** argv) {
  const Options options = parse(argc, argv);
  Result (*run)(const Options&) = nullptr;
  if (options.workload == "train") run = perfbench::run_train;
  if (options.workload == "train_dist") run = perfbench::run_train_dist;
  if (options.workload == "eval") run = perfbench::run_eval;
  if (options.workload == "serve") run = perfbench::run_serve;
  if (run == nullptr) usage(("unknown workload " + options.workload).c_str());

  perfbench::print_host();
  Result result;
  try {
    result = run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n",
                 options.workload.c_str(), e.what());
    return 1;
  }
  perfbench::complete_metrics(options, result);
  for (const auto& [name, metric] : result.metrics)
    if (!std::isfinite(metric.value))
      result.problems.push_back(name + " is not a finite number");
  for (const std::string& problem : result.problems)
    std::fprintf(stderr, "perfbench: check failed: %s\n", problem.c_str());
  std::fflush(stderr);
  std::printf("%s\n", result_json(result).c_str());
  return result.correct() ? 0 : 1;
}
