// Shared pieces of the repository benchmark: the result record every
// workload fills, raw-sample statistics, wall-clock helpers, and the fixed
// inputs (traces, the deterministic evaluation/serving model) that several
// workloads build during set-up.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "rl/actor_critic.hpp"
#include "workload/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one run prints as its last line. `failed` counts attempted
/// operations that did not succeed. A failed correctness check is also one
/// of them, and besides it leaves its reason in `problems`, which makes the
/// run incorrect: printed on stderr, `"correct": false`, exit code 1.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::map<std::string, Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Counts `n` attempted operations, `failed_n` of which did not succeed
  /// without giving a wrong answer (e.g. a shed or lost serve reply).
  void count(std::uint64_t n, std::uint64_t failed_n) {
    attempted += n;
    failed += failed_n;
  }
  /// Marks `n` already counted operations as wrong.
  void wrong(std::uint64_t n, const std::string& why) {
    failed += n;
    problems.push_back(why);
  }
  /// Records one checked operation; a false `ok` is a wrong one.
  void check(bool ok, const std::string& why) {
    count(1, 0);
    if (!ok) wrong(1, why);
  }
  bool correct() const { return problems.empty(); }
  /// The end-to-end `ok_ratio`: the share of attempted operations that
  /// did not fail. Reported instead of the failure ratio, which is 0 on
  /// every clean run and so gives no median to bound a change against.
  void set_ok_ratio() {
    set("ok_ratio",
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
        "ratio");
  }
};

/// A metric of BENCHMARK.json. Every run prints every metric of its mode:
/// the end-to-end metrics with --trace 0, the per-layer ones with
/// --trace 1. `workloads` lists the workloads that measure the metric; on
/// the others the layer does no work and the metric reads 0. An empty list
/// means every workload measures it.
struct MetricSpec {
  const char* name;
  const char* unit;
  std::vector<std::string> workloads;
};
const std::vector<MetricSpec>& end_to_end_metrics();
const std::vector<MetricSpec>& per_layer_metrics();

/// Checks `result` against the metrics of its mode: each metric the
/// workload measures is present in its unit, no other metric is set, and
/// the metrics of layers the workload does not pass through read 0.
void complete_metrics(const Options& options, Result& result);

double seconds_since(Clock::time_point start);
double median(std::vector<double> values);

/// A quantile read off raw samples by nearest rank (no interpolation), and
/// how many samples lie strictly beyond it.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
  /// The quantile is reportable only with at least ten samples beyond it.
  bool supported() const { return beyond >= 10; }
};
Quantile quantile(std::vector<double> samples, double q);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Times a workload's set-up at several points of one run. `setup_s` is
/// the median of all samples, so one slow page-in does not move it, and a
/// run samples both before and after its timed region, so it does not hang
/// on the state of a shared host during one brief moment.
class SetupTimer {
 public:
  /// `teardown` frees or stops the previous set-up before each sample,
  /// outside the clock.
  SetupTimer(std::function<void()> setup, std::function<void()> teardown)
      : setup_(std::move(setup)), teardown_(std::move(teardown)) {}
  /// Tears down and sets up `n` times, timing each set-up.
  void sample(int n);
  double median_s() const { return median(samples_); }

 private:
  std::function<void()> setup_;
  std::function<void()> teardown_;
  std::vector<double> samples_;
};

/// A Table-2 trace ("CTC-SP2", "SDSC-SP2", "HPC2N", "Lublin"). The traces
/// stand for the paper's fixed workload logs, so they are synthesized from
/// one fixed seed; the run seed draws the windows, trajectories and
/// requests. 8000 jobs leave enough in the 80% test split for 1024-job
/// windows.
si::Trace bench_trace(const std::string& name);

/// Wall time per row of Mlp::forward_batch at `batch` rows, averaged over
/// repeated calls on fixed rows.
double forward_us_per_row(const si::Mlp& net, int batch);

/// The fixed 32-16-8 inspector used by `eval` and `serve`. Built the same
/// way on every run, independent of the workload seed: seeded weights, then
/// an output bias placed at the 95th percentile of its logits over a fixed
/// set of uniform rows in [0, 1]^8, so greedy decisions reject a small
/// nonzero share of real inspections and the reject-and-retry path runs.
si::ActorCritic fixed_model();

/// Writes the host line (cores, ISA, compiler, build flags) to stdout.
void print_host();

Result run_train(const Options& options);
Result run_train_dist(const Options& options);
Result run_eval(const Options& options);
Result run_serve(const Options& options);

}  // namespace perfbench
