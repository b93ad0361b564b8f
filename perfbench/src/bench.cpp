#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "common/rng.hpp"
#include "workload/registry.hpp"

namespace perfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", {}},
      {"jobs_per_s", "jobs/s", {}},
      {"lat_p50_us", "us", {}},
      {"peak_rss_mb", "MB", {}},
      {"ok_ratio", "ratio", {}},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  const std::vector<std::string> train = {"train"};
  const std::vector<std::string> trainings = {"train", "train_dist"};
  const std::vector<std::string> dist = {"train_dist"};
  const std::vector<std::string> eval = {"eval"};
  const std::vector<std::string> serve = {"serve"};
  static const std::vector<MetricSpec> specs = {
      {"rl.update_ms", "ms", trainings},
      {"rl.update_steps", "count", train},
      {"rl.policy_iters", "count", train},
      {"rl.update_ns_per_step_iter", "ns", train},
      {"core.collect_ms", "ms", trainings},
      {"core.loop_ms", "ms", trainings},
      {"core.bsld_pct_of_base", "%", {"train", "train_dist", "eval"}},
      {"sim.base_us_per_job.w256", "us", eval},
      {"sim.base_us_per_job.w1024", "us", eval},
      {"sim.inspections_per_job", "count", eval},
      {"sim.reject_share", "ratio", eval},
      {"core.inspect_us_per_decision", "us", eval},
      {"core.forward_us_per_row", "us", {"eval", "serve"}},
      {"core.rows_per_forward", "count", eval},
      {"dist.spawn_ms", "ms", dist},
      {"dist.bytes_per_epoch", "bytes", dist},
      {"dist.frames_per_epoch", "count", dist},
      {"dist.broadcast_ms", "ms", dist},
      {"dist.gather_ms", "ms", dist},
      {"dist.reduce_ms", "ms", dist},
      {"dist.epoch_retries", "count", dist},
      {"serve.slo_rate_per_s", "req/s", serve},
      {"serve.p50_us.high", "us", serve},
      {"serve.p99_us.low", "us", serve},
      {"serve.p99_us.high", "us", serve},
      {"serve.queue_wait_mean_us", "us", serve},
      {"serve.infer_mean_us", "us", serve},
      {"serve.rows_per_batch", "count", serve},
      {"serve.codec_us", "us", serve},
      {"serve.floor_us", "us", serve},
      {"serve.overhead_us", "us", serve},
      {"serve.degraded", "count", serve},
      {"serve.shed", "count", serve},
      {"serve.deadline_exceeded", "count", serve},
      {"serve.start_ms", "ms", serve},
      {"workload.trace_ms", "ms", {"train", "train_dist", "eval"}},
      {"gen.late_p99_us", "us", serve},
      {"obs.trace_overhead_pct", "%", {}},
      {"obs.coverage", "ratio", {}},
  };
  return specs;
}

void complete_metrics(const Options& options, Result& result) {
  const std::vector<MetricSpec>& specs =
      options.trace ? per_layer_metrics() : end_to_end_metrics();
  std::map<std::string, Metric> complete;
  for (const MetricSpec& spec : specs) {
    const bool measured =
        spec.workloads.empty() ||
        std::find(spec.workloads.begin(), spec.workloads.end(),
                  options.workload) != spec.workloads.end();
    const auto it = result.metrics.find(spec.name);
    if (!measured) {
      if (it != result.metrics.end())
        result.problems.push_back(std::string(spec.name) +
                                  " is not a metric of this workload");
      complete[spec.name] = Metric{0.0, spec.unit};
    } else if (it == result.metrics.end()) {
      result.problems.push_back(std::string(spec.name) + " was not measured");
    } else if (it->second.unit != spec.unit) {
      result.problems.push_back(std::string(spec.name) + " is in " +
                                it->second.unit + ", not " + spec.unit);
    } else {
      complete[spec.name] = it->second;
    }
  }
  for (const auto& [name, metric] : result.metrics)
    if (complete.count(name) == 0)
      result.problems.push_back(name + " is not a metric of this mode");
  result.metrics = std::move(complete);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Quantile quantile(std::vector<double> samples, double q) {
  Quantile out;
  out.samples = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  // Nearest rank: the smallest sample with at least q of the samples at or
  // below it.
  const auto n = static_cast<double>(samples.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  rank = std::clamp<std::size_t>(rank, 1, samples.size());
  out.value = samples[rank - 1];
  out.beyond = samples.size() - rank;
  return out;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void SetupTimer::sample(int n) {
  for (int i = 0; i < n; ++i) {
    teardown_();
    const Clock::time_point start = Clock::now();
    setup_();
    samples_.push_back(seconds_since(start));
  }
}

si::Trace bench_trace(const std::string& name) {
  return si::make_trace(name, 8000, 0x7ace);
}

double forward_us_per_row(const si::Mlp& net, int batch) {
  batch = std::max(batch, 1);
  net.refresh_transpose();
  si::Rng rng(0x5eed);
  std::vector<double> rows(static_cast<std::size_t>(batch) *
                           static_cast<std::size_t>(net.input_size()));
  for (double& x : rows) x = rng.uniform();
  si::Mlp::BatchWorkspace ws;
  net.forward_batch(rows, batch, ws);  // sizes the workspace
  constexpr double kMinSeconds = 0.2;
  std::size_t calls = 0;
  const Clock::time_point start = Clock::now();
  while (calls < 1000 || seconds_since(start) < kMinSeconds) {
    net.forward_batch(rows, batch, ws);
    ++calls;
  }
  return seconds_since(start) * 1e6 /
         (static_cast<double>(calls) * static_cast<double>(batch));
}

si::ActorCritic fixed_model() {
  constexpr int kObs = 8;
  constexpr std::size_t kProbeRows = 4096;
  si::ActorCritic ac(kObs, {32, 16, 8}, 0x5eed'1234ULL);
  si::Mlp& net = ac.policy_net();
  net.set_output_bias(0.0);
  si::Rng rng(0xfeed'beefULL);
  std::vector<double> logits;
  std::vector<double> row(kObs);
  for (std::size_t i = 0; i < kProbeRows; ++i) {
    for (double& x : row) x = rng.uniform();
    logits.push_back(net.forward(row)[0]);
  }
  // Greedy rejects when the logit is positive: shifting the bias by minus
  // the 95th percentile makes 5% of the probe rows reject.
  std::nth_element(logits.begin(), logits.begin() + kProbeRows * 95 / 100,
                   logits.end());
  net.set_output_bias(-logits[kProbeRows * 95 / 100]);
  return ac;
}

void print_host() {
  // __builtin_cpu_supports needs a literal, hence the macro.
  std::string isa = "x86-64";
  __builtin_cpu_init();
#define PERFBENCH_ISA(feature) \
  if (__builtin_cpu_supports(feature)) isa += "," feature;
  PERFBENCH_ISA("sse4.2")
  PERFBENCH_ISA("avx2")
  PERFBENCH_ISA("fma")
  PERFBENCH_ISA("avx512f")
#undef PERFBENCH_ISA
  std::printf(
      "host: {\"cores\": %u, \"isa\": \"%s\", \"compiler\": \"gcc %s\", "
      "\"build_type\": \"%s\", \"flags\": \"%s\"}\n",
      std::thread::hardware_concurrency(), isa.c_str(), __VERSION__,
      PERFBENCH_BUILD_TYPE, PERFBENCH_FLAGS);
}

}  // namespace perfbench
