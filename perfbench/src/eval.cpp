// The `eval` workload: greedy paired evaluation of the fixed model with
// EASY backfilling on, over windows of the four Table-2 traces under FCFS,
// SJF, F1 and Slurm, at 256 and 1024 jobs per window. No PPO runs here:
// the load is the simulator, the base policies inside it, and the
// inspection path of core (features, batched forward).
#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "check/invariant_oracle.hpp"
#include "core/evaluator.hpp"
#include "core/vec_env.hpp"
#include "obs/span.hpp"
#include "sched/factory.hpp"
#include "workload/registry.hpp"

namespace perfbench {
namespace {

/// Set-ups timed before and after the timed paired pass.
constexpr int kSetupsBefore = 5;
constexpr int kSetupsAfter = 4;
constexpr int kLengths[] = {256, 1024};
/// Windows per policy, trace and second of run budget, by window length:
/// about half the run goes to each length on the reference host.
constexpr int kWindowsPerSecond[] = {200, 40};
/// Windows per (trace, policy, length) re-run under the invariant oracle.
constexpr int kOracleWindows = 2;

/// One trace's test split with everything evaluated on it.
struct TraceCase {
  si::Trace test;
  si::FeatureBuilder features;
  std::vector<si::PolicyPtr> policies;
};

struct EvalInputs {
  std::vector<TraceCase> traces;
  si::ActorCritic model;
};

EvalInputs make_inputs() {
  EvalInputs in{{}, fixed_model()};
  for (const std::string& name : si::table2_trace_names()) {
    const si::Trace trace = bench_trace(name);
    si::Trace test = trace.split(0.2).second;
    si::FeatureBuilder features(si::FeatureMode::kManual, si::Metric::kBsld,
                                si::FeatureScales::from_trace(test),
                                si::SimConfig{}.max_interval);
    std::vector<si::PolicyPtr> policies;
    for (const char* policy : {"FCFS", "SJF", "F1"})
      policies.push_back(si::make_policy(policy));
    policies.push_back(si::make_slurm_policy(test));
    in.traces.push_back({std::move(test), features, std::move(policies)});
  }
  return in;
}

/// The evaluation of (trace t, policy p, length l): its own window draw
/// from the run seed.
si::EvalConfig eval_config(std::uint64_t seed, std::size_t t, std::size_t p,
                           std::size_t l, int sequences) {
  si::EvalConfig config;
  config.sequences = sequences;
  config.sequence_length = kLengths[l];
  config.sim.backfill = true;
  config.seed = seed * 1000 + t * 100 + p * 10 + l;
  return config;
}

/// Every (trace, policy, length) evaluation of one pass.
template <typename Fn>
void for_each_case(const EvalInputs& in, Fn&& fn) {
  for (std::size_t t = 0; t < in.traces.size(); ++t)
    for (std::size_t p = 0; p < in.traces[t].policies.size(); ++p)
      for (std::size_t l = 0; l < std::size(kLengths); ++l) fn(t, p, l);
}

struct PassTotals {
  double jobs = 0.0;
  double inspections = 0.0;
  double rejections = 0.0;
  double ratio_sum = 0.0;  ///< sum over windows of inspected / base bsld
  double windows = 0.0;
  double seconds[std::size(kLengths)] = {};
  /// Wall time and jobs/s of each case's `evaluate` call, the operation
  /// whose latency `lat_p50_us` reports. A 1024-job case has a fifth of
  /// the windows of a 256-job one, so the calls are of similar size. The
  /// end-to-end metrics are medians over the calls, so that a burst of
  /// load from the host's neighbours during one call does not move them.
  std::vector<double> case_s;
  std::vector<double> case_jobs_per_s;
};

/// Runs the timed paired evaluation over every case; `results` keeps each
/// case's pairs for the oracle comparison.
PassTotals paired_pass(EvalInputs& in, std::uint64_t seed, double run_seconds,
                       std::vector<si::EvalResult>& results) {
  PassTotals totals;
  for_each_case(in, [&](std::size_t t, std::size_t p, std::size_t l) {
    TraceCase& tc = in.traces[t];
    const int sequences =
        std::max(1, static_cast<int>(kWindowsPerSecond[l] * run_seconds));
    const si::EvalConfig config = eval_config(seed, t, p, l, sequences);
    const Clock::time_point start = Clock::now();
    results.push_back(si::evaluate(tc.test, *tc.policies[p], in.model,
                                   tc.features, config));
    const double elapsed = seconds_since(start);
    totals.case_s.push_back(elapsed);
    totals.case_jobs_per_s.push_back(
        static_cast<double>(sequences) * config.sequence_length / elapsed);
    totals.seconds[l] += elapsed;
    for (const si::EvalPair& pair : results.back().pairs) {
      totals.jobs += static_cast<double>(config.sequence_length);
      totals.inspections += static_cast<double>(pair.inspected.inspections);
      totals.rejections += static_cast<double>(pair.inspected.rejections);
      totals.ratio_sum += pair.inspected.avg_bsld / pair.base.avg_bsld;
      totals.windows += 1.0;
    }
  });
  return totals;
}

bool same_metrics(const si::SequenceMetrics& a, const si::SequenceMetrics& b) {
  return a.jobs == b.jobs && a.avg_wait == b.avg_wait &&
         a.avg_bsld == b.avg_bsld && a.max_bsld == b.max_bsld &&
         a.utilization == b.utilization && a.makespan == b.makespan &&
         a.inspections == b.inspections && a.rejections == b.rejections;
}

/// Re-runs the first windows of every case outside the timed region under
/// the invariant oracle (serial, width 1): zero violations, and the same
/// per-window metrics as the timed batched run.
void oracle_check(EvalInputs& in, std::uint64_t seed,
                  const std::vector<si::EvalResult>& results, Result& out) {
  std::size_t index = 0;
  for_each_case(in, [&](std::size_t t, std::size_t p, std::size_t l) {
    TraceCase& tc = in.traces[t];
    const si::EvalResult& timed = results[index++];
    const int sequences = std::min<int>(kOracleWindows, timed.pairs.size());
    si::InvariantOracle oracle;
    si::EvalConfig config = eval_config(seed, t, p, l, sequences);
    config.sim.oracle = &oracle;
    const si::EvalResult checked =
        si::evaluate(tc.test, *tc.policies[p], in.model, tc.features, config);
    const std::string where = tc.test.name() + "/" +
                              tc.policies[p]->name() + "/" +
                              std::to_string(kLengths[l]);
    out.check(oracle.ok() && oracle.runs_checked() ==
                                 2 * static_cast<std::size_t>(sequences),
              "invariant oracle on " + where + ": " + oracle.report());
    for (int s = 0; s < sequences; ++s)
      out.check(same_metrics(checked.pairs[s].base, timed.pairs[s].base) &&
                    same_metrics(checked.pairs[s].inspected,
                                 timed.pairs[s].inspected),
                "oracle re-run of " + where + " window " + std::to_string(s) +
                    " differs from the timed run");
  });
}

Result eval_untraced(const Options& options) {
  Result out;
  std::optional<EvalInputs> in;
  SetupTimer setups([&] { in.emplace(make_inputs()); }, [&] { in.reset(); });
  setups.sample(kSetupsBefore);
  std::vector<si::EvalResult> results;
  const PassTotals totals = paired_pass(*in, options.seed, options.seconds, results);
  // The inputs are deterministic, so the oracle check below runs on rebuilt
  // ones as well.
  setups.sample(kSetupsAfter);
  out.set("setup_s", setups.median_s(), "s");
  out.set("jobs_per_s", median(totals.case_jobs_per_s), "jobs/s");
  out.set("lat_p50_us", median(totals.case_s) * 1e6, "us");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.check(totals.rejections > 0, "the fixed model never rejected");
  oracle_check(*in, options.seed, results, out);
  out.set_ok_ratio();
  return out;
}

/// Windows per case of the traced VecEnv probe.
constexpr int kProbeWindows = 16;

/// Rows per forward, the cost of span recording and the coverage of the
/// layer times, measured by driving VecEnv::rollout_batch directly over the
/// first windows of every case, once plain and once with spans on, all on
/// one thread.
void vec_env_probe(EvalInputs& in, std::uint64_t seed, Result& out) {
  in.model.policy_net().refresh_transpose();
  double plain_s = 0.0;
  double traced_s = 0.0;
  double base_s = 0.0;
  double inspections = 0.0;
  si::SpanCollector spans(1 << 20);
  for_each_case(in, [&](std::size_t t, std::size_t p, std::size_t l) {
    TraceCase& tc = in.traces[t];
    const si::EvalConfig config = eval_config(seed, t, p, l, kProbeWindows);
    si::Rng rng(config.seed);
    std::vector<std::vector<si::Job>> windows(kProbeWindows);
    std::vector<si::RolloutSpec> specs(kProbeWindows);
    for (int w = 0; w < kProbeWindows; ++w) {
      windows[w] = tc.test.sample_window(
          rng, static_cast<std::size_t>(config.sequence_length));
      specs[w].jobs = &windows[w];
    }
    si::EvalConfig serial = config;
    serial.max_workers = 1;
    const Clock::time_point base_start = Clock::now();
    si::evaluate_base(tc.test, *tc.policies[p], si::Metric::kBsld, serial);
    base_s += seconds_since(base_start);
    std::vector<si::PairedRollout> plain;
    for (const bool traced : {false, true}) {
      si::VecEnv env(tc.test.cluster_procs(), config.sim, in.model,
                     tc.features, *tc.policies[p], config.rollout_batch);
      if (traced) env.set_spans(&spans, "eval");
      const Clock::time_point start = Clock::now();
      std::vector<si::PairedRollout> pairs =
          env.rollout_batch(specs, si::ActionSelect::kGreedy);
      (traced ? traced_s : plain_s) += seconds_since(start);
      if (!traced) {
        plain = std::move(pairs);
        continue;
      }
      for (int w = 0; w < kProbeWindows; ++w) {
        inspections += static_cast<double>(pairs[w].inspected.inspections);
        out.check(same_metrics(pairs[w].base, plain[w].base) &&
                      same_metrics(pairs[w].inspected, plain[w].inspected),
                  "span recording changed a VecEnv rollout");
      }
    }
  });
  out.check(spans.dropped() == 0, "span collector dropped spans");
  double forwards = 0.0;
  for (const si::SpanEvent& event : spans.snapshot())
    forwards += event.name == "forward_batch" ? 1.0 : 0.0;
  const double rows_per_forward = inspections / forwards;
  const double forward_us = forward_us_per_row(
      in.model.policy_net(), static_cast<int>(std::lround(rows_per_forward)));
  out.set("core.rows_per_forward", rows_per_forward, "count");
  out.set("core.forward_us_per_row", forward_us, "us");
  out.set("obs.trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s,
          "%");
  // The share of the plain rollouts explained by separately timed layers:
  // the base simulation twice per window (`evaluate_base` over the same
  // windows) and one forward row per inspection (`Mlp::forward_batch`).
  // The rest is feature building, the reject-and-retry path and VecEnv
  // bookkeeping.
  out.set("obs.coverage",
          (2.0 * base_s + forward_us * 1e-6 * inspections) / plain_s, "ratio");
}

Result eval_traced(const Options& options) {
  Result out;
  const Clock::time_point trace_start = Clock::now();
  EvalInputs in = make_inputs();
  out.set("workload.trace_ms", seconds_since(trace_start) * 1000.0, "ms");

  // The paired pass at half the run budget; its per-length times are the
  // inspected-plus-base cost.
  std::vector<si::EvalResult> results;
  const double run_seconds = options.seconds / 2;
  const PassTotals paired = paired_pass(in, options.seed, run_seconds, results);
  out.check(paired.rejections > 0, "the fixed model never rejected");
  out.set("core.bsld_pct_of_base", 100.0 * paired.ratio_sum / paired.windows,
          "%");

  // The base policy alone over the same windows.
  double base_s[std::size(kLengths)] = {};
  double base_jobs[std::size(kLengths)] = {};
  std::size_t index = 0;
  for_each_case(in, [&](std::size_t t, std::size_t p, std::size_t l) {
    TraceCase& tc = in.traces[t];
    const auto sequences = static_cast<int>(results[index++].pairs.size());
    const si::EvalConfig config = eval_config(options.seed, t, p, l, sequences);
    const Clock::time_point base_start = Clock::now();
    si::evaluate_base(tc.test, *tc.policies[p], si::Metric::kBsld, config);
    base_s[l] += seconds_since(base_start);
    base_jobs[l] += static_cast<double>(sequences) * kLengths[l];
  });
  out.set("sim.base_us_per_job.w256", base_s[0] * 1e6 / base_jobs[0], "us");
  out.set("sim.base_us_per_job.w1024", base_s[1] * 1e6 / base_jobs[1], "us");
  out.set("sim.inspections_per_job", paired.inspections / paired.jobs,
          "count");
  out.set("sim.reject_share", paired.rejections / paired.inspections,
          "ratio");
  const double paired_s = paired.seconds[0] + paired.seconds[1];
  out.set("core.inspect_us_per_decision",
          (paired_s - 2.0 * (base_s[0] + base_s[1])) * 1e6 /
              paired.inspections,
          "us");
  vec_env_probe(in, options.seed, out);
  oracle_check(in, options.seed, results, out);
  return out;
}

}  // namespace

Result run_eval(const Options& options) {
  return options.trace ? eval_traced(options) : eval_untraced(options);
}

}  // namespace perfbench
