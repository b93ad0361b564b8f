// The `train` and `train_dist` workloads: the paper's primary training run
// (SJF on SDSC-SP2, bsld, percentage reward, 100 trajectories x 128 jobs
// per epoch, MLP 32-16-8) on the thread path and through DistTrainer with
// three worker processes. A run is a series of independent one-epoch
// trainings, each from its own seed derived from the run seed, started
// until the run budget is spent. Short trainings keep the policy near its
// initial rejection rate, so the PPO batch size, and with it the time and
// memory per epoch, does not drift with the seed; many of them give the
// run's medians enough samples. Both workloads use the same seeds, so
// their models must come out byte-identical.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>

#include "bench.hpp"
#include "core/train_loop.hpp"
#include "core/trainer.hpp"
#include "dist/dist_trainer.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/span.hpp"
#include "rl/model_io.hpp"
#include "sched/factory.hpp"
#include "workload/registry.hpp"

namespace perfbench {
namespace {

/// Three, not the four of the paper's run on a 4-core host: on the shared
/// 4-core reference VM a fourth worker left no core for the main thread and
/// the VM, and workers that wait for each other at every barrier then
/// measured the neighbours (a spread of 0.08-0.14 between runs against
/// 0.04). Results are bit-identical at any thread or worker count.
constexpr int kRolloutThreads = 3;
constexpr int kUpdateThreads = 3;
constexpr int kDistWorkers = 3;
constexpr int kEpochsPerTraining = 1;
/// Trainings of an untraced run, at least, however slow the host.
constexpr int kMinTrainings = 5;
/// Trainings of a train_dist run that are repeated on the thread path.
constexpr int kReferenceTrainings = 2;

/// Trainings of a traced run: one per second of `seconds`.
int trainings_for(double seconds) {
  return std::max(1, static_cast<int>(std::lround(seconds)));
}

/// Whether an untraced run starts training `i` after `run_start`.
bool another_training(int i, Clock::time_point run_start,
                      const Options& options) {
  return i < kMinTrainings || seconds_since(run_start) < options.seconds;
}

std::uint64_t training_seed(std::uint64_t run_seed, int training) {
  return run_seed * 1000 + static_cast<std::uint64_t>(training);
}

/// The training inputs one run builds during set-up.
struct TrainInputs {
  si::Trace train_split;
  si::PolicyPtr policy;
  si::TrainerConfig config;
};

TrainInputs make_inputs(std::uint64_t seed) {
  const si::Trace trace = bench_trace("SDSC-SP2");
  TrainInputs in{trace.split(0.2).first, si::make_policy("SJF"), {}};
  in.config.metric = si::Metric::kBsld;
  in.config.reward = si::RewardKind::kPercentage;
  in.config.hidden = {32, 16, 8};
  in.config.epochs = kEpochsPerTraining;
  in.config.trajectories_per_epoch = 100;
  in.config.sequence_length = 128;
  in.config.seed = seed;
  in.config.max_workers = kRolloutThreads;
  in.config.ppo.update_threads = kUpdateThreads;
  return in;
}

std::string model_bytes(const si::ActorCritic& ac) {
  std::ostringstream out;
  si::save_model(out, ac);
  return out.str();
}

bool finite_model(si::ActorCritic& ac) {
  const auto finite = [](std::span<const double> params) {
    return std::all_of(params.begin(), params.end(),
                       [](double p) { return std::isfinite(p); });
  };
  return finite(ac.policy_net().params()) && finite(ac.value_net().params());
}

std::uint64_t window_jobs(const si::TrainerConfig& config) {
  return static_cast<std::uint64_t>(config.epochs) *
         static_cast<std::uint64_t>(config.trajectories_per_epoch) *
         static_cast<std::uint64_t>(config.sequence_length);
}

/// Counts every trajectory as one attempted operation; invalid ones and
/// skipped updates fail.
void check_training(const si::TrainResult& result,
                    const si::TrainerConfig& config, Result& out) {
  int invalid = 0;
  for (const si::EpochStats& epoch : result.curve)
    invalid += epoch.invalid_trajectories;
  out.count(static_cast<std::uint64_t>(config.epochs) *
                static_cast<std::uint64_t>(config.trajectories_per_epoch),
            0);
  if (invalid > 0)
    out.wrong(static_cast<std::uint64_t>(invalid),
              std::to_string(invalid) + " invalid trajectories");
  out.check(static_cast<int>(result.curve.size()) == config.epochs &&
                result.skipped_updates == 0,
            "training skipped an update or an epoch");
}

/// Inspected bsld as a percentage of base bsld, averaged per window over
/// the final quarter of epochs (the paper's converged value):
/// 100 - mean relative bsld improvement in percent.
double bsld_pct_of_base(const si::TrainResult& result) {
  const std::size_t n = result.curve.size();
  const std::size_t tail = std::max<std::size_t>(n / 4, 1);
  double gain = 0.0;
  for (std::size_t i = n - tail; i < n; ++i)
    gain += result.curve[i].mean_pct_improvement;
  return 100.0 - 100.0 * gain / static_cast<double>(tail);
}

/// Time and work of the PPO update and rollout collection phases, summed
/// over every epoch of a traced run.
struct PhaseTotals {
  double collect_s = 0.0;
  double update_s = 0.0;
  double steps = 0.0;
  double policy_iters = 0.0;
  double step_iters = 0.0;
  int updates = 0;
};

/// Span totals by name, in milliseconds.
std::map<std::string, double> span_ms(const si::SpanCollector& spans,
                                      Result& out) {
  out.check(spans.dropped() == 0, "span collector dropped spans");
  std::map<std::string, double> ms;
  for (const si::SpanEvent& event : spans.snapshot())
    ms[event.name] += static_cast<double>(event.dur_us) / 1000.0;
  return ms;
}

/// The thread path's epoch driver, with each phase's public entry point
/// timed from outside: RolloutCollector::collect and PpoUpdater::update.
class TimedDriver final : public si::EpochDriver {
 public:
  TimedDriver(const TrainInputs& in, const si::FeatureBuilder& features,
              si::ActorCritic& ac, si::PpoUpdater& updater, PhaseTotals& totals)
      : collector_(in.train_split, in.config, features, *in.policy),
        ac_(ac),
        updater_(updater),
        totals_(totals),
        indices_(static_cast<std::size_t>(in.config.trajectories_per_epoch)) {
    std::iota(indices_.begin(), indices_.end(), std::size_t{0});
  }

  void collect(int /*epoch*/, const si::EpochInputs& inputs,
               std::vector<si::TrainingRollout>& rollouts,
               std::vector<si::BufferTracer>* traces) override {
    const Clock::time_point start = Clock::now();
    collector_.collect(ac_, inputs, indices_, rollouts, traces);
    totals_.collect_s += seconds_since(start);
  }

  si::PpoStats update(int /*epoch*/, const si::RolloutBatch& batch) override {
    const Clock::time_point start = Clock::now();
    const si::PpoStats stats = updater_.update(batch);
    totals_.update_s += seconds_since(start);
    const auto steps = static_cast<double>(batch.size());
    totals_.steps += steps;
    totals_.policy_iters += stats.policy_iters_run;
    totals_.step_iters +=
        steps * (stats.policy_iters_run + updater_.config().value_iters);
    ++totals_.updates;
    return stats;
  }

 private:
  si::RolloutCollector collector_;
  si::ActorCritic& ac_;
  si::PpoUpdater& updater_;
  PhaseTotals& totals_;
  std::vector<std::size_t> indices_;
};

/// Per-epoch collect / update / loop split of a traced run. `epoch_ms` is
/// the train.epoch span total the program recorded itself.
void train_layers(double collect_ms, double update_ms, double epoch_ms,
                  int epochs, Result& out) {
  out.set("core.collect_ms", collect_ms / epochs, "ms");
  out.set("rl.update_ms", update_ms / epochs, "ms");
  out.set("core.loop_ms", (epoch_ms - collect_ms - update_ms) / epochs, "ms");
  const double coverage = (collect_ms + update_ms) / epoch_ms;
  out.set("obs.coverage", coverage, "ratio");
  // The layers must account for the epoch wall time within 10%.
  out.check(coverage > 0.9 && coverage <= 1.01,
            "collect + update do not reconcile with the epoch spans (" +
                std::to_string(coverage) + ")");
}

/// End-to-end metrics of one run's trainings, as medians, so that a burst
/// of load from the host's neighbours during one training does not move
/// them. One training (one `train()` call) is the operation whose latency
/// `lat_p50_us` reports.
struct RunTotals {
  std::vector<double> setup_s;
  std::vector<double> train_s;
  std::vector<double> jobs_per_s;

  void add(const si::TrainerConfig& config, double setup, double train) {
    setup_s.push_back(setup);
    train_s.push_back(train);
    jobs_per_s.push_back(static_cast<double>(window_jobs(config)) / train);
  }
  void report(Result& out) const {
    out.set("setup_s", median(setup_s), "s");
    out.set("jobs_per_s", median(jobs_per_s), "jobs/s");
    out.set("lat_p50_us", median(train_s) * 1e6, "us");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
  }
};

Result train_untraced(const Options& options) {
  Result out;
  RunTotals run;
  const Clock::time_point run_start = Clock::now();
  for (int i = 0; another_training(i, run_start, options); ++i) {
    Clock::time_point start = Clock::now();
    const TrainInputs in = make_inputs(training_seed(options.seed, i));
    si::Trainer trainer(in.train_split, *in.policy, in.config);
    si::ActorCritic ac = trainer.make_agent();
    const double setup = seconds_since(start);
    start = Clock::now();
    const si::TrainResult result = trainer.train(ac);
    run.add(in.config, setup, seconds_since(start));
    check_training(result, in.config, out);
    out.check(finite_model(ac), "trained model is not finite");
  }
  run.report(out);
  out.set_ok_ratio();
  return out;
}

Result train_traced(const Options& options) {
  Result out;
  const int trainings = trainings_for(options.seconds / 2);
  si::SpanCollector spans(1 << 18);
  si::MetricsRegistry registry;
  PhaseTotals phases;
  double plain_s = 0.0;
  double traced_s = 0.0;
  double pct_of_base = 0.0;
  for (int i = 0; i < trainings; ++i) {
    const Clock::time_point trace_start = Clock::now();
    const TrainInputs in = make_inputs(training_seed(options.seed, i));
    if (i == 0)
      out.set("workload.trace_ms", seconds_since(trace_start) * 1000.0, "ms");

    // The untraced training is the base of the tracing overhead and the
    // reference model for the traced one.
    si::Trainer trainer(in.train_split, *in.policy, in.config);
    si::ActorCritic plain = trainer.make_agent();
    Clock::time_point start = Clock::now();
    trainer.train(plain);
    plain_s += seconds_since(start);

    TrainInputs traced_in = make_inputs(training_seed(options.seed, i));
    traced_in.config.spans = &spans;
    traced_in.config.metrics = &registry;
    si::ActorCritic ac = trainer.make_agent();
    si::PpoUpdater updater(ac, traced_in.config.ppo);
    TimedDriver driver(traced_in, trainer.features(), ac, updater, phases);
    start = Clock::now();
    const si::TrainResult result = si::run_train_loop(
        traced_in.train_split, traced_in.config, ac, updater, driver);
    traced_s += seconds_since(start);
    pct_of_base += bsld_pct_of_base(result);
    check_training(result, traced_in.config, out);
    out.check(model_bytes(ac) == model_bytes(plain),
              "traced training diverged from the untraced run");
  }
  const std::map<std::string, double> ms = span_ms(spans, out);
  const int epochs = trainings * kEpochsPerTraining;
  train_layers(phases.collect_s * 1000.0, phases.update_s * 1000.0,
               ms.count("train.epoch") ? ms.at("train.epoch") : 0.0, epochs,
               out);
  out.set("rl.update_steps", phases.steps / phases.updates, "count");
  out.set("rl.policy_iters", phases.policy_iters / phases.updates, "count");
  out.set("rl.update_ns_per_step_iter",
          phases.update_s * 1e9 / phases.step_iters, "ns");
  out.set("core.bsld_pct_of_base", pct_of_base / trainings, "%");
  out.set("obs.trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s,
          "%");
  return out;
}

si::dist::DistConfig dist_config() {
  si::dist::DistConfig dist;
  dist.workers = kDistWorkers;
  return dist;
}

Result dist_untraced(const Options& options) {
  Result out;
  RunTotals run;
  std::vector<std::string> models;
  const Clock::time_point run_start = Clock::now();
  for (int i = 0; another_training(i, run_start, options); ++i) {
    Clock::time_point start = Clock::now();
    const TrainInputs in = make_inputs(training_seed(options.seed, i));
    si::dist::DistTrainer trainer(in.train_split, *in.policy, in.config,
                                  dist_config());
    si::ActorCritic ac = trainer.make_agent();
    const double setup = seconds_since(start);
    start = Clock::now();
    const si::TrainResult result = trainer.train(ac);
    run.add(in.config, setup, seconds_since(start));
    trainer.shutdown();
    check_training(result, in.config, out);
    models.push_back(model_bytes(ac));
  }
  run.report(out);

  // The thread path from the same seeds must write the same model bytes.
  // Two trainings are enough to catch a divergence and keep the untimed
  // part of the run short.
  for (int i = 0; i < kReferenceTrainings; ++i) {
    const TrainInputs in = make_inputs(training_seed(options.seed, i));
    si::Trainer reference(in.train_split, *in.policy, in.config);
    si::ActorCritic expected = reference.make_agent();
    reference.train(expected);
    out.check(models[i] == model_bytes(expected),
              "train_dist model " + std::to_string(i) +
                  " differs from the thread-path model");
  }
  out.set_ok_ratio();
  return out;
}

Result dist_traced(const Options& options) {
  Result out;
  const int trainings = trainings_for(options.seconds / 2);
  si::SpanCollector spans(1 << 18);
  si::MetricsRegistry registry;
  double plain_s = 0.0;
  double traced_s = 0.0;
  double spawn_ms = 0.0;
  double pct_of_base = 0.0;
  for (int i = 0; i < trainings; ++i) {
    const Clock::time_point trace_start = Clock::now();
    TrainInputs in = make_inputs(training_seed(options.seed, i));
    if (i == 0)
      out.set("workload.trace_ms", seconds_since(trace_start) * 1000.0, "ms");

    std::string plain_bytes;
    {
      si::dist::DistTrainer trainer(in.train_split, *in.policy, in.config,
                                    dist_config());
      si::ActorCritic ac = trainer.make_agent();
      const Clock::time_point start = Clock::now();
      trainer.train(ac);
      plain_s += seconds_since(start);
      plain_bytes = model_bytes(ac);
    }

    in.config.spans = &spans;
    in.config.metrics = &registry;
    Clock::time_point start = Clock::now();
    si::dist::DistTrainer trainer(in.train_split, *in.policy, in.config,
                                  dist_config());
    spawn_ms += seconds_since(start) * 1000.0;
    si::ActorCritic ac = trainer.make_agent();
    start = Clock::now();
    const si::TrainResult result = trainer.train(ac);
    traced_s += seconds_since(start);
    trainer.shutdown();
    pct_of_base += bsld_pct_of_base(result);
    check_training(result, in.config, out);
    out.check(model_bytes(ac) == plain_bytes,
              "traced distributed training diverged from the untraced run");
  }

  const std::map<std::string, double> ms = span_ms(spans, out);
  const auto span = [&](const char* name) {
    const auto it = ms.find(name);
    return it == ms.end() ? 0.0 : it->second;
  };
  const auto counter = [&](const char* name) {
    const auto it = registry.counters().find(name);
    return it == registry.counters().end()
               ? 0.0
               : static_cast<double>(it->second.value());
  };
  const int epochs = trainings * kEpochsPerTraining;
  train_layers(span("train.rollouts"), span("train.update"),
               span("train.epoch"), epochs, out);
  out.set("dist.spawn_ms", spawn_ms / trainings, "ms");
  out.set("dist.bytes_per_epoch",
          (counter("dist.bytes_sent") + counter("dist.bytes_recv")) / epochs,
          "bytes");
  out.set("dist.frames_per_epoch",
          (counter("dist.frames_sent") + counter("dist.frames_recv")) / epochs,
          "count");
  out.set("dist.broadcast_ms", span("dist.broadcast") / epochs, "ms");
  out.set("dist.gather_ms", span("dist.gather") / epochs, "ms");
  out.set("dist.reduce_ms", span("dist.reduce") / epochs, "ms");
  out.set("dist.epoch_retries", counter("dist.epoch_retries"), "count");
  out.set("core.bsld_pct_of_base", pct_of_base / trainings, "%");
  out.set("obs.trace_overhead_pct", 100.0 * (traced_s - plain_s) / plain_s,
          "%");
  return out;
}

}  // namespace

Result run_train(const Options& options) {
  return options.trace ? train_traced(options) : train_untraced(options);
}

Result run_train_dist(const Options& options) {
  return options.trace ? dist_traced(options) : dist_untraced(options);
}

}  // namespace perfbench
