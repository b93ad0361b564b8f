// The `serve` workload: an open loop against an in-process inspection
// Server hosting the fixed 32-16-8 model. One generator thread multiplexes
// four pipelined connections and sends each request at its Poisson due
// time whether or not earlier replies have come back; each request is timed
// from its due time, so a stall also counts against the requests queued
// behind it. Phases: `low` (coalescer-linger bound), `high` (batching
// bound) and, in the traced run, an ascending ladder of rates for
// `serve.slo_rate_per_s`.
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"
#include "obs/span.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace perfbench {
namespace {

namespace sv = si::serve;

constexpr int kConnections = 4;
/// Set-ups timed before the low phase, between the phases (the high phase
/// then runs on a fresh server) and after the high phase.
constexpr int kSetupsPerPoint = 3;
/// Requests/s of the fixed phases. At `low` nearly every batch holds one
/// row, so latency is the coalescer's 200 us linger plus the I/O path. At
/// `high` batches carry about 10 rows, while p99 stays well clear of the
/// knee (about 250k/s on the reference host), where it turns noisy. At
/// 64000/s, 3 of 10 runs on the loaded reference host failed 22-1062
/// requests (non-OK or missing replies). The server's 1024-request queue
/// fills in a 16 ms stall at that rate, in 32 ms at this one.
constexpr double kLowRate = 1000.0;
constexpr double kHighRate = 32000.0;
/// Ladder rungs, requests/s: two low rungs that a host slowed down by its
/// neighbours still meets, then 10k apart around the saturation knee of
/// the reference host (about 250k/s), up to where the single generator
/// thread itself starts to fall behind. The ladder is swept twice;
/// `serve.slo_rate_per_s` is the highest rung that met the limit in either
/// sweep, so one transient dip of the host does not decide it.
constexpr double kLadder[] = {50000,  100000, 150000, 160000, 170000,
                              180000, 190000, 200000, 210000, 220000,
                              230000, 240000, 250000, 260000};
constexpr int kSweeps = 2;
constexpr double kSloP99Us = 1000.0;
/// Shares of the run budget for the low and high phases, and for each of
/// the traced run's 2 x 14 ladder rungs. The low phase gets the longest so
/// that one brief stall of the host cannot reach 1% of its samples.
constexpr double kLowShare = 0.6;
constexpr double kHighShare = 0.4;
constexpr double kRungShare = 0.0135;
/// The generator is behind schedule when its p99 lateness exceeds this.
constexpr double kMaxLateP99Us = 250.0;
/// Attempts of a low/high phase while its generator keeps falling behind.
constexpr int kAttempts = 3;
/// How long a phase waits for outstanding replies after its last send.
constexpr double kDrainSeconds = 2.0;

/// One request row with the reply the local model gives for it.
struct Row {
  std::vector<double> features;
  std::uint8_t reject = 0;
  double prob = 0.0;
};

/// The server and the generator's connections to it.
class Rig {
 public:
  Rig(const si::ActorCritic& model, si::SpanCollector* spans) {
    const Clock::time_point start = Clock::now();
    sv::ServerConfig config;
    config.spans = spans;
    server_ = std::make_unique<sv::Server>(config);
    const sv::PublishResult published = server_->publish_model(
        std::make_shared<sv::ServedModel>(model, "in-process", 0));
    if (!published.ok)
      throw std::runtime_error("publish failed: " + published.message);
    server_->start();
    start_ms = seconds_since(start) * 1000.0;
    for (int c = 0; c < kConnections; ++c) fds_.push_back(connect_to(server_->port()));
  }
  ~Rig() {
    for (int fd : fds_) ::close(fd);
    server_->stop();
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;

  const sv::ServerStats& stats() const { return server_->stats(); }
  const std::vector<int>& fds() const { return fds_; }
  /// The first of `n` fresh request ids: ids never repeat across phases, so
  /// a late reply to an earlier phase cannot pass for one of this phase.
  std::uint64_t take_ids(std::size_t n) {
    const std::uint64_t first = next_id_;
    next_id_ += n;
    return first;
  }

  double start_ms = 0.0;  ///< server construct + publish + start

 private:
  static int connect_to(int port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) throw std::runtime_error("socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      ::close(fd);
      throw std::runtime_error(std::string("connect: ") + std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
  }

  std::unique_ptr<sv::Server> server_;
  std::vector<int> fds_;
  std::uint64_t next_id_ = 0;
};

/// What one open-loop phase measured.
struct Phase {
  std::string name;
  double rate = 0.0;
  std::size_t sent = 0;
  std::size_t ok = 0;        ///< OK replies equal to the local decision
  std::size_t wrong = 0;     ///< OK replies that differ, or malformed
  std::size_t not_ok = 0;    ///< degraded / deadline / error replies
  std::size_t missing = 0;   ///< no reply within the drain limit
  std::vector<double> latency_us;  ///< OK replies, from due time
  std::vector<double> late_us;     ///< send time - due time
  double span_s = 0.0;             ///< first to last due time
  double answered_s = 0.0;         ///< start to the last OK reply
  bool backlog_grew = false;

  Quantile p50() const { return quantile(latency_us, 0.50); }
  Quantile p99() const { return quantile(latency_us, 0.99); }
  double late_p99() const { return quantile(late_us, 0.99).value; }
  bool behind() const { return late_p99() > kMaxLateP99Us; }
  /// OK replies per second of the phase. It equals the offered rate while
  /// the server keeps up and falls when replies lag behind the schedule.
  double answered_per_s() const {
    return static_cast<double>(ok) / answered_s;
  }
  bool meets_slo() const {
    const Quantile q = p99();
    return wrong == 0 && not_ok == 0 && missing == 0 && !backlog_grew &&
           !behind() && q.supported() && q.value <= kSloP99Us;
  }
};

/// Sends `rate` requests/s with Poisson arrivals for `seconds`, cycling
/// through `rows`, and checks every reply against the local decision.
Phase run_phase(Rig& rig, const std::vector<Row>& rows, const std::string& name,
                double rate, double seconds, std::uint64_t seed) {
  Phase phase;
  phase.name = name;
  phase.rate = rate;
  // The schedule and the encoded frames are built before the clock starts.
  si::Rng rng(seed);
  std::vector<double> due_s;
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / rate;
    if (t > seconds) break;
    due_s.push_back(t);
  }
  const std::size_t n = due_s.size();
  const std::uint64_t first_id = rig.take_ids(n);
  std::vector<std::string> frames(n);
  for (std::size_t i = 0; i < n; ++i) {
    sv::DecisionRequest request;
    request.request_id = first_id + i;
    request.features = rows[i % rows.size()].features;
    frames[i] = sv::encode_decision_request(request);
  }
  phase.span_s = n > 0 ? due_s.back() - due_s.front() : 0.0;

  const std::vector<int>& fds = rig.fds();
  std::vector<std::string> out(fds.size());
  std::vector<std::size_t> out_off(fds.size(), 0);
  std::vector<sv::FrameReader> readers(fds.size());
  std::vector<char> answered(n, 0);
  std::vector<double> latency(n, -1.0);
  std::size_t next = 0;
  std::size_t replies = 0;
  char buffer[1 << 16];

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(1);
  const auto at = [&](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  const Clock::time_point give_up =
      at((n > 0 ? due_s.back() : 0.0) + kDrainSeconds);
  std::vector<pollfd> pfds(fds.size());

  while (replies < n && Clock::now() < give_up) {
    Clock::time_point now = Clock::now();
    while (next < n && at(due_s[next]) <= now) {
      const std::size_t c = next % fds.size();
      out[c] += frames[next];
      phase.late_us.push_back(
          std::chrono::duration<double, std::micro>(now - at(due_s[next]))
              .count());
      ++next;
    }
    for (std::size_t c = 0; c < fds.size(); ++c) {
      while (out_off[c] < out[c].size()) {
        const ssize_t w = ::send(fds[c], out[c].data() + out_off[c],
                                 out[c].size() - out_off[c], MSG_NOSIGNAL);
        if (w <= 0) break;
        out_off[c] += static_cast<std::size_t>(w);
      }
      if (out_off[c] == out[c].size()) {
        out[c].clear();
        out_off[c] = 0;
      }
      pfds[c] = {fds[c], static_cast<short>(POLLIN | (out[c].empty() ? 0 : POLLOUT)), 0};
    }
    // Busy-poll rather than sleep until the next due time: on a VM a
    // sleeping thread can wake milliseconds late, which would measure the
    // hypervisor instead of the server.
    if (::poll(pfds.data(), pfds.size(), 0) <= 0) continue;
    for (std::size_t c = 0; c < fds.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t r = ::recv(fds[c], buffer, sizeof buffer, 0);
      if (r <= 0) continue;
      now = Clock::now();
      readers[c].feed(std::string_view(buffer, static_cast<std::size_t>(r)));
      while (std::optional<sv::Frame> frame = readers[c].next()) {
        sv::DecisionReply reply;
        if (frame->type != sv::FrameType::kDecisionReply ||
            !sv::decode_decision_reply(frame->payload, reply)) {
          ++phase.wrong;
          continue;
        }
        // A late reply to an earlier phase that gave up waiting for it.
        if (reply.request_id < first_id) continue;
        if (reply.request_id - first_id >= n ||
            answered[reply.request_id - first_id]) {
          ++phase.wrong;
          continue;
        }
        const std::size_t id = reply.request_id - first_id;
        answered[id] = 1;
        ++replies;
        if (reply.status != sv::ReplyStatus::kOk) {
          ++phase.not_ok;
          continue;
        }
        const Row& row = rows[id % rows.size()];
        if (reply.source != sv::DecisionSource::kModel ||
            reply.reject != row.reject || reply.prob != row.prob) {
          ++phase.wrong;
          continue;
        }
        ++phase.ok;
        phase.answered_s = std::chrono::duration<double>(now - t0).count();
        latency[id] =
            std::chrono::duration<double, std::micro>(now - at(due_s[id]))
                .count();
      }
      if (!readers[c].ok()) ++phase.wrong;
    }
  }
  phase.sent = next;
  phase.missing = n - replies;
  for (double l : latency)
    if (l >= 0.0) phase.latency_us.push_back(l);
  // A backlog that grows through the phase shows as later requests waiting
  // much longer than earlier ones.
  const std::size_t quarter = phase.latency_us.size() / 4;
  if (quarter > 0) {
    const std::vector<double> first(phase.latency_us.begin(),
                                    phase.latency_us.begin() + quarter);
    const std::vector<double> last(phase.latency_us.end() - quarter,
                                   phase.latency_us.end());
    phase.backlog_grew = median(last) > 2.0 * median(first);
  }
  return phase;
}

void print_phase(const Phase& p) {
  const Quantile p50 = p.p50();
  const Quantile p99 = p.p99();
  std::printf(
      "phase %s: rate %.0f/s sent %zu ok %zu wrong %zu not_ok %zu missing "
      "%zu | p50 %.1f us, p99 %.1f us (%zu samples, %zu beyond p99) | "
      "generator late p99 %.1f us%s%s\n",
      p.name.c_str(), p.rate, p.sent, p.ok, p.wrong, p.not_ok, p.missing,
      p50.value, p99.value, p99.samples, p99.beyond, p.late_p99(),
      p.behind() ? " BEHIND" : "",
      p.backlog_grew ? " BACKLOG" : "");
}

/// Counts a phase's requests into the result. A wrong reply makes the run
/// incorrect; a non-OK or missing one only fails its request.
void count_phase(const Phase& p, Result& out) {
  out.count(p.sent, p.not_ok + p.missing);
  if (p.wrong > 0)
    out.wrong(p.wrong, "phase " + p.name + ": " + std::to_string(p.wrong) +
                           " wrong replies");
}

/// Cumulative server counters, read before and after a phase.
struct StatsSnapshot {
  double queue_wait_sum = 0, queue_wait_count = 0;
  double infer_sum = 0, infer_count = 0;
  double latency_sum = 0;
  double batches = 0, rows = 0;
  double degraded = 0, shed = 0, deadline_exceeded = 0;

  explicit StatsSnapshot(const sv::ServerStats& s)
      : queue_wait_sum(s.queue_wait_us.sum()),
        queue_wait_count(static_cast<double>(s.queue_wait_us.count())),
        infer_sum(s.infer_us.sum()),
        infer_count(static_cast<double>(s.infer_us.count())),
        latency_sum(s.latency_us.sum()),
        batches(static_cast<double>(s.batches.load())),
        rows(static_cast<double>(s.batched_rows.load())),
        degraded(static_cast<double>(s.decisions_degraded.load())),
        shed(static_cast<double>(s.shed_total.load())),
        deadline_exceeded(
            static_cast<double>(s.deadline_exceeded_total.load())) {}
};

/// A kept low/high phase with the server counters around it.
struct Measured {
  Phase phase;
  StatsSnapshot before;
  StatsSnapshot after;
};

/// Runs a fixed-rate phase, again (at most kAttempts times in all) while
/// the generator falls behind schedule, and keeps the last attempt. Such an
/// attempt is invalid: it measured a stall of the host, not the server.
/// Every attempt's requests count into the result.
Measured fixed_phase(Rig& rig, const std::vector<Row>& rows,
                     const std::string& name, double rate, double seconds,
                     std::uint64_t seed, Result& out) {
  for (int attempt = 1;; ++attempt) {
    const StatsSnapshot before(rig.stats());
    Phase phase = run_phase(rig, rows, name, rate, seconds, seed);
    const StatsSnapshot after(rig.stats());
    print_phase(phase);
    count_phase(phase, out);
    if (phase.behind() && attempt < kAttempts) continue;
    if (phase.behind())
      std::fprintf(stderr,
                   "perfbench: phase %s is invalid: the generator fell "
                   "behind schedule in every attempt\n",
                   name.c_str());
    out.check(phase.p99().supported(),
              "phase " + name + ": too few samples for a p99");
    return {std::move(phase), before, after};
  }
}

std::vector<Row> make_rows(const si::ActorCritic& model, std::uint64_t seed) {
  constexpr std::size_t kRows = 4096;
  si::Rng rng(seed);
  std::vector<Row> rows(kRows);
  for (Row& row : rows) {
    row.features.resize(static_cast<std::size_t>(model.obs_size()));
    for (double& x : row.features) x = rng.uniform();
    const double logit = model.policy_net().forward(row.features)[0];
    row.reject = logit > 0.0 ? 1 : 0;
    row.prob = si::sigmoid(logit);
  }
  return rows;
}

/// Sweeps the rate ladder and returns the achieved rate of the highest
/// rung that met the latency limit in either sweep, or 0 when none did.
double slo_rate(Rig& rig, const std::vector<Row>& rows, const Options& options,
                Result& out) {
  double best = 0.0;
  std::uint64_t rung_seed = options.seed * 16 + 3;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    for (const double rate : kLadder) {
      const Phase rung =
          run_phase(rig, rows, "ladder", rate, kRungShare * options.seconds,
                    rung_seed++);
      print_phase(rung);
      // Shed or degraded replies past the knee are the server's overload
      // behaviour: they only fail the rung's latency limit.
      out.count(rung.sent, 0);
      if (rung.wrong > 0)
        out.wrong(rung.wrong, "ladder " + std::to_string(rate) +
                                  ": wrong replies");
      if (rung.meets_slo())
        best = std::max(best, static_cast<double>(rung.sent) / rung.span_s);
    }
  }
  // Not a wrong answer: a host slowed down by its neighbours can miss
  // every rung.
  if (best == 0.0)
    std::fprintf(stderr, "perfbench: no ladder rate met the latency limit\n");
  return best;
}

Result serve_untraced(const Options& options) {
  Result out;
  std::optional<si::ActorCritic> model;
  std::unique_ptr<Rig> rig;
  SetupTimer setups(
      [&] {
        model.emplace(fixed_model());
        rig = std::make_unique<Rig>(*model, nullptr);
      },
      [&] {
        rig.reset();
        model.reset();
      });
  setups.sample(kSetupsPerPoint);
  // Every set-up builds the same model, so the rows stay valid.
  const std::vector<Row> rows = make_rows(*model, options.seed);
  const Phase low = fixed_phase(*rig, rows, "low", kLowRate,
                                kLowShare * options.seconds,
                                options.seed * 16 + 1, out)
                        .phase;
  setups.sample(kSetupsPerPoint);
  const Phase high = fixed_phase(*rig, rows, "high", kHighRate,
                                 kHighShare * options.seconds,
                                 options.seed * 16 + 2, out)
                         .phase;
  setups.sample(kSetupsPerPoint);

  out.set("setup_s", setups.median_s(), "s");
  out.set("jobs_per_s", high.answered_per_s(), "jobs/s");
  out.set("lat_p50_us", low.p50().value, "us");
  out.set("peak_rss_mb", peak_rss_mb(), "MB");
  out.set_ok_ratio();
  return out;
}

/// Wall time of one request's codec work on both sides: the client encodes
/// the request, the server frames and decodes it and encodes the reply, the
/// client frames and decodes the reply.
double codec_us(const std::vector<Row>& rows) {
  constexpr std::size_t kRounds = 20000;
  std::size_t decoded = 0;
  const Clock::time_point start = Clock::now();
  for (std::size_t i = 0; i < kRounds; ++i) {
    sv::DecisionRequest request;
    request.request_id = i;
    request.features = rows[i % rows.size()].features;
    sv::FrameReader server_side;
    server_side.feed(sv::encode_decision_request(request));
    sv::DecisionRequest received;
    const std::optional<sv::Frame> in = server_side.next();
    if (in && sv::decode_decision_request(in->payload, received)) ++decoded;
    sv::DecisionReply reply;
    reply.request_id = received.request_id;
    sv::FrameReader client_side;
    client_side.feed(sv::encode_decision_reply(reply));
    sv::DecisionReply back;
    const std::optional<sv::Frame> out = client_side.next();
    if (out && sv::decode_decision_reply(out->payload, back)) ++decoded;
  }
  const double us = seconds_since(start) * 1e6 / kRounds;
  if (decoded != 2 * kRounds) throw std::runtime_error("codec round trip failed");
  return us;
}

Result serve_traced(const Options& options) {
  Result out;
  const si::ActorCritic model = fixed_model();
  const std::vector<Row> rows = make_rows(model, options.seed);
  Rig rig(model, nullptr);
  out.set("serve.start_ms", rig.start_ms, "ms");
  const Measured low = fixed_phase(rig, rows, "low", kLowRate,
                                  kLowShare * options.seconds,
                                  options.seed * 16 + 1, out);
  const Measured high = fixed_phase(rig, rows, "high", kHighRate,
                                   kHighShare * options.seconds,
                                   options.seed * 16 + 2, out);

  // The same low phase against a server recording per-request spans.
  si::SpanCollector spans(1 << 16);
  Rig traced_rig(model, &spans);
  const Phase traced = fixed_phase(traced_rig, rows, "low-traced", kLowRate,
                                   kLowShare * options.seconds,
                                   options.seed * 16 + 1, out)
                           .phase;
  out.set("serve.slo_rate_per_s", slo_rate(rig, rows, options, out), "req/s");

  const StatsSnapshot& l0 = low.before;
  const StatsSnapshot& l1 = low.after;
  const StatsSnapshot& h0 = high.before;
  const StatsSnapshot& h1 = high.after;
  out.set("serve.queue_wait_mean_us",
          (l1.queue_wait_sum - l0.queue_wait_sum) /
              (l1.queue_wait_count - l0.queue_wait_count),
          "us");
  out.set("serve.infer_mean_us",
          (l1.infer_sum - l0.infer_sum) / (l1.infer_count - l0.infer_count),
          "us");
  const double low_rows = (l1.rows - l0.rows) / (l1.batches - l0.batches);
  out.set("serve.rows_per_batch", (h1.rows - h0.rows) / (h1.batches - h0.batches),
          "count");
  const double codec = codec_us(rows);
  const int low_batch = std::max(1, static_cast<int>(std::lround(low_rows)));
  const double forward = forward_us_per_row(model.policy_net(), low_batch);
  const double floor_us = codec + forward * low_batch;
  // The end-to-end `lat_p50_us` is the `low` p50; the `high` p50 is
  // reported here. The tails, like the SLO rate above, are reported here,
  // unbounded, not as end-to-end metrics: on a shared VM their spread
  // across runs was far wider than any bound.
  out.set("serve.p50_us.high", high.phase.p50().value, "us");
  out.set("serve.p99_us.low", low.phase.p99().value, "us");
  out.set("serve.p99_us.high", high.phase.p99().value, "us");
  out.set("serve.codec_us", codec, "us");
  out.set("core.forward_us_per_row", forward, "us");
  out.set("serve.floor_us", floor_us, "us");
  out.set("serve.overhead_us", low.phase.p50().value - floor_us, "us");
  out.set("serve.degraded",
          (l1.degraded - l0.degraded) + (h1.degraded - h0.degraded), "count");
  out.set("serve.shed", (l1.shed - l0.shed) + (h1.shed - h0.shed), "count");
  out.set("serve.deadline_exceeded",
          (l1.deadline_exceeded - l0.deadline_exceeded) +
              (h1.deadline_exceeded - h0.deadline_exceeded),
          "count");
  out.set("gen.late_p99_us",
          std::max({low.phase.late_p99(), high.phase.late_p99(),
                    traced.late_p99()}),
          "us");
  // Share of the client-observed time spent inside the server (receipt to
  // reply enqueued); the rest is sockets, the I/O loop and the generator.
  double client_sum = 0.0;
  for (double l : low.phase.latency_us) client_sum += l;
  out.set("obs.coverage", (l1.latency_sum - l0.latency_sum) / client_sum,
          "ratio");
  const double low_p50 = low.phase.p50().value;
  out.set("obs.trace_overhead_pct",
          100.0 * (traced.p50().value - low_p50) / low_p50, "%");
  return out;
}

}  // namespace

Result run_serve(const Options& options) {
  return options.trace ? serve_traced(options) : serve_untraced(options);
}

}  // namespace perfbench
