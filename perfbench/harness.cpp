// perfbench_harness — the measured half of the repository benchmark.
//
//   perfbench_harness --workload train|sched|serve --seed N --seconds S
//                     --trace 0|1 --mphpc PATH --run-dir DIR
//   perfbench_harness --selftest --run-dir DIR
//
// A run builds its inputs from --seed (the profiling campaign itself is the
// fixed paper-scale one), trains the served model once untimed, then runs
// a fixed number of rounds of short measured units (--seconds only cuts a
// run short on a host too slow for them all):
//   setup   profiling campaign + dataset, and a fresh `mphpc serve` daemon
//           up to its first ok reply (one of each per round);
//   serve   on that daemon: an open-loop Poisson load at a nominal rate,
//           then a ladder of rates 1.25x apart up to a median-latency
//           limit, with feedback driving refits under load;
//   train   CrossArchPredictor::train with the Fig. 2 model on a 90/10
//           split, checked on the held-out rows;
//   sched   Fig. 7/8 (Model-based and User+RR, unlimited backfill) on
//           sampled jobs, and the `mphpc sched-scale` defaults on streamed
//           jobs, each run on every vCPU at once.
// The workload names the stage that gets twice the work per round.
// Repeated timings are reported as the best of the run (see stats.hpp).
// The last stdout line is the result object run.py checks and relays; the
// line before it is a report with provenance, samples, accounting and gate
// outcomes. With --trace 1 the harness also records spans around its calls
// into each layer, times single layer entry points in-process, prints each
// layer's self time and reports the per-layer metrics instead.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "arch/system_catalog.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/model_selection.hpp"
#include "core/predictor.hpp"
#include "data/split.hpp"
#include "loadgen.hpp"
#include "ml/compiled_ensemble.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/faults.hpp"
#include "sched/workload_gen.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "sim/runner.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workload/app_catalog.hpp"

namespace {

using namespace mphpc;
using perfbench::Scope;
using perfbench::Tracer;

constexpr int kInputsPerApp = 47;       // paper-scale campaign (11,280 rows)
constexpr double kMaxTestMae = 0.11;    // the paper's figure
constexpr std::size_t kSplits = 3;      // 90/10 splits fitted in turn
constexpr int kRounds = 3;     // per run, whatever the workload
constexpr int kMinRounds = 2;  // even when --seconds cuts the run short
constexpr std::size_t kPaperJobs = 10000;
constexpr int kPaperPerRound = 4;
constexpr std::size_t kScaleJobs = 50000;
constexpr int kScalePerRound = 2;
constexpr int kScaleDepth = 1000;       // `mphpc sched-scale` defaults
constexpr double kScaleMtbfH = 200.0;
constexpr double kScaleMttrH = 2.0;
constexpr double kScaleKillProb = 0.02;

constexpr int kServeThreads = 2;
constexpr int kRefitEvery = 128;
// Far enough below capacity that a slower host adds service time, not a
// queue; long enough that the 128th feedback, and so a refit, falls inside.
constexpr double kNominalRps = 1200.0;
constexpr double kNominalSeconds = 2.0;
constexpr double kWindowSeconds = 0.5;  // nominal phase windows for p50
constexpr double kLadderBaseRps = 5000.0;
constexpr double kLadderStep = 1.25;
constexpr int kLadderRungs = 5;
constexpr double kRungSeconds = 0.5;
constexpr double kP50LimitMs = 1.0;  // capacity: median latency limit

struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string mphpc;
  std::string run_dir;
};

std::string read_cpu_field(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) {
      const std::size_t colon = line.find(':');
      return colon == std::string::npos ? "" : line.substr(colon + 2);
    }
  }
  return "";
}

bool bit_identical(const ml::Matrix& a, const ml::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    const auto ra = a.row(r);
    const auto rb = b.row(r);
    if (std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(double)) != 0) return false;
  }
  return true;
}

void profile_json(JsonWriter& w, const sim::RunProfile& p) {
  w.begin_object("profile");
  w.field("app", p.app);
  w.field("system", arch::to_string(p.system));
  w.field("scale", workload::to_string(p.config.scale_class));
  w.field("nodes", p.config.nodes);
  w.field("ranks", p.config.ranks);
  w.field("cores", p.config.cores);
  w.field("gpus", p.config.gpus);
  w.field("device", arch::to_string(p.device));
  w.field("input_index", p.input_index);
  w.field("input_scale", p.input_scale);
  w.field("time_s", p.time_s);
  w.begin_object("counters");
  for (const arch::CounterKind kind : arch::kAllCounterKinds) {
    w.field(arch::to_string(kind), sim::get(p.counters, kind));
  }
  w.end_object();
  w.end_object();
}

/// Request body without its opening brace and id (see LoadGenerator).
std::string body_of(const JsonWriter& w) { return w.str().substr(1); }

std::string full_line(const std::string& id, const std::string& body) {
  return "{\"id\":\"" + id + "\"," + body;
}

/// Median per-call seconds of `fn` over `batches` batches of `calls`.
double per_call_seconds(int batches, int calls, const std::function<void(int)>& fn) {
  std::vector<double> samples;
  int k = 0;
  for (int b = 0; b < batches; ++b) {
    const auto start = std::chrono::steady_clock::now();
    for (int c = 0; c < calls; ++c) fn(k++);
    samples.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count() /
                      calls);
  }
  return perfbench::median(samples);
}

/// Pass/fail gates; any failure makes the run incorrect.
struct Gates {
  std::vector<std::string> failures;
  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

/// Operations attempted and failed, by kind.
struct Accounting {
  std::map<std::string, std::pair<long long, long long>> by_kind;
  void add(const std::string& kind, long long attempted, long long failed) {
    by_kind[kind].first += attempted;
    by_kind[kind].second += failed;
  }
  [[nodiscard]] long long attempted() const {
    long long n = 0;
    for (const auto& [k, v] : by_kind) n += v.first;
    return n;
  }
  [[nodiscard]] long long failed() const {
    long long n = 0;
    for (const auto& [k, v] : by_kind) n += v.second;
    return n;
  }
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Rung {
  double rate = 0.0;
  double p50_ms = 0.0;
  bool pass = false;
};

/// Highest rate whose median latency meets kP50LimitMs: log-linear
/// interpolation of p50 between the last passing and the first failing
/// rung (a rung fails on the limit, a growing backlog or a failed request).
double capacity_from_ladder(const std::vector<Rung>& rungs) {
  std::size_t f = 0;
  while (f < rungs.size() && rungs[f].pass) ++f;
  if (f == rungs.size()) return rungs.back().rate;
  const Rung& b = rungs[f];
  if (f == 0) {
    return b.p50_ms > kP50LimitMs ? b.rate * kP50LimitMs / b.p50_ms : b.rate / kLadderStep;
  }
  const Rung& a = rungs[f - 1];
  if (!(b.p50_ms > kP50LimitMs) || !(b.p50_ms > a.p50_ms)) return a.rate;
  const double frac = std::clamp(
      (std::log(kP50LimitMs) - std::log(a.p50_ms)) / (std::log(b.p50_ms) - std::log(a.p50_ms)),
      0.0, 1.0);
  return a.rate * std::pow(b.rate / a.rate, frac);
}

class Bench {
 public:
  explicit Bench(Config config)
      : cfg_(std::move(config)), tracer_(cfg_.trace), pool_(ThreadPool::shared()) {}

  int run() {
    std::filesystem::create_directories(cfg_.run_dir);
    {
      Scope root(tracer_, "bench.run");
      setup_campaign();
      {
        // The cold first fit pays page faults and pool start-up; it trains
        // the served model but is not one of the timed fits.
        Scope warm_up(tracer_, "bench.setup.first_fit");
        fit_and_check();
      }
      sample_paper_jobs();
      prepare_serving();
      // Short measured units, interleaved in a fixed number of rounds, so
      // that every metric has samples from across the run and both sides of
      // a comparison get the same number of samples. Each round repeats the
      // set-up; the workload's own stage gets twice the work of the others:
      // twice the fits or scheduler units, or a nominal phase twice as long.
      // --seconds only caps the run on a host too slow for all the rounds.
      const int train_units = cfg_.workload == "train" ? 2 : 1;
      const int sched_units = cfg_.workload == "sched" ? 2 : 1;
      const double nominal_s = kNominalSeconds * (cfg_.workload == "serve" ? 2 : 1);
      double measured = 0.0;
      while (rounds_ < kRounds && (rounds_ < kMinRounds || measured < cfg_.seconds)) {
        Scope r(tracer_, "bench.round");
        setup_campaign();
        serve_unit(nominal_s);
        for (int i = 0; i < train_units; ++i) train_s_.push_back(fit_and_check());
        for (int i = 0; i < sched_units * kPaperPerRound; ++i) paper_rep();
        for (int i = 0; i < sched_units * kScalePerRound; ++i) scale_rep();
        measured += r.close();
        ++rounds_;
      }
      std::fprintf(stderr,
                   "%d rounds in %.1f s: %zu fits, %zu paper and %zu scale repetitions, "
                   "%zu serve units\n",
                   rounds_, measured, train_s_.size(), paper_s_.size(), scale_s_.size(),
                   capacities_.size());
      if (cfg_.trace) layer_probes();
    }
    return finish();
  }

 private:
  // ---------------------------------------------------------------- setup
  /// One set-up sample: the profiling campaign and the dataset built from
  /// it. The first one's products are the run's inputs.
  void setup_campaign() {
    Scope setup(tracer_, "bench.setup.campaign");
    sim::CampaignOptions options;
    options.inputs_per_app = kInputsPerApp;  // and the default campaign seed
    Scope campaign(tracer_, "sim.run_campaign");
    auto profiles = sim::run_campaign(apps_, systems_, options, &pool_);
    campaign_s_.push_back(campaign.close());
    Scope build(tracer_, "core.build_dataset");
    auto dataset = core::build_dataset(profiles);
    build_dataset_s_.push_back(build.close());
    setup_campaign_s_.push_back(setup.close());
    if (profiles_.empty()) {
      profiles_ = std::move(profiles);
      dataset_ = std::move(dataset);
      for (std::uint64_t k = 0; k < kSplits; ++k) {
        splits_.push_back(
            data::train_test_split(dataset_.num_rows(), 0.10,
                                   derive_seed(cfg_.seed, "split", k)));
      }
    }
  }

  // ---------------------------------------------------------------- train
  /// One CrossArchPredictor::train with the Fig. 2 profile (GbtOptions{})
  /// on the next of the run's 90/10 splits, checked on its held-out rows;
  /// returns the training seconds. The first fit's model is the one the
  /// sched and serve stages use.
  double fit_and_check() {
    const std::size_t k = fits_++ % kSplits;
    const data::TrainTestSplit& split = splits_[k];
    core::CrossArchPredictor predictor;
    double seconds = 0.0;
    {
      Scope fit(tracer_, "core.train");
      predictor.train(dataset_, split.train, &pool_);
      seconds = fit.close();
    }
    const auto x_test = dataset_.features(split.test);
    const auto y_test = dataset_.targets(split.test);
    ml::Matrix compiled;
    {
      Scope s(tracer_, "core.predict");
      compiled = predictor.predict(x_test);
    }
    ml::Matrix reference;
    {
      Scope s(tracer_, "ml.gbt_predict_reference");
      reference = predictor.model().predict(x_test);
    }
    const auto metrics = core::evaluate(y_test, compiled);
    const bool identical = bit_identical(compiled, reference);
    gates_.check(identical, "train: compiled predictions differ from GbtRegressor::predict");
    gates_.check(metrics.mae <= kMaxTestMae, "train: test MAE above 0.11");
    auto& eval = evals_[k];
    const bool repeatable = !eval || (eval->mae == metrics.mae && eval->sos == metrics.sos);
    gates_.check(repeatable, "train: repeated training changed the held-out metrics");
    accounting_.add("train.fits", 1, identical && metrics.mae <= kMaxTestMae ? 0 : 1);
    eval = metrics;
    if (fits_ == 1) predictor_ = std::move(predictor);
    return seconds;
  }

  // ---------------------------------------------------------------- sched
  void sample_paper_jobs() {
    Scope s(tracer_, "bench.setup.sample_paper_jobs");
    const auto predictions = predictor_.predict(dataset_.features(), &pool_);
    paper_jobs_ = sched::sample_jobs(dataset_, predictions, apps_, kPaperJobs,
                                     derive_seed(cfg_.seed, "paper-jobs"));
  }

  /// Span-recording stopwatch usable from worker threads: the caller adds
  /// the collected spans to the tracer after joining.
  template <typename F>
  double timed(std::vector<perfbench::Span>& spans, const char* name, F&& fn) const {
    const double start = tracer_.now_us();
    fn();
    const double end = tracer_.now_us();
    spans.push_back({name, start, end, -1, -1});
    return (end - start) * 1e-6;
  }

  /// Runs `fn` on every vCPU at once, so each unit yields one sample per
  /// vCPU and the best of the run comes from whichever ran at full speed.
  template <typename R>
  std::vector<R> on_every_cpu(const std::function<R()>& fn) {
    std::vector<R> results(std::max(1U, std::thread::hardware_concurrency()));
    std::vector<std::thread> threads;
    for (R& r : results) threads.emplace_back([&fn, &r] { r = fn(); });
    for (std::thread& t : threads) t.join();
    return results;
  }

  void add_spans(std::vector<perfbench::Span>& spans, int parent) {
    for (perfbench::Span& span : spans) {
      span.parent = parent;
      tracer_.add(std::move(span));
    }
  }

  struct PaperRun {
    std::vector<perfbench::Span> spans;
    double model_s = 0.0;
    double user_rr_s = 0.0;
    double makespan_h = 0.0;
    bool complete = false;
  };

  /// Fig. 7/8: unlimited backfill under Model-based (the stateless
  /// indexed-backfill path) and User+RR (the stateful full-scan path).
  PaperRun run_paper() const {
    PaperRun run;
    sched::SimulationResult model_result;
    std::size_t user_rr_completed = 0;
    run.model_s = timed(run.spans, "sched.simulate.model", [&] {
      sched::ModelBasedAssigner assigner;
      model_result = sched::simulate(paper_jobs_, machines_, assigner);
    });
    run.user_rr_s = timed(run.spans, "sched.simulate.user_rr", [&] {
      sched::UserRoundRobinAssigner assigner;
      user_rr_completed = sched::simulate(paper_jobs_, machines_, assigner).completed_jobs;
    });
    run.makespan_h = model_result.makespan_s / 3600.0;
    run.complete = model_result.completed_jobs == kPaperJobs && user_rr_completed == kPaperJobs;
    return run;
  }

  void paper_rep() {
    Scope unit(tracer_, "bench.sched.paper");
    auto runs = on_every_cpu<PaperRun>([this] { return run_paper(); });
    unit.close();
    for (PaperRun& run : runs) {
      sim_model_s_.push_back(run.model_s);
      sim_user_rr_s_.push_back(run.user_rr_s);
      paper_s_.push_back(run.model_s + run.user_rr_s);
      gates_.check(run.complete, "sched: a Fig. 7/8 simulation lost jobs");
      gates_.check(!model_makespan_h_ || *model_makespan_h_ == run.makespan_h,
                   "sched: repeated Model-based simulation changed the makespan");
      model_makespan_h_ = run.makespan_h;
      accounting_.add("sched.simulations", 2, run.complete ? 0 : 1);
      add_spans(run.spans, unit.id());
    }
  }

  struct ScaleRun {
    std::vector<perfbench::Span> spans;
    double stream_s = 0.0;
    double faultfree_s = 0.0;
    double trace_s = 0.0;
    double faulty_s = 0.0;
    bool reconciled = false;
    bool accounted = false;
    long long kills = 0;
    long long retries = 0;
    std::size_t abandoned = 0;
    double success_ratio = 0.0;
  };

  /// The `mphpc sched-scale` defaults on kScaleJobs streamed jobs with
  /// true RPVs: sample, fault-free, fault trace, faulty.
  ScaleRun run_scale() const {
    ScaleRun run;
    std::vector<sched::Job> jobs;
    jobs.reserve(kScaleJobs);
    run.stream_s = timed(run.spans, "sched.stream_jobs", [&] {
      sched::WorkloadOptions options;
      options.count = kScaleJobs;
      options.seed = derive_seed(cfg_.seed, "scale-jobs");
      sched::stream_jobs(
          dataset_,
          [this](std::size_t row) {
            core::SystemTimes times{};
            for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
              times[k] = dataset_.time_on(row, static_cast<arch::SystemId>(k));
            }
            return core::Rpv::relative_to(times, arch::SystemId::kQuartz);
          },
          apps_, options, [&jobs](sched::Job&& job) { jobs.push_back(std::move(job)); });
    });
    sched::SchedulerOptions options;
    options.backfill_depth = kScaleDepth;
    double makespan_s = 0.0;
    run.faultfree_s = timed(run.spans, "sched.simulate.faultfree_scale", [&] {
      sched::GuardedModelBasedAssigner assigner;
      makespan_s = sched::simulate(jobs, machines_, assigner, options).makespan_s;
    });
    sched::FaultTrace trace;
    run.trace_s = timed(run.spans, "sched.fault_trace", [&] {
      const auto model = sched::FaultModel::uniform(
          kScaleMtbfH * 3600.0, kScaleMttrH * 3600.0, kScaleKillProb, sched::RetryPolicy{},
          derive_seed(cfg_.seed, "faults"));
      trace = model.generate(machines_, 4.0 * makespan_s);
    });
    sched::SimulationResult result;
    run.faulty_s = timed(run.spans, "sched.simulate.faulty_scale", [&] {
      sched::GuardedModelBasedAssigner assigner;
      result = sched::simulate(jobs, machines_, assigner, trace, options);
    });

    double committed = 0.0;
    for (const double v : result.node_seconds) committed += v;
    double spans = 0.0;
    long long attempts = 0;
    for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
      const sched::JobOutcome& o = result.outcomes[i];
      attempts += o.attempts;
      if (!o.abandoned) {
        spans += (o.end_s - o.start_s) * static_cast<double>(jobs[i].nodes_required);
      }
    }
    run.reconciled = std::abs(committed - spans) <= 1e-6 * std::max(committed, 1.0);
    run.accounted = result.completed_jobs + result.abandoned_jobs == kScaleJobs;
    run.kills = result.jobs_killed;
    run.retries = result.total_retries;
    run.abandoned = result.abandoned_jobs;
    run.success_ratio =
        static_cast<double>(result.completed_jobs) / static_cast<double>(attempts);
    return run;
  }

  void scale_rep() {
    Scope unit(tracer_, "bench.sched.scale");
    auto runs = on_every_cpu<ScaleRun>([this] { return run_scale(); });
    unit.close();
    for (ScaleRun& run : runs) {
      stream_s_.push_back(run.stream_s);
      faultfree_s_.push_back(run.faultfree_s);
      fault_trace_s_.push_back(run.trace_s);
      faulty_s_.push_back(run.faulty_s);
      gates_.check(run.reconciled,
                   "sched: faulty scale-run node-seconds differ from the outcome spans");
      gates_.check(run.accounted, "sched: completed + abandoned != jobs on the faulty scale run");
      gates_.check(scale_s_.empty() || static_cast<double>(run.kills) == kills_,
                   "sched: a repeated faulty scale run changed its kill count");
      scale_s_.push_back(run.stream_s + run.faultfree_s + run.trace_s + run.faulty_s);
      accounting_.add("sched.simulations", 2, run.reconciled && run.accounted ? 0 : 1);
      kills_ = static_cast<double>(run.kills);
      retries_ = static_cast<double>(run.retries);
      abandoned_ = static_cast<double>(run.abandoned);
      success_ratio_ = run.success_ratio;
      add_spans(run.spans, unit.id());
    }
  }

  // ---------------------------------------------------------------- serve
  /// Fresh jobs (inputs the model never saw), one predict body per profile
  /// and one feedback body with its measured times on every system.
  void build_corpus() {
    const sim::Profiler profiler(derive_seed(cfg_.seed, "corpus-profiler"));
    for (const workload::AppSignature& sig : apps_.all()) {
      const std::uint64_t inputs_seed = derive_seed(cfg_.seed, "corpus-inputs");
      for (const auto& input : workload::make_inputs(sig, 2, inputs_seed)) {
        const auto runs = sim::run_input(sig, input, systems_, profiler);
        const std::size_t per_system = runs.size() / arch::kNumSystems;
        for (std::size_t i = 0; i < runs.size(); ++i) {
          JsonWriter predict;
          predict.begin_object();
          predict.field("op", "predict");
          profile_json(predict, runs[i]);
          predict.end_object();
          predict_bodies_.push_back(body_of(predict));

          JsonWriter feedback;
          feedback.begin_object();
          feedback.field("op", "feedback");
          profile_json(feedback, runs[i]);
          feedback.begin_object("times");
          for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
            feedback.field(arch::to_string(static_cast<arch::SystemId>(k)),
                           runs[k * per_system + i % per_system].time_s);
          }
          feedback.end_object();
          feedback.end_object();
          feedback_bodies_.push_back(body_of(feedback));
          corpus_profiles_.push_back(runs[i]);
        }
      }
    }
  }

  std::vector<std::string> daemon_args(const std::string& state_dir,
                                       const std::string& socket) const {
    return {"serve", "--state-dir", state_dir, "--model", model_path_, "--socket", socket,
            "--threads", std::to_string(kServeThreads), "--refit-every",
            std::to_string(kRefitEvery)};
  }

  /// Starts a daemon on a fresh model store; returns seconds until its
  /// first ok reply.
  double launch_daemon() {
    const std::string tag = std::to_string(daemon_launches_++);
    state_dir_ = cfg_.run_dir + "/state" + tag;
    std::filesystem::remove_all(state_dir_);
    socket_ = cfg_.run_dir + "/d" + tag + ".sock";
    std::filesystem::remove(socket_);
    const auto start = std::chrono::steady_clock::now();
    daemon_ = std::make_unique<perfbench::Daemon>(cfg_.mphpc, daemon_args(state_dir_, socket_),
                                                  cfg_.run_dir + "/daemon.log");
    daemon_->wait_ready(socket_, full_line("probe", predict_bodies_.front()), 30.0);
    accounting_.add("serve.startup_probes", 1, 0);
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  }

  /// Collects the daemon's counters and stops it.
  void stop_daemon() {
    const std::string stats = perfbench::request_reply(
        socket_, R"({"op":"stats","id":"perfbench-stats"})", 5.0);
    const auto counter = [&stats](const std::string& key) {
      const std::size_t at = stats.find("\"" + key + "\":");
      return at == std::string::npos ? 0.0 : std::atof(stats.c_str() + at + key.size() + 3);
    };
    gates_.check(!stats.empty(), "serve: no stats reply");
    serve_refits_ += counter("refits");
    serve_shed_ += counter("shed");
    serve_errors_ += counter("request_errors") + counter("deadline_expired");
    daemon_rss_kb_ = std::max(daemon_rss_kb_, daemon_->stop(socket_, 10.0));
    daemon_.reset();
    std::filesystem::remove_all(state_dir_);
  }

  /// Saves the served model and builds the request corpus.
  void prepare_serving() {
    model_path_ = cfg_.run_dir + "/model.txt";
    predictor_.save(model_path_);
    build_corpus();
  }

  void account_phase(const perfbench::PhaseResult& p, const std::string& label, int span) {
    const auto latency = perfbench::summarize(p.latencies_ms());
    std::fprintf(stderr,
                 "serve %s %.0f req/s: sent %zu of %zu, ok %zu, unanswered %zu%s; "
                 "p50 %.3f ms, p%g %.3f ms\n",
                 label.c_str(), p.options.rate_rps, p.sent, p.records.size(), p.good,
                 p.unanswered, p.stopped_early ? ", stopped: backlog" : "", latency.p50,
                 latency.tail_pct, latency.tail);
    accounting_.add("serve.requests", static_cast<long long>(p.sent),
                    static_cast<long long>(p.failed() + p.duplicates));
    serve_sent_ += p.sent;
    serve_good_ += p.good;
    serve_unanswered_ += p.unanswered;
    serve_invalid_ += p.invalid;
    serve_duplicates_ += p.duplicates;
    for (const auto& [code, n] : p.error_codes) serve_error_codes_[code] += n;
    gates_.check(p.failed() == 0 && p.duplicates == 0,
                 "serve: " + label + " did not get exactly one ok reply per request");
    if (!tracer_.enabled()) return;
    const double t0 = tracer_.to_us(p.start);
    for (std::size_t i = 0; i < p.records.size(); ++i) {
      const auto& r = p.records[i];
      if (r.reply_s < 0.0) continue;
      tracer_.add({"serve.request", t0 + r.due_s * 1e6, t0 + r.reply_s * 1e6, span,
                   p.first_id + static_cast<long long>(i)});
    }
  }

  /// Two connections, one feedback per 16 requests, replies checked
  /// against the served guard's RPV bounds.
  static perfbench::LoadOptions load_options(double rate_rps, double seconds,
                                             std::uint64_t seed) {
    perfbench::LoadOptions options;
    options.rate_rps = rate_rps;
    options.seconds = seconds;
    options.seed = seed;
    options.connections = 2;
    options.feedback_every = 16;
    const core::RpvGuardOptions bounds;
    options.rpv_min = bounds.min_ratio;
    options.rpv_max = bounds.max_ratio;
    return options;
  }

  /// One serve unit on a fresh daemon: its start-up (a set-up sample), the
  /// nominal rate, then the ladder up to the p50 limit.
  void serve_unit(double nominal_s) {
    const std::uint64_t unit = capacities_.size();
    {
      Scope s(tracer_, "bench.setup.daemon");
      setup_daemon_s_.push_back(launch_daemon());
    }
    perfbench::LoadGenerator generator(socket_, predict_bodies_, feedback_bodies_);
    Scope pass(tracer_, "bench.serve.unit");
    double unit_p50_ms = 0.0;
    {
      const auto options =
          load_options(kNominalRps, nominal_s, derive_seed(cfg_.seed, "nominal", unit));
      Scope s(tracer_, "bench.serve.nominal");
      const auto phase = generator.run(options);
      s.close();
      account_phase(phase, "nominal", s.id());
      gates_.check(!phase.stopped_early, "serve: backlog grew at the nominal rate");
      // The tail over the whole phase: enough samples for the percentile
      // rule to reach p99 (at least ten beyond it).
      const auto latency = perfbench::summarize(phase.latencies_ms());
      unit_p50_ms = latency.p50;
      nominal_tail_ms_.push_back(latency.tail);
      nominal_tail_pct_ = std::min(nominal_tail_pct_, latency.tail_pct);
      nominal_samples_ += latency.n;
      const auto lag = phase.lags_ms();
      nominal_lag_ms_.insert(nominal_lag_ms_.end(), lag.begin(), lag.end());
      std::vector<std::vector<double>> windows(
          static_cast<std::size_t>(std::ceil(nominal_s / kWindowSeconds - 1e-9)));
      for (const auto& r : phase.records) {
        if (!r.good) continue;
        const auto w = std::min(windows.size() - 1,
                                static_cast<std::size_t>(r.due_s / kWindowSeconds));
        windows[w].push_back((r.reply_s - r.due_s) * 1e3);
      }
      for (const auto& w : windows) window_p50_ms_.push_back(perfbench::median(w));
    }
    std::vector<Rung> rungs;
    for (int k = 0; k < kLadderRungs; ++k) {
      const auto options =
          load_options(kLadderBaseRps * std::pow(kLadderStep, k), kRungSeconds,
                       derive_seed(cfg_.seed, "rung", unit, static_cast<std::uint64_t>(k)));
      Scope s(tracer_, "bench.serve.rung");
      const auto phase = generator.run(options);
      s.close();
      account_phase(phase, "rung", s.id());
      Rung rung;
      rung.rate = options.rate_rps;
      rung.p50_ms = perfbench::median(phase.latencies_ms());
      rung.pass = !phase.stopped_early && phase.failed() == 0 && rung.p50_ms <= kP50LimitMs;
      rungs.push_back(rung);
      ladder_rates_.push_back(rung.rate);
      if (!rung.pass) break;
    }
    pass.close();
    capacities_.push_back(capacity_from_ladder(rungs));
    std::fprintf(stderr, "serve unit: nominal p50 %.3f ms, capacity %.0f req/s\n", unit_p50_ms,
                 capacities_.back());
    stop_daemon();
  }

  // ------------------------------------------------------ traced probes
  /// Times single layer entry points in-process (traced runs only).
  void layer_probes() {
    Scope probes(tracer_, "bench.layer_probes");
    ml::Matrix x_train;
    ml::Matrix y_train;
    {
      Scope s(tracer_, "core.features");
      x_train = dataset_.features(splits_.front().train);
      layer("core.features_s", s.close(), "s");
      y_train = dataset_.targets(splits_.front().train);
    }
    {
      ml::GbtRegressor model;
      Scope s(tracer_, "ml.gbt_fit");
      model.fit(x_train, y_train, &pool_);
      layer("ml.gbt_fit_s", s.close(), "s");
    }
    const ml::GbtRegressor& model = predictor_.model();
    std::vector<double> compile_s;
    for (int i = 0; i < 5; ++i) {
      Scope s(tracer_, "ml.compile");
      const auto engine = ml::CompiledEnsemble::compile(model);
      compile_s.push_back(s.close());
    }
    layer("ml.compile_ms", perfbench::median(compile_s) * 1e3, "ms");
    double trees = 0.0;
    for (std::size_t k = 0; k < model.n_outputs(); ++k) {
      trees += static_cast<double>(model.ensemble(k).size());
    }
    layer("ml.trees", trees, "count");
    const ml::CompiledEnsemble& engine = predictor_.compiled();
    layer("ml.nodes", static_cast<double>(engine.n_nodes()), "count");

    const ml::Matrix all = dataset_.features();
    std::vector<double> batch_s;
    for (int i = 0; i < 5; ++i) {
      Scope s(tracer_, "ml.predict_batch");
      const auto out = engine.predict(all, &pool_);
      batch_s.push_back(s.close());
    }
    layer("ml.predict_batch_ns_per_row",
          perfbench::median(batch_s) * 1e9 / static_cast<double>(all.rows()), "ns");
    {
      Scope s(tracer_, "ml.predict_row");
      ml::CompiledEnsemble::RowScratch scratch;
      std::vector<double> out(engine.n_outputs());
      const int rows = static_cast<int>(all.rows());
      layer("ml.predict_row_us", 1e6 * per_call_seconds(20, 200, [&](int k) {
              engine.predict_row(all.row(static_cast<std::size_t>(k % rows)), out, scratch);
            }), "us");
    }
    const std::span<const sim::RunProfile> profiles(corpus_profiles_);
    const auto window = [&](int k, std::size_t size) {
      return profiles.subspan(static_cast<std::size_t>(k) * size % (profiles.size() - size), size);
    };
    {
      Scope s(tracer_, "core.predict_rpvs");
      layer("core.predict_rpvs_us.b1", 1e6 * per_call_seconds(20, 50, [&](int k) {
              (void)predictor_.predict_rpvs(window(k, 1));
            }), "us");
      layer("core.predict_rpvs_us.b64", 1e6 * per_call_seconds(20, 5, [&](int k) {
              (void)predictor_.predict_rpvs(window(k, 64));
            }), "us");
    }
    {
      auto guard = core::GuardedPredictor::load(model_path_);
      Scope s(tracer_, "core.guard_predict_rpvs");
      layer("core.guard_predict_us.b64", 1e6 * per_call_seconds(20, 5, [&](int k) {
              (void)guard.predict_rpvs(window(k, 64));
            }), "us");
    }

    std::vector<std::string> predict_lines;
    std::vector<std::string> feedback_lines;
    for (std::size_t i = 0; i < predict_bodies_.size(); ++i) {
      const std::string n = std::to_string(i);
      predict_lines.push_back(full_line(std::string(1, 'q').append(n), predict_bodies_[i]));
      feedback_lines.push_back(full_line(std::string(1, 'f').append(n), feedback_bodies_[i]));
    }
    const auto n_lines = static_cast<int>(predict_lines.size());
    {
      Scope s(tracer_, "serve.parse_request");
      layer("serve.parse_us.predict", 1e6 * per_call_seconds(20, 100, [&](int k) {
              (void)serve::parse_request(predict_lines[static_cast<std::size_t>(k % n_lines)]);
            }), "us");
      layer("serve.parse_us.feedback", 1e6 * per_call_seconds(20, 100, [&](int k) {
              (void)serve::parse_request(feedback_lines[static_cast<std::size_t>(k % n_lines)]);
            }), "us");
    }
    std::vector<serve::Request> predicts;
    std::vector<serve::Request> feedbacks;
    for (int i = 0; i < n_lines; ++i) {
      predicts.push_back(serve::parse_request(predict_lines[static_cast<std::size_t>(i)]));
      feedbacks.push_back(serve::parse_request(feedback_lines[static_cast<std::size_t>(i)]));
    }

    serve::ServeOptions options;
    options.state_dir = cfg_.run_dir + "/inproc";
    std::filesystem::remove_all(options.state_dir);
    std::filesystem::create_directories(options.state_dir);
    options.model_path = model_path_;
    options.refit_every = kRefitEvery;
    serve::ServeCore core(options);
    ThreadPool serve_pool(kServeThreads);
    {
      Scope s(tracer_, "serve.handle_request");
      layer("serve.handle_us.predict", 1e6 * per_call_seconds(20, 50, [&](int k) {
              (void)core.handle_request(predicts[static_cast<std::size_t>(k % n_lines)], &serve_pool);
            }), "us");
      layer("serve.handle_us.feedback", 1e6 * per_call_seconds(10, kRefitEvery / 10, [&](int k) {
              (void)core.handle_request(feedbacks[static_cast<std::size_t>(k % n_lines)], &serve_pool);
            }), "us");
    }
    std::vector<double> refit_s;
    for (int r = 0; r < 3; ++r) {
      for (int k = 0; !core.refit_pending() && k < 4 * kRefitEvery; ++k) {
        (void)core.handle_request(feedbacks[static_cast<std::size_t>((r * kRefitEvery + k) % n_lines)],
                                  &serve_pool);
      }
      Scope s(tracer_, "serve.run_refit");
      const bool published = core.run_refit(&serve_pool);
      refit_s.push_back(s.close());
      gates_.check(published, "serve: in-process refit did not publish");
    }
    layer("serve.refit_s", perfbench::median(refit_s), "s");

    std::vector<double> warm_s;
    const std::size_t rows = std::min<std::size_t>(1024, x_train.rows());
    std::vector<std::size_t> tail(rows);
    for (std::size_t i = 0; i < rows; ++i) tail[i] = x_train.rows() - rows + i;
    const ml::Matrix xw = x_train.select_rows(tail);
    const ml::Matrix yw = y_train.select_rows(tail);
    for (int r = 0; r < 3; ++r) {
      core::CrossArchPredictor copy = predictor_;
      Scope s(tracer_, "ml.warm_refit");
      copy.warm_refit(xw, yw, serve::ServeOptions{}.refit_rounds, &serve_pool);
      warm_s.push_back(s.close());
    }
    layer("ml.warm_refit_s", perfbench::median(warm_s), "s");
  }

  void layer(const std::string& name, double value, const std::string& unit) {
    layers_[name] = {value, unit};
  }

  // ---------------------------------------------------------------- output
  int finish() {
    rusage self{};
    ::getrusage(RUSAGE_SELF, &self);
    gates_.check(serve_refits_ >= 1.0, "serve: no refit happened under load");

    std::map<std::string, Metric> e2e;
    using perfbench::least;
    // Set-up is repeated every round and reported as its median, so that
    // work moved into set-up shows in full.
    e2e["setup_s"] = {perfbench::median(setup_campaign_s_) + perfbench::median(setup_daemon_s_),
                      "s"};
    e2e["peak_rss_mb"] = {static_cast<double>(self.ru_maxrss + daemon_rss_kb_) / 1024.0, "MB"};
    e2e["train_s"] = {least(train_s_), "s"};
    // Held-out accuracy averaged over the run's splits: one 10 % test set
    // moves MAE by about 10 % from seed to seed, three by less.
    double mae = 0.0;
    double sos = 0.0;
    for (const auto& eval : evals_) {
      gates_.check(eval.has_value(), "train: a split was never fitted");
      mae += eval.value_or(core::EvalMetrics{}).mae / static_cast<double>(kSplits);
      sos += eval.value_or(core::EvalMetrics{}).sos / static_cast<double>(kSplits);
    }
    e2e["test_mae"] = {mae, "rpv"};
    e2e["test_sos"] = {sos, "fraction"};
    e2e["sched_paper_s"] = {least(paper_s_), "s"};
    e2e["model_makespan_h"] = {*model_makespan_h_, "h"};
    e2e["sched_jobs_per_s"] = {static_cast<double>(kScaleJobs) / least(scale_s_),
                               "jobs/s"};
    e2e["serve_p50_ms"] = {least(window_p50_ms_), "ms"};

    if (cfg_.trace) {
      layer("sim.campaign_s", least(campaign_s_), "s");
      layer("sim.profiles", static_cast<double>(profiles_.size()), "count");
      layer("core.build_dataset_s", least(build_dataset_s_), "s");
      layer("sched.simulate_s.model", least(sim_model_s_), "s");
      layer("sched.simulate_s.user_rr", least(sim_user_rr_s_), "s");
      layer("sched.stream_jobs_s", least(stream_s_), "s");
      layer("sched.fault_trace_ms", least(fault_trace_s_) * 1e3, "ms");
      layer("sched.simulate_s.faultfree_scale", least(faultfree_s_), "s");
      layer("sched.simulate_s.faulty_scale", least(faulty_s_), "s");
      layer("sched.kills", kills_, "count");
      layer("sched.retries", retries_, "count");
      layer("sched.abandoned", abandoned_, "count");
      layer("sched.attempt_success_ratio", success_ratio_, "ratio");
      layer("serve.refits", serve_refits_, "count");
      layer("serve.shed", serve_shed_, "count");
      layer("serve.errors", serve_errors_, "count");
      layer("serve.p99_ms", perfbench::median(nominal_tail_ms_), "ms");
      layer("serve.capacity_rps", perfbench::highest(capacities_), "req/s");
      std::sort(nominal_lag_ms_.begin(), nominal_lag_ms_.end());
      layer("serve.generator_lag_ms", perfbench::percentile_sorted(nominal_lag_ms_, 99.0), "ms");
      layer("serve.transport_us",
            e2e["serve_p50_ms"].value * 1e3 - layers_["serve.handle_us.predict"].value, "us");
    }

    const bool correct = gates_.failures.empty() && accounting_.failed() == 0;
    JsonWriter report;
    report.begin_object();
    report.begin_object("report");
    report.begin_object("provenance");
    report.field("workload", cfg_.workload);
    report.field("seed", static_cast<long long>(cfg_.seed));
    report.field("seconds", cfg_.seconds);
    report.field("trace", cfg_.trace);
    report.field("rounds", static_cast<long long>(rounds_));
    report.field("build_type", PERFBENCH_BUILD_TYPE);
    report.field("contract_mode", PERFBENCH_CONTRACT_MODE);
    report.field("nproc", static_cast<long long>(std::thread::hardware_concurrency()));
    report.field("cpu_model", read_cpu_field("model name"));
    report.field("avx512f", read_cpu_field("flags").find("avx512f") != std::string::npos);
    report.field("serve_nominal_rps", kNominalRps);
    report.field("serve_nominal_samples", static_cast<long long>(nominal_samples_));
    report.field("serve_nominal_tail_pct", nominal_tail_pct_);
    report.begin_array("serve_ladder_rps");
    for (const double r : ladder_rates_) report.value(r);
    report.end_array();
    report.end_object();
    report.begin_object("samples");
    const auto series = [&report](const char* key, const std::vector<double>& values) {
      report.begin_array(key);
      for (const double v : values) report.value(v);
      report.end_array();
    };
    series("setup_campaign_s", setup_campaign_s_);
    series("setup_daemon_s", setup_daemon_s_);
    series("train_s", train_s_);
    series("sched_paper_s", paper_s_);
    series("sched_scale_s", scale_s_);
    series("serve_nominal_tail_ms", nominal_tail_ms_);
    series("serve_capacity_rps", capacities_);
    series("serve_window_p50_ms", window_p50_ms_);
    report.end_object();
    report.begin_object("serve_requests");
    report.field("sent", serve_sent_);
    report.field("ok", serve_good_);
    report.field("unanswered", serve_unanswered_);
    report.field("invalid", serve_invalid_);
    report.field("duplicates", serve_duplicates_);
    report.field("shed", serve_shed_);
    report.begin_object("error_codes");
    for (const auto& [code, n] : serve_error_codes_) report.field(code, n);
    report.end_object();
    report.end_object();
    report.begin_object("accounting");
    for (const auto& [kind, v] : accounting_.by_kind) {
      report.begin_object(kind);
      report.field("attempted", v.first);
      report.field("failed", v.second);
      report.end_object();
    }
    report.end_object();
    report.begin_array("gate_failures");
    for (const auto& f : gates_.failures) report.value(f);
    report.end_array();
    report.begin_object("end_to_end");
    for (const auto& [name, m] : e2e) report.field(name, m.value);
    report.end_object();
    if (cfg_.trace) {
      report.begin_object("self_s_by_layer");
      for (const auto& [layer_name, s] : tracer_.self_seconds_by_layer()) {
        report.field(layer_name, s);
        std::fprintf(stderr, "self time %-6s %10.4f s\n", layer_name.c_str(), s);
      }
      report.end_object();
      const std::string trace_path =
          cfg_.run_dir + "/trace-" + cfg_.workload + "-" + std::to_string(cfg_.seed) + ".jsonl";
      tracer_.write_jsonl(trace_path);
      report.field("trace_file", trace_path);
    }
    report.end_object();
    report.end_object();
    std::printf("%s\n", report.str().c_str());

    const auto& metrics = cfg_.trace ? layers_ : e2e;
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, \"metrics\": {",
                correct ? "true" : "false", accounting_.attempted(), accounting_.failed());
    bool first = true;
    for (const auto& [name, m] : metrics) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ",
                  name.c_str(), m.value, m.unit.c_str());
      first = false;
    }
    std::printf("}}\n");
    std::fflush(stdout);
    for (const auto& f : gates_.failures) std::fprintf(stderr, "GATE FAILED: %s\n", f.c_str());
    return 0;
  }

  Config cfg_;
  Tracer tracer_;
  ThreadPool& pool_;
  const workload::AppCatalog apps_;
  const arch::SystemCatalog systems_;

  std::vector<sim::RunProfile> profiles_;
  core::Dataset dataset_;
  std::vector<data::TrainTestSplit> splits_;
  std::size_t fits_ = 0;
  int rounds_ = 0;
  core::CrossArchPredictor predictor_;
  std::array<std::optional<core::EvalMetrics>, kSplits> evals_;
  std::optional<double> model_makespan_h_;
  std::vector<sched::Job> paper_jobs_;
  const std::vector<sched::Machine> machines_ = sched::default_cluster(systems_);

  std::string model_path_;
  std::string socket_;
  std::string state_dir_;
  std::unique_ptr<perfbench::Daemon> daemon_;
  long daemon_rss_kb_ = 0;
  int daemon_launches_ = 0;
  std::vector<std::string> predict_bodies_;
  std::vector<std::string> feedback_bodies_;
  std::vector<sim::RunProfile> corpus_profiles_;

  std::vector<double> setup_campaign_s_, campaign_s_, build_dataset_s_, setup_daemon_s_;
  std::vector<double> train_s_, paper_s_, scale_s_;
  std::vector<double> sim_model_s_, sim_user_rr_s_, stream_s_, faultfree_s_, fault_trace_s_,
      faulty_s_;
  std::vector<double> nominal_lag_ms_, window_p50_ms_, nominal_tail_ms_, capacities_,
      ladder_rates_;
  double nominal_tail_pct_ = 100.0;  // lowest tail percentile of any unit
  std::size_t nominal_samples_ = 0;
  double kills_ = 0, retries_ = 0, abandoned_ = 0, success_ratio_ = 0;
  double serve_refits_ = 0, serve_shed_ = 0, serve_errors_ = 0;
  std::size_t serve_sent_ = 0, serve_good_ = 0, serve_unanswered_ = 0, serve_invalid_ = 0,
              serve_duplicates_ = 0;
  std::map<std::string, std::size_t> serve_error_codes_;

  Gates gates_;
  Accounting accounting_;
  std::map<std::string, Metric> layers_;
};

// ---------------------------------------------------------------- selftest

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

void selftest_percentiles() {
  using perfbench::tail_percentile;
  expect(tail_percentile(1000) == 99.0, "1000 samples report p99");
  expect(tail_percentile(999) == 90.0, "999 samples fall back to p90");
  expect(tail_percentile(10000) == 99.9, "10000 samples report p99.9");
  expect(tail_percentile(100) == 90.0, "100 samples report p90");
  expect(tail_percentile(99) == 50.0, "99 samples report only the median");
  expect(tail_percentile(0) == 50.0, "no samples report only the median");
  expect(perfbench::median({3, 1, 2}) == 2.0, "odd median");
  expect(perfbench::median({4, 1, 3, 2}) == 2.5, "even median");
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  expect(perfbench::percentile_sorted(v, 99.0) == 990.0, "nearest-rank p99 of 1..1000");
  const auto s = perfbench::summarize(v);
  expect(s.n == 1000 && s.p50 == 500.5 && s.tail == 990.0, "summary of 1..1000");
  expect(std::abs(capacity_from_ladder({{4000, 0.5, true}, {5000, 2.0, false}}) -
                  4000 * std::sqrt(1.25)) < 1e-6,
         "capacity interpolates p50 log-linearly");
  expect(capacity_from_ladder({{4000, 0.5, true}, {5000, 0.7, true}}) == 5000,
         "capacity saturates at the top rung");
}

/// A fake daemon that answers every line with an ok predict reply but
/// stops reading for `stall_ms` once it has answered `stall_after` lines.
void fake_server(int listen_fd, int stall_after, int stall_ms) {
  const int fd = ::accept(listen_fd, nullptr, nullptr);
  if (fd < 0) return;
  std::string buffer;
  char chunk[4096];
  int answered = 0;
  for (;;) {
    const ssize_t got = ::read(fd, chunk, sizeof chunk);
    if (got <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(got));
    std::string out;
    for (std::size_t nl; (nl = buffer.find('\n')) != std::string::npos;) {
      const std::string line = buffer.substr(0, nl);
      buffer.erase(0, nl + 1);
      const std::size_t at = line.find("\"id\":\"") + 6;
      const std::string id = line.substr(at, line.find('"', at) - at);
      out += "{\"id\":\"" + id + "\",\"ok\":true,\"op\":\"predict\",\"rpv\":[1,0.5,2,1]}\n";
      if (++answered == stall_after) {
        (void)::write(fd, out.data(), out.size());
        out.clear();
        std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms));
      }
    }
    if (!out.empty()) (void)::write(fd, out.data(), out.size());
  }
  ::close(fd);
}

void selftest_open_loop(const std::string& run_dir) {
  std::filesystem::create_directories(run_dir);
  const std::string path = run_dir + "/selftest.sock";
  std::filesystem::remove(path);
  const int listen_fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
  expect(::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0 &&
             ::listen(listen_fd, 4) == 0,
         "bind the fake server");
  constexpr int kStallAfter = 100;
  constexpr int kStallMs = 300;
  std::thread server(fake_server, listen_fd, kStallAfter, kStallMs);

  // Large requests fill the socket buffers during the stall, so the
  // sender itself blocks: only timing from the due time sees the wait.
  const std::string body = "\"op\":\"predict\",\"pad\":\"" + std::string(8000, 'x') + "\"}";
  perfbench::LoadGenerator generator(path, {body}, {});
  perfbench::LoadOptions options;
  options.rate_rps = 1000.0;
  options.seconds = 1.0;
  options.connections = 1;
  options.feedback_every = 0;
  options.max_outstanding = 100000;
  const auto phase = generator.run(options);
  server.join();
  ::close(listen_fd);
  std::filesystem::remove(path);

  expect(phase.sent > 800 && phase.failed() == 0 && phase.good == phase.records.size(),
         "every request answered once");
  const auto latencies = phase.latencies_ms();
  const double stall_start = phase.records[kStallAfter - 1].reply_s;
  const double stall_end = stall_start + kStallMs * 1e-3;
  std::size_t behind = 0;
  std::size_t hidden = 0;
  for (std::size_t i = 0; i < latencies.size(); ++i) {
    const double due = phase.records[i].due_s;
    if (due <= stall_start + 0.01 || due >= stall_end - 0.05) continue;
    ++behind;
    if (latencies[i] < 0.9e3 * (stall_end - due)) ++hidden;
  }
  expect(behind > 150, "requests were due during the stall");
  expect(hidden == 0, "stall visible in the latency of every request due during it");
  const auto lag = perfbench::summarize(phase.lags_ms());
  expect(lag.tail > 100.0, "generator lag shows the sender held up by the stall");
}

void selftest_tracer() {
  Tracer tracer(true);
  tracer.add({"outer.a", 0.0, 100.0, -1, -1});
  tracer.add({"inner.b", 10.0, 40.0, 0, 1});
  tracer.add({"inner.b", 30.0, 60.0, 0, 2});
  const auto self = tracer.self_seconds_by_layer();
  expect(std::abs(self.at("outer") - 50e-6) < 1e-12, "self time subtracts the union of children");
  expect(std::abs(self.at("inner") - 60e-6) < 1e-12, "children keep their own durations");
}

int selftest(const std::string& run_dir) {
  selftest_percentiles();
  selftest_tracer();
  selftest_open_loop(run_dir);
  std::printf("selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool self = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string { return i + 1 < argc ? argv[++i] : ""; };
    if (arg == "--workload") cfg.workload = next();
    else if (arg == "--seed") cfg.seed = std::stoull(next());
    else if (arg == "--seconds") cfg.seconds = std::stod(next());
    else if (arg == "--trace") cfg.trace = next() == "1";
    else if (arg == "--mphpc") cfg.mphpc = next();
    else if (arg == "--run-dir") cfg.run_dir = next();
    else if (arg == "--selftest") self = true;
    else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (cfg.run_dir.empty()) {
    std::fprintf(stderr, "--run-dir is required\n");
    return 2;
  }
  if (self) return selftest(cfg.run_dir);
  if ((cfg.workload != "train" && cfg.workload != "sched" && cfg.workload != "serve") ||
      cfg.mphpc.empty()) {
    std::fprintf(stderr, "--workload train|sched|serve and --mphpc are required\n");
    return 2;
  }
  try {
    return Bench(cfg).run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
