// mphpc — command-line front end to the library.
//
//   mphpc dataset  [--inputs N] [--campaign-dir DIR] [--out FILE.csv]
//   mphpc train    [--inputs N] [--out MODEL] [--rounds N] [--depth N] [--bins B]
//                  [--checkpoint-every K] [--resume]
//                  (checkpointed runs default --campaign-dir to MODEL.campaign)
//   mphpc evaluate [--inputs N] [--model MODEL]
//   mphpc predict  --app NAME [--system SYS] [--scale 1core|1node|2node]
//                  [--model MODEL]
//   mphpc schedule [--jobs N] [--inputs N] [--strategy all|rr|random|user|model|oracle]
//   mphpc sched-faults [--jobs N] [--inputs N] [--node-mtbf-h H] [--mttr-h H]
//                  [--kill-prob P] [--max-attempts K] [--seed S]
//                  [--checkpoint-overhead-s C] [--checkpoint-interval-s I]
//                  [--swf FILE] [--swf-procs-per-node P] [--swf-max-nodes N]
//                  [--out FILE.json]
//   mphpc sched-scale [--jobs N] [--depth D] [--arrival-rate R]
//                  [--node-mtbf-h H] [--mttr-h H] [--kill-prob P]
//                  [--max-attempts K] [--seed S] [--out FILE.json]
//   mphpc serve    --state-dir DIR [--model MODEL] [--socket PATH]
//                  [--refit-every K] [--drift-window N] [--trip-mae X]
//                  [--recover-mae X] [--queue-cap N] [--batch-max N]
//                  [--deadline-ms MS] [--threads N]
//
// Every command is deterministic for a given set of flags (serve excepted:
// it reacts to whatever requests arrive). Each command accepts only its own
// flags: an unknown flag, a missing value, a malformed number or a number
// outside the flag's range exits 2 with a message naming the flag, before
// any work starts. GBT models always train with histogram split search.
//
// The long-running commands (train --checkpoint-every, sched-scale, serve)
// install the ShutdownLatch: SIGINT/SIGTERM flushes their on-disk state at
// the next natural boundary and exits 128+signal, so wrappers can tell
// "interrupted but resumable" apart from failure.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "arch/system_catalog.hpp"
#include "common/atomic_file.hpp"
#include "common/json_writer.hpp"
#include "common/shutdown.hpp"
#include "common/strings.hpp"
#include "common/table_printer.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "core/dataset.hpp"
#include "core/model_selection.hpp"
#include "core/predictor.hpp"
#include "data/split.hpp"
#include "ml/binning.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/faults.hpp"
#include "sched/swf.hpp"
#include "sched/workload_gen.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/supervisor.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace {

using namespace mphpc;

/// What a flag's value must look like; kBool flags take no value.
enum class FlagKind : std::uint8_t { kBool, kInt, kDouble, kText };

struct Flag {
  std::string_view name;  ///< without the leading "--"
  FlagKind kind;
  /// Accepted values of a numeric flag: [min, max], or (min, max] when
  /// `above_min`; `or_zero` also admits 0 as a sentinel below the range.
  double min = 0.0;
  double max = 0.0;
  bool above_min = false;
  bool or_zero = false;
};

constexpr int kIntMax = std::numeric_limits<int>::max();
constexpr double kDoubleMax = std::numeric_limits<double>::max();

constexpr Flag text_flag(std::string_view name) { return {name, FlagKind::kText}; }
constexpr Flag bool_flag(std::string_view name) { return {name, FlagKind::kBool}; }
/// An int flag accepting [min, max] (and 0 when `or_zero`).
constexpr Flag int_flag(std::string_view name, int min, int max = kIntMax,
                        bool or_zero = false) {
  return {name, FlagKind::kInt, static_cast<double>(min), static_cast<double>(max),
          false, or_zero};
}
/// A finite double flag accepting [min, max], or (min, max] when `above_min`.
constexpr Flag double_flag(std::string_view name, double min, double max = kDoubleMax,
                           bool above_min = false) {
  return {name, FlagKind::kDouble, min, max, above_min, false};
}

/// A command line the subcommand cannot accept; main() exits 2 on it.
class UsageError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Parses all of `text` as a T, or throws UsageError naming `--name`.
template <typename T>
T parse_number(std::string_view name, const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end) {
    throw UsageError("--" + std::string(name) + ": '" + text +
                     "' is not a valid number");
  }
  return value;
}

/// Throws UsageError naming `--flag` when `value` is outside its range.
void check_range(const Flag& flag, double value) {
  const bool in_range = flag.above_min ? value > flag.min && value <= flag.max
                                       : value >= flag.min && value <= flag.max;
  if (in_range || (flag.or_zero && value == 0.0)) return;
  const auto number = [&](double v) {
    return flag.kind == FlagKind::kInt ? std::to_string(static_cast<long long>(v))
                                       : format_double(v);
  };
  const double type_max = flag.kind == FlagKind::kInt ? kIntMax : kDoubleMax;
  std::string range = flag.max < type_max
                          ? "in " + std::string(flag.above_min ? "(" : "[") +
                                number(flag.min) + ", " + number(flag.max) + "]"
                          : (flag.above_min ? "> " : ">= ") + number(flag.min);
  if (flag.or_zero) range = "0 or " + range;
  throw UsageError("--" + std::string(flag.name) + ": " + number(value) +
                   " is out of range (must be " + range + ")");
}

/// `--flag value` parser checked against one subcommand's flag list:
/// unknown flags, stray arguments, missing values, malformed numbers and
/// numbers outside a flag's range throw UsageError up front, so
/// get_int/get_double never see bad text.
class Args {
 public:
  Args(std::span<char* const> argv, std::span<const Flag> known) {
    for (std::size_t i = 0; i < argv.size(); ++i) {
      const std::string_view arg = argv[i];
      if (!arg.starts_with("--")) {
        throw UsageError("unexpected argument '" + std::string(arg) + "'");
      }
      const std::string_view name = arg.substr(2);
      const auto flag = std::find_if(known.begin(), known.end(),
                                     [&](const Flag& f) { return f.name == name; });
      if (flag == known.end()) {
        throw UsageError("unknown flag --" + std::string(name));
      }
      if (flag->kind == FlagKind::kBool) {
        values_[std::string(name)] = "true";
        continue;
      }
      if (i + 1 == argv.size() || std::string_view(argv[i + 1]).starts_with("--")) {
        throw UsageError("--" + std::string(name) + " needs a value");
      }
      std::string value = argv[++i];
      if (flag->kind == FlagKind::kInt) check_range(*flag, parse_number<int>(name, value));
      if (flag->kind == FlagKind::kDouble) {
        check_range(*flag, parse_number<double>(name, value));
      }
      values_[std::string(name)] = std::move(value);
    }
  }

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  [[nodiscard]] int get_int(const std::string& key, int fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_number<int>(key, it->second);
  }
  [[nodiscard]] double get_double(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : parse_number<double>(key, it->second);
  }
  [[nodiscard]] bool has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Inputs per application of the dataset a command builds (--inputs).
int dataset_inputs(const Args& args) { return args.get_int("inputs", 12); }

core::Dataset build_dataset(const Args& args,
                            const std::string& default_campaign_dir = "") {
  const int inputs = dataset_inputs(args);
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  sim::CampaignOptions options;
  options.inputs_per_app = inputs;
  // With --campaign-dir the collection campaign is interruptible: each
  // profiled (app, input) shard persists there and re-runs skip it.
  options.checkpoint_dir = args.get("campaign-dir", default_campaign_dir);
  std::printf("building dataset (%d inputs/app)...\n", inputs);
  return core::build_dataset(
      sim::run_campaign(apps, systems, options, &ThreadPool::shared()));
}

core::CrossArchPredictor::Options predictor_options(const Args& args) {
  core::CrossArchPredictor::Options options;
  options.gbt.n_rounds = args.get_int("rounds", 200);
  options.gbt.max_depth = args.get_int("depth", 7);
  options.gbt.max_bins = args.get_int("bins", options.gbt.max_bins);
  return options;
}

core::CrossArchPredictor train_predictor(const core::Dataset& dataset,
                                         const Args& args) {
  const auto options = predictor_options(args);
  core::CrossArchPredictor predictor(options);
  Timer timer;
  predictor.train(dataset, {}, &ThreadPool::shared());
  std::printf("trained in %.1f s (%d rounds, depth %d)\n", timer.seconds(),
              options.gbt.n_rounds, options.gbt.max_depth);
  return predictor;
}

int cmd_dataset(const Args& args) {
  const auto dataset = build_dataset(args);
  const std::string out = args.get("out", "mphpc_dataset.csv");
  // Atomic replace: an interrupted dump never leaves a truncated CSV.
  atomic_write_text(out, dataset.to_csv());
  std::printf("wrote %zu rows x %zu columns to %s\n", dataset.num_rows(),
              core::Dataset::kNumColumns, out.c_str());
  return 0;
}

int cmd_train(const Args& args) {
  const auto options = predictor_options(args);
  const std::string out = args.get("out", "mphpc_model.txt");
  const int every = args.get_int("checkpoint-every", 0);
  const bool resume = args.has("resume");
  // An interruptible training run implies an interruptible data campaign:
  // without an explicit --campaign-dir, cache profiling shards next to
  // the checkpoint so a killed `train --resume` skips completed items too.
  const std::string default_campaign_dir =
      (every > 0 || resume) ? out + ".campaign" : "";
  if (!default_campaign_dir.empty() && !args.has("campaign-dir")) {
    std::printf("campaign cache: %s\n", default_campaign_dir.c_str());
  }
  // A checkpointed run is interruptible end to end: SIGINT/SIGTERM stops
  // at the next checkpoint boundary with the checkpoint flushed, and the
  // process exits 128+signal so callers know the run can be --resume'd.
  ShutdownLatch& latch = ShutdownLatch::instance();
  if (every > 0 || resume) latch.install();
  const auto dataset = build_dataset(args, default_campaign_dir);
  core::CrossArchPredictor predictor(options);
  Timer timer;
  if (every > 0 || resume) {
    if (latch.requested()) {
      std::printf("interrupted before training; campaign shards are cached\n");
      return latch.exit_code();
    }
    core::CrossArchPredictor::TrainCheckpoint ckpt;
    ckpt.path = out + ".ckpt";
    ckpt.every = every;
    ckpt.resume = resume;
    ckpt.stop = [&latch] { return latch.requested(); };
    if (!predictor.train_checkpointed(dataset, ckpt, {}, &ThreadPool::shared())) {
      std::printf("interrupted after %.1f s: checkpoint flushed to %s "
                  "(continue with --resume)\n",
                  timer.seconds(), ckpt.path.c_str());
      return latch.exit_code();
    }
  } else {
    predictor.train(dataset, {}, &ThreadPool::shared());
  }
  std::printf("trained in %.1f s (%d rounds, depth %d)\n", timer.seconds(),
              options.gbt.n_rounds, options.gbt.max_depth);
  predictor.save(out);
  std::printf("model saved to %s\n", out.c_str());
  return 0;
}

int cmd_evaluate(const Args& args) {
  const auto dataset = build_dataset(args);
  const auto split = data::train_test_split(dataset.num_rows(), 0.10, 42);
  const auto x_test = dataset.features(split.test);
  const auto y_test = dataset.targets(split.test);

  core::EvalMetrics metrics;
  if (args.has("model")) {
    const auto predictor = core::CrossArchPredictor::load(args.get("model", ""));
    metrics = core::evaluate(y_test, predictor.predict(x_test));
  } else {
    const auto options = predictor_options(args);
    core::CrossArchPredictor predictor(options);
    predictor.train(dataset, split.train, &ThreadPool::shared());
    metrics = core::evaluate(y_test, predictor.predict(x_test));
  }
  std::printf("test MAE  = %.4f (paper: 0.11)\n", metrics.mae);
  std::printf("test SOS  = %.4f (paper: 0.86)\n", metrics.sos);
  std::printf("test RMSE = %.4f, R^2 = %.4f\n", metrics.rmse, metrics.r2);
  return 0;
}

int cmd_predict(const Args& args) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const std::string app_name = args.get("app", "");
  if (app_name.empty() || !apps.contains(app_name)) {
    std::fprintf(stderr, "predict requires --app with one of the 20 catalog apps\n");
    return 2;
  }
  const std::string system = args.get("system", "quartz");
  if (!arch::parse_system(system)) {
    std::fprintf(stderr, "unknown system '%s'\n", system.c_str());
    return 2;
  }
  const std::string scale_name = args.get("scale", "1node");
  workload::ScaleClass scale = workload::ScaleClass::kOneNode;
  if (scale_name == "1core") scale = workload::ScaleClass::kOneCore;
  else if (scale_name == "2node") scale = workload::ScaleClass::kTwoNodes;
  else if (scale_name != "1node") {
    std::fprintf(stderr, "unknown scale '%s' (1core|1node|2node)\n",
                 scale_name.c_str());
    return 2;
  }

  core::CrossArchPredictor predictor = [&] {
    if (args.has("model")) {
      return core::CrossArchPredictor::load(args.get("model", ""));
    }
    const auto dataset = build_dataset(args);
    return train_predictor(dataset, args);
  }();

  const auto& base = apps.get(app_name);
  const auto inputs = workload::make_inputs(base, 1, 2027);
  const sim::Profiler profiler(2027);
  const auto profile = profiler.profile(base, inputs[0], scale, systems.get(system));
  const core::Rpv rpv = predictor.predict(profile);

  std::printf("\n%s (%s scale) profiled on %s, %.1f s wall time\n",
              app_name.c_str(), scale_name.c_str(), system.c_str(), profile.time_s);
  TablePrinter table({"system", "predicted time ratio", "predicted speedup"});
  for (const arch::SystemId id : arch::kAllSystems) {
    table.add_row({std::string(arch::to_string(id)),
                   format_fixed(rpv.time_ratio(id), 3),
                   format_fixed(rpv.speedup(id), 2) + "x"});
  }
  table.print();
  std::printf("predicted fastest: %s\n",
              std::string(arch::to_string(rpv.fastest())).c_str());
  return 0;
}

int cmd_schedule(const Args& args) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const auto dataset = build_dataset(args);
  const auto predictor = train_predictor(dataset, args);
  const auto predictions = predictor.predict(dataset.features());
  const auto jobs =
      sched::sample_jobs(dataset, predictions, apps,
                         static_cast<std::size_t>(args.get_int("jobs", 10000)), 7);
  const auto machines = sched::default_cluster(systems);

  const std::string which = args.get("strategy", "all");
  std::vector<std::pair<std::string, std::unique_ptr<sched::MachineAssigner>>> all;
  const auto want = [&](const char* key) { return which == "all" || which == key; };
  if (want("rr")) all.emplace_back("Round-Robin",
                                   std::make_unique<sched::RoundRobinAssigner>());
  if (want("random")) all.emplace_back("Random",
                                       std::make_unique<sched::RandomAssigner>(11));
  if (want("user")) all.emplace_back("User+RR",
                                     std::make_unique<sched::UserRoundRobinAssigner>());
  if (want("model")) all.emplace_back("Model-based",
                                      std::make_unique<sched::ModelBasedAssigner>());
  if (want("oracle")) all.emplace_back("Oracle",
                                       std::make_unique<sched::OracleAssigner>());
  if (all.empty()) {
    std::fprintf(stderr, "unknown strategy '%s'\n", which.c_str());
    return 2;
  }

  TablePrinter table({"strategy", "makespan (h)", "avg bounded slowdown"});
  for (auto& [label, assigner] : all) {
    const auto result = sched::simulate(jobs, machines, *assigner);
    table.add_row({label, format_fixed(result.makespan_s / 3600.0, 3),
                   format_fixed(result.avg_bounded_slowdown, 2)});
  }
  table.print();
  return 0;
}

double sum_over_machines(const std::array<double, arch::kNumSystems>& values) {
  double total = 0.0;
  for (const double v : values) total += v;
  return total;
}

/// Checkpoint-strategy comparison under the identical fault trace, run on
/// the guarded model-based assigner. "none" IS the headline faulty run
/// (a zero-interval policy is bit-identical to no policy, so rerunning
/// would be wasted work); "fixed" uses --checkpoint-interval-s; "optimal"
/// uses the Young/Daly interval derived from the trace MTBF; "adaptive"
/// re-estimates the MTBF online from observed failures (no prior) and
/// hands each attempt the Young/Daly interval for the current estimate.
void report_checkpoint_comparison(const std::vector<sched::Job>& jobs,
                                  const std::vector<sched::Machine>& machines,
                                  const sched::FaultTrace& trace,
                                  sched::SimulationResult no_checkpoint,
                                  double fixed_interval_s, double optimal_interval_s,
                                  double overhead_s, JsonWriter& json) {
  struct CheckpointEntry {
    std::string policy;
    sched::CheckpointPolicy checkpoint;
    sched::SimulationResult result;
  };
  std::vector<CheckpointEntry> ckpt_runs;
  ckpt_runs.push_back({"none", {}, std::move(no_checkpoint)});
  ckpt_runs.push_back({"fixed", {fixed_interval_s, overhead_s}, {}});
  ckpt_runs.push_back({"optimal", {optimal_interval_s, overhead_s}, {}});
  ckpt_runs.push_back({"adaptive", {}, {}});
  for (std::size_t c = 1; c < ckpt_runs.size(); ++c) {
    sched::GuardedModelBasedAssigner assigner;
    sched::SchedulerOptions options;
    // Fresh planner per simulation: it accumulates the failures it
    // observes and must never be shared across runs.
    sched::AdaptiveYoungDalyPlanner adaptive(overhead_s, /*prior_mtbf_s=*/0.0);
    if (ckpt_runs[c].policy == "adaptive") {
      options.planner = &adaptive;
    } else {
      options.checkpoint = ckpt_runs[c].checkpoint;
    }
    ckpt_runs[c].result = sched::simulate(jobs, machines, assigner, trace, options);
  }

  TablePrinter ckpt_table({"checkpointing", "interval (s)", "makespan (h)",
                           "lost node-h", "recovered node-h", "overhead node-h",
                           "abandoned"});
  json.begin_array("checkpoint_strategies");
  for (const CheckpointEntry& entry : ckpt_runs) {
    const auto& result = entry.result;
    const double lost = sum_over_machines(result.lost_node_seconds);
    const double recovered = sum_over_machines(result.recovered_node_seconds);
    const double overhead =
        sum_over_machines(result.checkpoint_overhead_node_seconds);
    json.begin_object();
    json.field("policy", entry.policy);
    json.field("interval_s", entry.checkpoint.interval_s);
    json.field("overhead_s", entry.checkpoint.overhead_s);
    json.field("makespan_h", result.makespan_s / 3600.0);
    json.field("avg_bounded_slowdown", result.avg_bounded_slowdown);
    json.field("completed_jobs", result.completed_jobs);
    json.field("abandoned_jobs", result.abandoned_jobs);
    json.field("jobs_killed", result.jobs_killed);
    json.field("total_retries", result.total_retries);
    json.field("lost_node_seconds", lost);
    json.field("recovered_node_seconds", recovered);
    json.field("checkpoint_overhead_node_seconds", overhead);
    json.field("checkpoints_written", result.checkpoints_written);
    json.end_object();
    ckpt_table.add_row({entry.policy,
                        entry.policy == "adaptive"
                            ? std::string("online")
                            : format_fixed(entry.checkpoint.interval_s, 0),
                        format_fixed(result.makespan_s / 3600.0, 3),
                        format_fixed(lost / 3600.0, 1),
                        format_fixed(recovered / 3600.0, 1),
                        format_fixed(overhead / 3600.0, 1),
                        std::to_string(result.abandoned_jobs)});
  }
  json.end_array();
  std::printf("\ncheckpoint/restart comparison (guarded model-based strategy):\n");
  ckpt_table.print();
}

/// Workload for cmd_sched_faults: either a replayed SWF trace (submit
/// times, node counts and runtimes from the trace, cross-architecture
/// runtime shape from sampled dataset rows — predictions are the rows'
/// true RPVs, so no model training is needed) or the classic
/// model-predicted sample of the dataset.
std::vector<sched::Job> load_faults_workload(
    const Args& args, const core::Dataset& dataset,
    const workload::AppCatalog& apps,
    const std::vector<sched::Machine>& machines) {
  if (!args.has("swf")) {
    const auto predictor = train_predictor(dataset, args);
    const auto predictions = predictor.predict(dataset.features());
    return sched::sample_jobs(
        dataset, predictions, apps,
        static_cast<std::size_t>(args.get_int("jobs", 10000)), 7);
  }
  const auto trace = sched::read_swf_file(args.get("swf", ""));
  sched::SwfMapOptions map_options;
  map_options.procs_per_node = args.get_int("swf-procs-per-node", 36);
  int min_nodes = std::numeric_limits<int>::max();
  for (const auto& m : machines) min_nodes = std::min(min_nodes, m.total_nodes);
  map_options.max_nodes = std::min(args.get_int("swf-max-nodes", 2), min_nodes);
  map_options.seed = 7;
  sched::SwfMapStats stats;
  auto jobs = sched::jobs_from_swf(trace, dataset, apps, map_options, &stats);
  std::printf(
      "SWF trace %s: %zu jobs mapped, %zu skipped (no runtime), "
      "%zu skipped (no processors)\n",
      args.get("swf", "").c_str(), stats.mapped, stats.skipped_no_runtime,
      stats.skipped_no_procs);
  if (jobs.empty()) {
    throw std::runtime_error("SWF trace mapped to zero usable jobs");
  }
  return jobs;
}

/// Reruns the §VII strategy comparison under fault injection: a fault-free
/// baseline per strategy fixes the fault-trace horizon, then each strategy
/// replays the same seeded trace. Emits a JSON report alongside the table.
int cmd_sched_faults(const Args& args) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const auto dataset = build_dataset(args);
  const auto machines = sched::default_cluster(systems);
  const auto jobs = load_faults_workload(args, dataset, apps, machines);

  const double node_mtbf_h = args.get_double("node-mtbf-h", 200.0);
  const double mttr_h = args.get_double("mttr-h", 2.0);
  const double kill_prob = args.get_double("kill-prob", 0.02);
  sched::RetryPolicy retry;
  retry.max_attempts = args.get_int("max-attempts", retry.max_attempts);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double ckpt_overhead_s = args.get_double("checkpoint-overhead-s", 60.0);
  const double ckpt_interval_s = args.get_double("checkpoint-interval-s", 3600.0);

  using AssignerFactory = std::function<std::unique_ptr<sched::MachineAssigner>()>;
  const std::vector<std::pair<std::string, AssignerFactory>> strategies = {
      {"Round-Robin", [] { return std::make_unique<sched::RoundRobinAssigner>(); }},
      {"Random", [] { return std::make_unique<sched::RandomAssigner>(11); }},
      {"User+RR", [] { return std::make_unique<sched::UserRoundRobinAssigner>(); }},
      {"Model-based (guarded)",
       [] { return std::make_unique<sched::GuardedModelBasedAssigner>(); }},
      {"Oracle", [] { return std::make_unique<sched::OracleAssigner>(); }},
  };

  // Fault-free baselines; the longest one sizes the trace horizon with
  // headroom for retries pushing the faulty makespan out.
  std::vector<sched::SimulationResult> baselines;
  double max_makespan_s = 0.0;
  for (const auto& [label, factory] : strategies) {
    auto assigner = factory();
    baselines.push_back(sched::simulate(jobs, machines, *assigner));
    max_makespan_s = std::max(max_makespan_s, baselines.back().makespan_s);
  }
  const double horizon_s = 4.0 * max_makespan_s;

  const auto model = sched::FaultModel::uniform(node_mtbf_h * 3600.0, mttr_h * 3600.0,
                                                kill_prob, retry, seed);
  const auto trace = model.generate(machines, horizon_s);
  std::printf("fault trace: %zu node events over %.1f h horizon\n",
              trace.events.size(), horizon_s / 3600.0);

  // Checkpoint strategies: the observed per-node MTBF of this very trace
  // feeds the Young/Daly optimal interval. No failures in the horizon
  // makes checkpointing pointless — the "optimal" policy degenerates to
  // disabled.
  const double trace_mtbf_s = sched::trace_node_mtbf_s(trace, machines, horizon_s);
  const double optimal_interval_s =
      std::isfinite(trace_mtbf_s) && ckpt_overhead_s > 0.0
          ? sched::young_daly_interval(ckpt_overhead_s, trace_mtbf_s)
          : 0.0;

  JsonWriter json;
  json.begin_object();
  json.begin_object("config");
  json.field("jobs", jobs.size());
  json.field("node_mtbf_h", node_mtbf_h);
  json.field("mttr_h", mttr_h);
  json.field("kill_probability", kill_prob);
  json.field("max_attempts", retry.max_attempts);
  json.field("seed", static_cast<long long>(seed));
  json.field("horizon_h", horizon_s / 3600.0);
  json.field("node_events", trace.events.size());
  json.field("checkpoint_overhead_s", ckpt_overhead_s);
  json.field("checkpoint_interval_s", ckpt_interval_s);
  json.field("trace_node_mtbf_h",
             std::isfinite(trace_mtbf_s) ? trace_mtbf_s / 3600.0 : 0.0);
  json.field("young_daly_interval_s", optimal_interval_s);
  json.end_object();

  TablePrinter table({"strategy", "makespan (h)", "baseline (h)", "slowdown",
                      "abandoned", "kills", "retries"});
  json.begin_array("strategies");
  sched::SimulationResult guarded_faulty;  ///< reused as the no-checkpoint run
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const auto& [label, factory] = strategies[s];
    auto assigner = factory();
    const auto result = sched::simulate(jobs, machines, *assigner, trace);
    long long fallbacks = 0;
    if (const auto* guarded =
            dynamic_cast<const sched::GuardedModelBasedAssigner*>(assigner.get())) {
      fallbacks = guarded->fallbacks();
      guarded_faulty = result;
    }
    json.begin_object();
    json.field("strategy", label);
    json.field("makespan_h", result.makespan_s / 3600.0);
    json.field("baseline_makespan_h", baselines[s].makespan_s / 3600.0);
    json.field("avg_bounded_slowdown", result.avg_bounded_slowdown);
    json.field("avg_wait_h", result.avg_wait_s / 3600.0);
    json.field("completed_jobs", result.completed_jobs);
    json.field("abandoned_jobs", result.abandoned_jobs);
    json.field("jobs_killed", result.jobs_killed);
    json.field("total_retries", result.total_retries);
    json.field("lost_node_seconds", sum_over_machines(result.lost_node_seconds));
    json.field("downtime_node_seconds",
               sum_over_machines(result.downtime_node_seconds));
    json.field("recovered_node_seconds",
               sum_over_machines(result.recovered_node_seconds));
    json.field("checkpoint_overhead_node_seconds",
               sum_over_machines(result.checkpoint_overhead_node_seconds));
    json.field("checkpoints_written", result.checkpoints_written);
    json.field("predictor_fallbacks", fallbacks);
    json.end_object();
    table.add_row({label, format_fixed(result.makespan_s / 3600.0, 3),
                   format_fixed(baselines[s].makespan_s / 3600.0, 3),
                   format_fixed(result.avg_bounded_slowdown, 2),
                   std::to_string(result.abandoned_jobs),
                   std::to_string(result.jobs_killed),
                   std::to_string(result.total_retries)});
  }
  json.end_array();
  table.print();

  report_checkpoint_comparison(jobs, machines, trace, std::move(guarded_faulty),
                               ckpt_interval_s, optimal_interval_s,
                               ckpt_overhead_s, json);
  json.end_object();

  const std::string out = args.get("out", "results/sched_faults.json");
  const auto parent = std::filesystem::path(out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  atomic_write_text(out, json.str() + "\n");
  std::printf("report written to %s\n", out.c_str());
  return 0;
}

/// Scheduler scale benchmark: streams a large sampled workload (true-RPV
/// predictions, no model training) through the calendar-queue engine,
/// fault-free first (sizing the fault horizon) and then under the seeded
/// fault trace, reporting wall time and a node-seconds reconciliation.
/// Config echoed into every sched-scale report, complete or partial.
struct ScaleConfig {
  std::size_t jobs = 0;
  int inputs = 0;  ///< dataset inputs per application the jobs are drawn from
  std::uint64_t seed = 0;
  int backfill_depth = 0;
  double arrival_rate_per_s = 0.0;
  double node_mtbf_h = 0.0;
  double mttr_h = 0.0;
  double kill_prob = 0.0;
  int max_attempts = 0;
};

void emit_scale_config(JsonWriter& json, const ScaleConfig& cfg) {
  json.begin_object("config");
  json.field("jobs", cfg.jobs);
  json.field("inputs", cfg.inputs);
  json.field("seed", static_cast<long long>(cfg.seed));
  json.field("backfill_depth", cfg.backfill_depth);
  json.field("arrival_rate_per_s", cfg.arrival_rate_per_s);
  json.field("node_mtbf_h", cfg.node_mtbf_h);
  json.field("mttr_h", cfg.mttr_h);
  json.field("kill_probability", cfg.kill_prob);
  json.field("max_attempts", cfg.max_attempts);
  json.end_object();
}

void write_scale_report(const std::string& out, const JsonWriter& json) {
  const auto parent = std::filesystem::path(out).parent_path();
  if (!parent.empty()) std::filesystem::create_directories(parent);
  atomic_write_text(out, json.str() + "\n");
  std::printf("report written to %s\n", out.c_str());
}

/// Flushes a partial sched-scale report for an interrupted run — the
/// config, whatever phase sections already completed, and the
/// interruption marker — and hands back the 128+signal exit code.
int flush_interrupted_scale_report(
    const std::string& out, const ScaleConfig& cfg, const char* last_phase,
    const std::function<void(JsonWriter&)>& sections) {
  JsonWriter json;
  json.begin_object();
  emit_scale_config(json, cfg);
  if (sections) sections(json);
  json.field("interrupted", true);
  json.field("signal", ShutdownLatch::instance().signal_number());
  json.field("last_completed_phase", last_phase);
  json.end_object();
  write_scale_report(out, json);
  std::printf("interrupted after the %s phase; partial report flushed\n",
              last_phase);
  return ShutdownLatch::instance().exit_code();
}

int cmd_sched_scale(const Args& args) {
  // Million-job runs take minutes: flush a partial report and exit
  // 128+signal instead of dying report-less on Ctrl-C.
  ShutdownLatch& latch = ShutdownLatch::instance();
  latch.install();
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const auto dataset = build_dataset(args);
  const auto machines = sched::default_cluster(systems);

  const auto count = static_cast<std::size_t>(args.get_int("jobs", 1000000));
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 7));
  const double node_mtbf_h = args.get_double("node-mtbf-h", 200.0);
  const double mttr_h = args.get_double("mttr-h", 2.0);
  const double kill_prob = args.get_double("kill-prob", 0.02);
  // A bounded backfill pass keeps per-event work flat even when the queue
  // holds most of the trace (production schedulers cap the scan the same
  // way); 0 restores the unlimited paper setting.
  sched::SchedulerOptions options;
  options.backfill_depth = args.get_int("depth", 1000);
  sched::RetryPolicy retry;
  retry.max_attempts = args.get_int("max-attempts", retry.max_attempts);
  const std::string out = args.get("out", "results/sched_scale.json");

  std::printf("sampling %zu jobs...\n", count);
  sched::WorkloadOptions wopts;
  wopts.count = count;
  wopts.seed = seed;
  wopts.arrival_rate_per_s = args.get_double("arrival-rate", 0.0);
  std::vector<sched::Job> jobs;
  jobs.reserve(count);
  Timer sample_timer;
  sched::stream_jobs(
      dataset,
      [&dataset](std::size_t row) {
        core::SystemTimes times{};
        for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
          times[k] = dataset.time_on(row, static_cast<arch::SystemId>(k));
        }
        return core::Rpv::relative_to(times, arch::SystemId::kQuartz);
      },
      apps, wopts, [&jobs](sched::Job&& job) { jobs.push_back(std::move(job)); });
  const double sample_s = sample_timer.seconds();
  std::printf("sampled in %.2f s\n", sample_s);

  const ScaleConfig cfg{.jobs = count,
                        .inputs = dataset_inputs(args),
                        .seed = seed,
                        .backfill_depth = options.backfill_depth,
                        .arrival_rate_per_s = wopts.arrival_rate_per_s,
                        .node_mtbf_h = node_mtbf_h,
                        .mttr_h = mttr_h,
                        .kill_prob = kill_prob,
                        .max_attempts = retry.max_attempts};
  if (latch.requested()) {
    return flush_interrupted_scale_report(out, cfg, "sample", {});
  }

  sched::GuardedModelBasedAssigner baseline_assigner;
  Timer baseline_timer;
  const auto baseline = sched::simulate(jobs, machines, baseline_assigner, options);
  const double baseline_wall_s = baseline_timer.seconds();
  std::printf("fault-free: makespan %.1f h, %zu jobs, %.2f s wall\n",
              baseline.makespan_s / 3600.0, baseline.completed_jobs,
              baseline_wall_s);

  const auto emit_baseline = [&](JsonWriter& json) {
    json.begin_object("baseline");
    json.field("makespan_h", baseline.makespan_s / 3600.0);
    json.field("wall_s", baseline_wall_s);
    json.end_object();
  };
  if (latch.requested()) {
    return flush_interrupted_scale_report(out, cfg, "baseline", emit_baseline);
  }

  const double horizon_s = 4.0 * baseline.makespan_s;
  const auto model = sched::FaultModel::uniform(node_mtbf_h * 3600.0,
                                                mttr_h * 3600.0, kill_prob, retry,
                                                seed);
  const auto trace = model.generate(machines, horizon_s);
  std::printf("fault trace: %zu node events over %.1f h horizon\n",
              trace.events.size(), horizon_s / 3600.0);

  sched::GuardedModelBasedAssigner assigner;
  Timer faulty_timer;
  const auto result = sched::simulate(jobs, machines, assigner, trace, options);
  const double faulty_wall_s = faulty_timer.seconds();
  std::printf(
      "faulty: makespan %.1f h, %zu completed, %zu abandoned, %lld kills, "
      "%lld retries, %.2f s wall\n",
      result.makespan_s / 3600.0, result.completed_jobs, result.abandoned_jobs,
      result.jobs_killed, result.total_retries, faulty_wall_s);

  // Reconciliation: with checkpointing disabled, committed node-seconds
  // are exactly the completed outcomes' occupied spans — two independent
  // tallies of the same quantity (ci.sh asserts they agree).
  double outcome_node_seconds = 0.0;
  for (std::size_t i = 0; i < result.outcomes.size(); ++i) {
    const sched::JobOutcome& o = result.outcomes[i];
    if (o.abandoned) continue;
    outcome_node_seconds +=
        (o.end_s - o.start_s) * static_cast<double>(jobs[i].nodes_required);
  }

  JsonWriter json;
  json.begin_object();
  emit_scale_config(json, cfg);
  emit_baseline(json);
  json.begin_object("faulty");
  json.field("wall_s", faulty_wall_s);
  json.field("sample_wall_s", sample_s);
  json.field("makespan_h", result.makespan_s / 3600.0);
  json.field("avg_bounded_slowdown", result.avg_bounded_slowdown);
  json.field("completed_jobs", result.completed_jobs);
  json.field("abandoned_jobs", result.abandoned_jobs);
  json.field("jobs_killed", result.jobs_killed);
  json.field("total_retries", result.total_retries);
  json.field("node_events", trace.events.size());
  json.field("node_seconds_total", sum_over_machines(result.node_seconds));
  json.field("outcome_node_seconds_total", outcome_node_seconds);
  json.field("lost_node_seconds_total",
             sum_over_machines(result.lost_node_seconds));
  json.field("downtime_node_seconds_total",
             sum_over_machines(result.downtime_node_seconds));
  json.end_object();
  // A signal during the faulty simulation still yields the full report —
  // everything had already been computed — but the exit code records the
  // interruption for the caller.
  if (latch.requested()) {
    json.field("interrupted", true);
    json.field("signal", latch.signal_number());
  }
  json.end_object();

  write_scale_report(out, json);
  return latch.requested() ? latch.exit_code() : 0;
}

int cmd_serve(const Args& args) {
  serve::ServeOptions core_options;
  core_options.state_dir = args.get("state-dir", "");
  if (core_options.state_dir.empty()) {
    std::fprintf(stderr,
                 "serve requires --state-dir DIR (home of the model store)\n");
    return 2;
  }
  std::filesystem::create_directories(core_options.state_dir);
  core_options.model_path = args.get("model", "");
  core_options.drift.window = static_cast<std::size_t>(args.get_int(
      "drift-window", static_cast<int>(core_options.drift.window)));
  core_options.drift.trip_mae =
      args.get_double("trip-mae", core_options.drift.trip_mae);
  core_options.drift.recover_mae =
      args.get_double("recover-mae", core_options.drift.recover_mae);
  core_options.window_capacity = static_cast<std::size_t>(args.get_int(
      "window-capacity", static_cast<int>(core_options.window_capacity)));
  core_options.refit_every = static_cast<std::size_t>(args.get_int(
      "refit-every", static_cast<int>(core_options.refit_every)));
  core_options.min_refit_rows = static_cast<std::size_t>(args.get_int(
      "min-refit-rows", static_cast<int>(core_options.min_refit_rows)));
  core_options.refit_rounds =
      args.get_int("refit-rounds", core_options.refit_rounds);
  core_options.max_model_rounds =
      args.get_int("max-model-rounds", core_options.max_model_rounds);
  core_options.cold_rounds = args.get_int("cold-rounds", core_options.cold_rounds);
  core_options.drift_max_apps = static_cast<std::size_t>(args.get_int(
      "drift-max-apps", static_cast<int>(core_options.drift_max_apps)));
  core_options.drift_app_window = static_cast<std::size_t>(args.get_int(
      "drift-app-window", static_cast<int>(core_options.drift_app_window)));

  serve::ServerOptions server_options;
  server_options.socket_path = args.get("socket", "");
  server_options.queue_cap = static_cast<std::size_t>(
      args.get_int("queue-cap", static_cast<int>(server_options.queue_cap)));
  server_options.batch_max = static_cast<std::size_t>(
      args.get_int("batch-max", static_cast<int>(server_options.batch_max)));
  server_options.deadline_ms = args.get_int("deadline-ms", 0);
  server_options.pool_threads =
      static_cast<std::size_t>(args.get_int("threads", 0));

  const int workers = args.get_int("workers", 1);
  if (workers == 1) {
    serve::ServeCore core(std::move(core_options));
    // Progress goes to stderr: stdout is the reply channel in stdio mode.
    serve::Server server(core, std::move(server_options), &std::cerr);
    return server.run();
  }

  // Supervised fleet. Workers share one listening socket (stdio cannot be
  // split N ways) and one model store, refits gated by the on-disk lease.
  if (server_options.socket_path.empty()) {
    std::fprintf(stderr, "serve: --workers %d requires --socket PATH\n",
                 workers);
    return 2;
  }
  serve::SupervisorOptions sup_options;
  sup_options.workers = workers;
  sup_options.restart.max_attempts =
      args.get_int("restart-max", sup_options.restart.max_attempts);
  sup_options.restart.base_delay_s = args.get_double(
      "restart-base-delay-s", sup_options.restart.base_delay_s);
  sup_options.restart.max_delay_s =
      args.get_double("restart-max-delay-s", sup_options.restart.max_delay_s);
  sup_options.heartbeat_timeout_s = args.get_double(
      "heartbeat-timeout-s", sup_options.heartbeat_timeout_s);
  sup_options.seed =
      static_cast<std::uint64_t>(args.get_int("seed", 1));

  const int listen_fd = serve::listen_unix(server_options.socket_path);
  const double store_poll_s = args.get_double("store-poll-s", 0.5);
  core_options.use_lease = true;

  serve::Supervisor supervisor(
      sup_options,
      [&](const serve::WorkerEnv& env) {
        serve::ServeOptions worker_core = core_options;
        worker_core.worker_id = env.slot;
        worker_core.restarts_observed = env.restarts;
        serve::ServerOptions worker_server = server_options;
        worker_server.socket_path.clear();  // fd inherited, path not owned
        worker_server.listen_fd = listen_fd;
        worker_server.heartbeat_fd = env.heartbeat_fd;
        worker_server.store_poll_s = store_poll_s;
        worker_server.log_tag = "serve.w" + std::to_string(env.slot);
        serve::ServeCore core(std::move(worker_core));
        serve::Server server(core, std::move(worker_server), &std::cerr);
        return server.run();
      },
      &std::cerr);
  const int rc = supervisor.run();
  ::close(listen_fd);
  ::unlink(server_options.socket_path.c_str());
  return rc;
}

void usage() {
  std::printf(
      "mphpc — cross-architecture performance prediction toolkit\n\n"
      "  mphpc dataset  [--inputs N] [--campaign-dir DIR] [--out FILE.csv]\n"
      "  mphpc train    [--inputs N] [--rounds N] [--depth N] [--bins B]\n"
      "                 [--checkpoint-every K] [--resume] [--out MODEL]\n"
      "                 (checkpointed runs cache the campaign in MODEL.campaign\n"
      "                  unless --campaign-dir is given)\n"
      "  mphpc evaluate [--inputs N] [--model MODEL] [--rounds N] [--depth N]\n"
      "                 [--bins B]\n"
      "  mphpc predict  --app NAME [--system SYS] [--scale 1core|1node|2node]\n"
      "                 [--model MODEL]\n"
      "  mphpc schedule [--jobs N] [--strategy all|rr|random|user|model|oracle]\n"
      "  mphpc sched-faults [--jobs N] [--node-mtbf-h H] [--mttr-h H]\n"
      "                 [--kill-prob P] [--max-attempts K] [--seed S]\n"
      "                 [--checkpoint-overhead-s C] [--checkpoint-interval-s I]\n"
      "                 [--swf FILE] [--swf-procs-per-node P] [--swf-max-nodes N]\n"
      "                 [--out FILE.json]\n"
      "  mphpc sched-scale [--jobs N] [--depth D] [--arrival-rate R]\n"
      "                 [--node-mtbf-h H] [--mttr-h H] [--kill-prob P]\n"
      "                 [--max-attempts K] [--seed S] [--out FILE.json]\n"
      "  mphpc serve    --state-dir DIR [--model MODEL] [--socket PATH]\n"
      "                 [--workers N] [--restart-max K] [--restart-base-delay-s S]\n"
      "                 [--restart-max-delay-s S] [--heartbeat-timeout-s S]\n"
      "                 [--store-poll-s S] [--seed S] [--refit-every K]\n"
      "                 [--refit-rounds R] [--min-refit-rows N] [--max-model-rounds N]\n"
      "                 [--cold-rounds N]\n"
      "                 [--drift-window N] [--drift-max-apps N] [--drift-app-window N]\n"
      "                 [--trip-mae X] [--recover-mae X] [--window-capacity N]\n"
      "                 [--queue-cap N] [--batch-max N] [--deadline-ms MS]\n"
      "                 [--threads N]\n"
      "                 (JSONL protocol on the socket, or stdin/stdout when\n"
      "                  --socket is omitted; --workers N > 1 runs a supervised\n"
      "                  crash-recovering fleet and requires --socket)\n\n"
      "Every command that builds a dataset takes --inputs N and --campaign-dir DIR;\n"
      "every command that trains a model takes --rounds N, --depth N and --bins B.\n"
      "Unknown flags, malformed numbers and numbers out of a flag's range exit 2.\n");
}

/// A subcommand and the flags it accepts.
struct Command {
  std::string_view name;
  int (*run)(const Args&);
  std::vector<Flag> flags;
};

/// A command's own flags plus any shared flag groups it accepts.
std::vector<Flag> flags(std::initializer_list<Flag> own,
                        std::initializer_list<std::span<const Flag>> groups = {}) {
  std::vector<Flag> out(own);
  for (const auto group : groups) out.insert(out.end(), group.begin(), group.end());
  return out;
}

const std::vector<Command>& commands() {
  constexpr int kIntMin = std::numeric_limits<int>::min();
  static constexpr Flag kDataset[] = {int_flag("inputs", 1), text_flag("campaign-dir")};
  // --bins 0 picks the bin count from the row count.
  static constexpr Flag kModel[] = {int_flag("rounds", 1), int_flag("depth", 1),
                                    int_flag("bins", 2, ml::BinnedMatrix::kMaxBins, true)};
  // --node-mtbf-h 0 turns node faults off.
  static constexpr Flag kFaults[] = {
      int_flag("jobs", 1),           double_flag("node-mtbf-h", 0.0),
      double_flag("mttr-h", 0.0, kDoubleMax, true), double_flag("kill-prob", 0.0, 1.0),
      int_flag("max-attempts", 1),   int_flag("seed", kIntMin),
      text_flag("out")};
  static const std::vector<Command> all = {
      {"dataset", cmd_dataset, flags({text_flag("out")}, {kDataset})},
      {"train", cmd_train,
       flags({text_flag("out"), int_flag("checkpoint-every", 0), bool_flag("resume")},
             {kDataset, kModel})},
      {"evaluate", cmd_evaluate, flags({text_flag("model")}, {kDataset, kModel})},
      {"predict", cmd_predict,
       flags({text_flag("app"), text_flag("system"), text_flag("scale"),
              text_flag("model")},
             {kDataset, kModel})},
      {"schedule", cmd_schedule,
       flags({int_flag("jobs", 1), text_flag("strategy")}, {kDataset, kModel})},
      {"sched-faults", cmd_sched_faults,
       flags({double_flag("checkpoint-overhead-s", 0.0),
              double_flag("checkpoint-interval-s", 0.0), text_flag("swf"),
              int_flag("swf-procs-per-node", 1), int_flag("swf-max-nodes", 1)},
             {kDataset, kModel, kFaults})},
      // --depth 0 is the unlimited backfill scan.
      {"sched-scale", cmd_sched_scale,
       flags({int_flag("depth", 0), double_flag("arrival-rate", 0.0)},
             {kDataset, kFaults})},
      {"serve", cmd_serve,
       flags({text_flag("state-dir"),           text_flag("model"),
              text_flag("socket"),              int_flag("drift-window", 1),
              double_flag("trip-mae", 0.0, kDoubleMax, true),
              double_flag("recover-mae", 0.0, kDoubleMax, true),
              int_flag("window-capacity", 1),   int_flag("refit-every", 0),
              int_flag("min-refit-rows", 1),    int_flag("refit-rounds", 1),
              int_flag("max-model-rounds", 1),  int_flag("cold-rounds", 1),
              int_flag("drift-max-apps", 0),    int_flag("drift-app-window", 0),
              int_flag("queue-cap", 1),         int_flag("batch-max", 1),
              int_flag("deadline-ms", 0),       int_flag("threads", 0),
              int_flag("workers", 1),           int_flag("restart-max", 1),
              double_flag("restart-base-delay-s", 0.0),
              double_flag("restart-max-delay-s", 0.0),
              double_flag("heartbeat-timeout-s", 0.0, kDoubleMax, true),
              int_flag("seed", kIntMin),        double_flag("store-poll-s", 0.0)})},
  };
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string_view name = argv[1];
  const auto& all = commands();
  const auto command = std::find_if(all.begin(), all.end(),
                                    [&](const Command& c) { return c.name == name; });
  if (command == all.end()) {
    usage();
    return 2;
  }
  try {
    const Args args(std::span<char* const>(argv + 2, static_cast<std::size_t>(argc - 2)),
                    command->flags);
    return command->run(args);
  } catch (const UsageError& e) {
    std::fprintf(stderr, "mphpc %s: %s (run mphpc without arguments for usage)\n",
                 argv[1], e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
