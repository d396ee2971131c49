// Regenerates paper Figures 7 and 8: makespan and average bounded slowdown
// of the FCFS+EASY multi-resource scheduler under the four machine
// assignment strategies (plus an oracle upper bound), on a 50,000-job
// workload sampled from the dataset with replacement.
#include "bench_common.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "core/predictor.hpp"
#include "data/split.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/workload_gen.hpp"

int main() {
  using namespace mphpc;
  bench::print_header("Figures 7 & 8",
                      "Makespan and bounded slowdown per assignment strategy");

  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const core::Dataset ds = bench::build_standard_dataset();

  // Train the predictor on a 90/10 split (the scheduler then acts on model
  // predictions for every sampled job, as in the paper).
  const auto split = data::train_test_split(ds.num_rows(), 0.10, 42);
  core::CrossArchPredictor predictor;
  Timer timer;
  predictor.train(ds, split.train, &ThreadPool::shared());
  std::printf("model trained in %.1f s\n", timer.seconds());

  const auto predictions = predictor.predict(ds.features());
  const auto jobs = sched::sample_jobs(ds, predictions, apps, 50000, 7);
  const auto machines = sched::default_cluster(systems);
  std::printf("workload: %zu jobs on %zu machines\n\n", jobs.size(),
              machines.size());

  struct Strategy {
    const char* label;
    std::unique_ptr<sched::MachineAssigner> assigner;
  };
  std::vector<Strategy> strategies;
  strategies.push_back({"Round-Robin", std::make_unique<sched::RoundRobinAssigner>()});
  strategies.push_back({"Random", std::make_unique<sched::RandomAssigner>(11)});
  strategies.push_back(
      {"User+RR", std::make_unique<sched::UserRoundRobinAssigner>()});
  strategies.push_back(
      {"Model-based", std::make_unique<sched::ModelBasedAssigner>()});
  strategies.push_back({"Oracle", std::make_unique<sched::OracleAssigner>()});

  TablePrinter table({"strategy", "makespan (h)", "avg bounded slowdown",
                      "avg wait (s)"});
  JsonWriter json;
  json.begin_object().field("experiment", "fig7_8").begin_array("strategies");
  double rr_makespan = 0.0;
  double model_makespan = 0.0;
  // (makespan, label) of the four assignment strategies, without the oracle.
  std::vector<std::pair<double, std::string>> measured;
  for (auto& s : strategies) {
    Timer sim_timer;
    const auto result = sched::simulate(jobs, machines, *s.assigner);
    table.add_row({s.label, format_fixed(result.makespan_s / 3600.0, 3),
                   format_fixed(result.avg_bounded_slowdown, 2),
                   format_fixed(result.avg_wait_s, 1)});
    json.begin_object()
        .field("strategy", s.label)
        .field("makespan_s", result.makespan_s)
        .field("avg_bounded_slowdown", result.avg_bounded_slowdown)
        .field("sim_seconds", sim_timer.seconds())
        .end_object();
    if (std::string(s.label) == "Round-Robin") rr_makespan = result.makespan_s;
    if (std::string(s.label) == "Model-based") model_makespan = result.makespan_s;
    if (std::string(s.label) != "Oracle") measured.emplace_back(result.makespan_s, s.label);
  }
  json.end_array().end_object();
  table.print();

  std::printf("\nModel-based vs Round-Robin makespan reduction: %.1f%% "
              "(paper: up to 20%%)\n",
              100.0 * (1.0 - model_makespan / rr_makespan));
  std::sort(measured.begin(), measured.end());
  std::string order;
  for (std::size_t i = 0; i < measured.size(); ++i) {
    if (i > 0) order += measured[i].first > measured[i - 1].first ? " < " : " = ";
    order += measured[i].second + " (" +
             format_fixed(measured[i].first / 3600.0, 3) + " h)";
  }
  std::printf("measured makespan ordering: %s\n"
              "(paper ordering: Model-based < User+RR < Round-Robin ~ Random)\n",
              order.c_str());
  bench::print_json_line(json);
  return 0;
}
