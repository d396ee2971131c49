// Permutation feature importance of the ablation GBT, a model-agnostic
// cross-check on the Fig. 6 gain ranking (see EXPERIMENTS.md F6).
#include "bench_common.hpp"

#include "core/permutation_importance.hpp"
#include "data/split.hpp"

int main() {
  using namespace mphpc;
  bench::print_header("Extensions", "permutation importance");

  const core::Dataset ds = bench::build_standard_dataset();
  const auto x = ds.features();
  const auto y = ds.targets();
  const auto split = data::train_test_split(x.rows(), 0.10, 42);
  const auto x_train = x.select_rows(split.train);
  const auto y_train = y.select_rows(split.train);

  Timer timer;
  ml::GbtRegressor gbt(bench::ablation_gbt_options());
  gbt.fit(x_train, y_train, &ThreadPool::shared());
  JsonWriter json;
  json.begin_object().field("experiment", "extensions");

  // --- Permutation importance (on a test subsample for speed). ---
  std::vector<std::size_t> sample;
  for (std::size_t i = 0; i < split.test.size(); i += 2) sample.push_back(split.test[i]);
  const auto x_perm = x.select_rows(sample);
  const auto y_perm = y.select_rows(sample);
  const auto names = core::Dataset::feature_column_names();
  core::PermutationOptions perm_options;
  perm_options.repeats = 2;
  const auto report = core::permutation_report(gbt, x_perm, y_perm, names,
                                               perm_options, &ThreadPool::shared());
  std::printf("permutation importance (MAE increase when shuffled), top 10:\n");
  TablePrinter perm_table({"rank", "feature", "delta MAE"});
  json.begin_array("permutation");
  for (std::size_t i = 0; i < report.size() && i < 10; ++i) {
    perm_table.add_row({std::to_string(i + 1), report[i].feature,
                        format_fixed(report[i].importance, 4)});
    json.begin_object()
        .field("feature", report[i].feature)
        .field("delta_mae", report[i].importance)
        .end_object();
  }
  perm_table.print();
  json.end_array().field("seconds", timer.seconds()).end_object();
  std::printf("elapsed: %.1f s\n", timer.seconds());
  bench::print_json_line(json);
  return 0;
}
