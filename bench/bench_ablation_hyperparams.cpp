// Design-choice ablation (DESIGN.md A2): how the headline MAE responds to
// the main GBT hyper-parameters (rounds, depth, learning rate, objective)
// and to forest size — evidence for the configuration shipped as default.
#include "bench_common.hpp"

#include "data/split.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

int main() {
  using namespace mphpc;
  bench::print_header("Ablation", "GBT / forest hyper-parameter sensitivity");

  const core::Dataset ds = bench::build_standard_dataset();
  const auto x = ds.features();
  const auto y = ds.targets();
  const auto split = data::train_test_split(x.rows(), 0.10, 42);
  const auto x_train = x.select_rows(split.train);
  const auto y_train = y.select_rows(split.train);
  const auto x_test = x.select_rows(split.test);
  const auto y_test = y.select_rows(split.test);

  TablePrinter table({"config", "MAE", "SOS", "fit (s)"});
  JsonWriter json;
  json.begin_object().field("experiment", "hyperparams").begin_array("configs");

  // Fits one configuration and records it in the table and the JSON line.
  const auto eval = [&](const char* label, ml::Regressor&& model) {
    Timer timer;
    model.fit(x_train, y_train, &ThreadPool::shared());
    const double fit_s = timer.seconds();
    const auto pred = model.predict(x_test);
    const double mae = ml::mean_absolute_error(y_test, pred);
    const double sos = ml::same_order_score(y_test, pred);
    table.add_row({label, format_fixed(mae, 4), format_fixed(sos, 4),
                   format_fixed(fit_s, 1)});
    json.begin_object()
        .field("config", label)
        .field("mae", mae)
        .field("sos", sos)
        .field("fit_seconds", fit_s)
        .end_object();
  };

  {
    ml::GbtOptions o;  // shipped default
    eval("gbt default (r400 d8 lr0.1 sq)", ml::GbtRegressor(o));
  }
  {
    ml::GbtOptions o;
    o.n_rounds = 100;
    eval("gbt r100", ml::GbtRegressor(o));
  }
  {
    ml::GbtOptions o;
    o.max_depth = 4;
    eval("gbt depth 4", ml::GbtRegressor(o));
  }
  {
    ml::GbtOptions o;
    o.learning_rate = 0.3;
    o.n_rounds = 150;
    eval("gbt lr 0.3 r150", ml::GbtRegressor(o));
  }
  {
    ml::GbtOptions o;
    o.objective = ml::GbtObjective::kPseudoHuber;
    eval("gbt pseudo-huber", ml::GbtRegressor(o));
  }
  {
    ml::GbtOptions o;
    o.subsample = 1.0;
    eval("gbt no row sampling", ml::GbtRegressor(o));
  }
  {
    ml::ForestOptions o;  // comparator default (100 trees, sqrt mtry)
    eval("forest default (100 trees)", ml::RandomForest(o));
  }
  {
    ml::ForestOptions o;
    o.n_trees = 25;
    eval("forest 25 trees", ml::RandomForest(o));
  }

  json.end_array().end_object();
  table.print();
  bench::print_json_line(json);
  return 0;
}
