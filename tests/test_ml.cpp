// Tests for src/ml: metrics, the model zoo, and training behaviour on
// synthetic problems with known structure.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "ml/binning.hpp"
#include "ml/compiled_ensemble.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/hist_common.hpp"
#include "ml/linear_regressor.hpp"
#include "ml/mean_regressor.hpp"
#include "ml/metrics.hpp"
#include "ml/random_forest.hpp"

namespace mphpc::ml {
namespace {

// Builds a synthetic regression problem: y0 = 3*x0 - 2*x1 + 1,
// y1 = step(x0 > 0.5) * 4 (nonlinear), with optional noise.
struct Problem {
  Matrix x;
  Matrix y;
};

Problem make_problem(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  Matrix y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    const double x2 = rng.uniform();  // irrelevant feature
    x(r, 0) = x0;
    x(r, 1) = x1;
    x(r, 2) = x2;
    y(r, 0) = 3.0 * x0 - 2.0 * x1 + 1.0 + noise * (rng.uniform() - 0.5);
    y(r, 1) = (x0 > 0.5 ? 4.0 : 0.0) + noise * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

// ---------------------------------------------------------------- matrix ----

TEST(Matrix, ShapeAndAccess) {
  Matrix m(2, 3);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  m(1, 2) = 5.0;
  EXPECT_EQ(m.at(1, 2), 5.0);
  EXPECT_THROW(m.at(2, 0), ContractViolation);
}

TEST(Matrix, AdoptsData) {
  const Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_THROW(Matrix(2, 2, {1.0}), ContractViolation);
}

TEST(Matrix, SelectRows) {
  const Matrix m(3, 2, {1, 2, 3, 4, 5, 6});
  const std::vector<std::size_t> rows = {2, 0};
  const Matrix s = m.select_rows(rows);
  EXPECT_EQ(s(0, 0), 5.0);
  EXPECT_EQ(s(1, 1), 2.0);
}

TEST(Matrix, Column) {
  const Matrix m(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m.column(1), (std::vector<double>{2, 4}));
}

// --------------------------------------------------------------- metrics ----

TEST(Metrics, MaeExactValues) {
  const Matrix truth(2, 2, {1, 2, 3, 4});
  const Matrix pred(2, 2, {1, 3, 3, 2});
  EXPECT_DOUBLE_EQ(mean_absolute_error(truth, pred), (0 + 1 + 0 + 2) / 4.0);
}

TEST(Metrics, MaeZeroOnPerfect) {
  const Matrix m(3, 1, {1, 2, 3});
  EXPECT_EQ(mean_absolute_error(m, m), 0.0);
  EXPECT_EQ(root_mean_squared_error(m, m), 0.0);
}

TEST(Metrics, RmseExact) {
  const Matrix truth(1, 2, {0, 0});
  const Matrix pred(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(root_mean_squared_error(truth, pred), std::sqrt(12.5));
}

TEST(Metrics, R2PerfectIsOne) {
  const Matrix m(4, 1, {1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(r2_score(m, m), 1.0);
}

TEST(Metrics, R2MeanPredictionIsZero) {
  const Matrix truth(4, 1, {1, 2, 3, 4});
  const Matrix pred(4, 1, {2.5, 2.5, 2.5, 2.5});
  EXPECT_NEAR(r2_score(truth, pred), 0.0, 1e-12);
}

TEST(Metrics, ShapeMismatchThrows) {
  const Matrix a(2, 2);
  const Matrix b(2, 3);
  EXPECT_THROW(mean_absolute_error(a, b), ContractViolation);
}

TEST(SameOrder, DetectsMatchingOrder) {
  const std::vector<double> a = {1.0, 0.8, 2.1, 1.5};
  const std::vector<double> b = {1.1, 0.7, 3.0, 1.2};  // same ranking
  EXPECT_TRUE(same_order(a, b));
  const std::vector<double> c = {1.1, 0.7, 1.0, 1.2};  // different ranking
  EXPECT_FALSE(same_order(a, c));
}

TEST(SameOrder, SingleElementAlwaysMatches) {
  const std::vector<double> a = {5.0};
  const std::vector<double> b = {-1.0};
  EXPECT_TRUE(same_order(a, b));
}

TEST(SameOrderScore, CountsMatchingRows) {
  const Matrix truth(2, 3, {1, 2, 3,  3, 2, 1});
  const Matrix pred(2, 3, {10, 20, 30,  1, 2, 3});  // first matches, second not
  EXPECT_DOUBLE_EQ(same_order_score(truth, pred), 0.5);
}

// ---------------------------------------------------------------- models ----

TEST(MeanRegressor, PredictsColumnMeans) {
  const Problem p = make_problem(100, 0.0, 1);
  MeanRegressor model;
  model.fit(p.x, p.y);
  const Matrix pred = model.predict(p.x);
  for (std::size_t c = 0; c < p.y.cols(); ++c) {
    double mean = 0.0;
    for (std::size_t r = 0; r < p.y.rows(); ++r) mean += p.y(r, c);
    mean /= static_cast<double>(p.y.rows());
    EXPECT_NEAR(pred(0, c), mean, 1e-12);
    EXPECT_EQ(pred(0, c), pred(99, c));
  }
}

TEST(MeanRegressor, SerializeRoundTrips) {
  const Problem p = make_problem(50, 0.0, 2);
  MeanRegressor model;
  model.fit(p.x, p.y);
  const MeanRegressor restored = MeanRegressor::deserialize(model.serialize());
  EXPECT_EQ(restored.mean(), model.mean());
}

TEST(MeanRegressor, UnfittedPredictThrows) {
  const MeanRegressor model;
  EXPECT_THROW(model.predict(Matrix(1, 1)), ContractViolation);
}

TEST(Cholesky, SolvesSpdSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5]
  Matrix a(2, 2, {4, 2, 2, 3});
  Matrix b(2, 1, {10, 8});
  cholesky_solve_in_place(a, b);
  EXPECT_NEAR(b(0, 0), 1.75, 1e-12);
  EXPECT_NEAR(b(1, 0), 1.5, 1e-12);
}

TEST(Cholesky, RejectsIndefinite) {
  Matrix a(2, 2, {1, 2, 2, 1});  // eigenvalues 3, -1
  Matrix b(2, 1, {1, 1});
  EXPECT_THROW(cholesky_solve_in_place(a, b), ContractViolation);
}

TEST(LinearRegressor, RecoversLinearFunction) {
  const Problem p = make_problem(500, 0.0, 3);
  LinearRegressor model;
  model.fit(p.x, p.y);
  // Output 0 is exactly linear: weights 3, -2, 0, intercept 1.
  EXPECT_NEAR(model.weights()(0, 0), 3.0, 1e-6);
  EXPECT_NEAR(model.weights()(1, 0), -2.0, 1e-6);
  EXPECT_NEAR(model.weights()(2, 0), 0.0, 1e-6);
  EXPECT_NEAR(model.weights()(3, 0), 1.0, 1e-6);
  const Matrix pred = model.predict(p.x);
  double max_err = 0.0;
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    max_err = std::max(max_err, std::abs(pred(r, 0) - p.y(r, 0)));
  }
  EXPECT_LT(max_err, 1e-6);
}

TEST(LinearRegressor, SerializeRoundTrips) {
  const Problem p = make_problem(100, 0.1, 4);
  LinearRegressor model;
  model.fit(p.x, p.y);
  const LinearRegressor restored = LinearRegressor::deserialize(model.serialize());
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
  }
}

TEST(LinearRegressor, DeserializeRejectsGarbage) {
  EXPECT_THROW(LinearRegressor::deserialize(""), ParseError);
  EXPECT_THROW(LinearRegressor::deserialize("2 2\n1 2\n"), ParseError);
}

// --------------------------------------------------------- decision tree ----

TEST(DecisionTree, FitsStepFunctionExactly) {
  const Problem p = make_problem(400, 0.0, 5);
  DecisionTree tree;
  tree.fit(p.x, p.y);
  const Matrix pred = tree.predict(p.x);
  // Output 1 is a step on x0: a tree should nail it.
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    EXPECT_NEAR(pred(r, 1), p.y(r, 1), 1e-9);
  }
}

TEST(DecisionTree, RespectsMaxDepth) {
  const Problem p = make_problem(400, 0.0, 6);
  TreeOptions options;
  options.max_depth = 3;
  DecisionTree tree(options);
  tree.fit(p.x, p.y);
  EXPECT_LE(tree.depth(), 3u);
}

TEST(DecisionTree, RespectsMinSamplesLeaf) {
  const Problem p = make_problem(100, 0.5, 7);
  TreeOptions options;
  options.min_samples_leaf = 10;
  DecisionTree tree(options);
  tree.fit(p.x, p.y);
  // Count rows per leaf via prediction paths.
  std::vector<int> count(tree.nodes().size(), 0);
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    std::size_t i = 0;
    while (!tree.nodes()[i].is_leaf()) {
      const auto& node = tree.nodes()[i];
      i = static_cast<std::size_t>(
          p.x(r, static_cast<std::size_t>(node.feature)) <= node.threshold
              ? node.left
              : node.right);
    }
    count[i]++;
  }
  for (std::size_t i = 0; i < count.size(); ++i) {
    if (tree.nodes()[i].is_leaf()) {
      EXPECT_GE(count[i], 10);
    }
  }
}

TEST(DecisionTree, PredictionsWithinTargetRange) {
  // Regression-tree leaves are means, so predictions stay in [min, max].
  const Problem p = make_problem(300, 1.0, 8);
  DecisionTree tree;
  tree.fit(p.x, p.y);
  double lo = 1e300;
  double hi = -1e300;
  for (const double v : p.y.flat()) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const Matrix pred = tree.predict(p.x);
  for (const double v : pred.flat()) {
    EXPECT_GE(v, lo - 1e-9);
    EXPECT_LE(v, hi + 1e-9);
  }
}

TEST(DecisionTree, ImportancesIdentifyRelevantFeatures) {
  const Problem p = make_problem(500, 0.0, 9);
  DecisionTree tree;
  tree.fit(p.x, p.y);
  const auto imp = tree.feature_importances();
  ASSERT_TRUE(imp.has_value());
  ASSERT_EQ(imp->size(), 3u);
  EXPECT_NEAR((*imp)[0] + (*imp)[1] + (*imp)[2], 1.0, 1e-9);
  // x2 is irrelevant; x0 drives both outputs.
  EXPECT_GT((*imp)[0], (*imp)[2]);
  EXPECT_LT((*imp)[2], 0.05);
}

TEST(DecisionTree, DeterministicAcrossThreadCounts) {
  const Problem p = make_problem(300, 0.3, 10);
  DecisionTree serial;
  serial.fit(p.x, p.y, nullptr);
  ThreadPool pool(4);
  DecisionTree parallel;
  parallel.fit(p.x, p.y, &pool);
  const Matrix a = serial.predict(p.x);
  const Matrix b = parallel.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(DecisionTree, FitRowsSubset) {
  const Problem p = make_problem(200, 0.0, 11);
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < 100; ++r) rows.push_back(r);
  DecisionTree tree;
  tree.fit_rows_binned(p.x, p.y, rows,
                       hist::BinTable(BinnedMatrix::build(p.x, kCartMaxBins)));
  EXPECT_TRUE(tree.fitted());
}

// ---------------------------------------------------------------- forest ----

TEST(RandomForest, BeatsSingleTreeOnNoisyData) {
  const Problem train = make_problem(600, 2.0, 12);
  const Problem test = make_problem(200, 0.0, 13);  // noise-free ground truth
  TreeOptions tree_options;
  DecisionTree tree(tree_options);
  tree.fit(train.x, train.y);
  ForestOptions forest_options;
  forest_options.n_trees = 50;
  RandomForest forest(forest_options);
  forest.fit(train.x, train.y);
  const double tree_mae = mean_absolute_error(test.y, tree.predict(test.x));
  const double forest_mae = mean_absolute_error(test.y, forest.predict(test.x));
  EXPECT_LT(forest_mae, tree_mae);
}

TEST(RandomForest, DeterministicAcrossThreadCounts) {
  const Problem p = make_problem(200, 0.5, 14);
  ForestOptions options;
  options.n_trees = 10;
  RandomForest serial(options);
  serial.fit(p.x, p.y, nullptr);
  ThreadPool pool(3);
  RandomForest parallel(options);
  parallel.fit(p.x, p.y, &pool);
  const Matrix a = serial.predict(p.x);
  const Matrix b = parallel.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

TEST(RandomForest, ImportancesNormalized) {
  const Problem p = make_problem(300, 0.2, 15);
  ForestOptions options;
  options.n_trees = 20;
  RandomForest forest(options);
  forest.fit(p.x, p.y);
  const auto imp = forest.feature_importances();
  ASSERT_TRUE(imp.has_value());
  double sum = 0.0;
  for (const double v : *imp) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

// ------------------------------------------------------------------- gbt ----

GbtOptions small_gbt() {
  GbtOptions o;
  o.n_rounds = 40;
  o.max_depth = 4;
  return o;
}

TEST(Gbt, FitsLinearFunction) {
  const Problem p = make_problem(500, 0.0, 16);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const double mae = mean_absolute_error(p.y, model.predict(p.x));
  EXPECT_LT(mae, 0.15);
}

TEST(Gbt, MoreRoundsFitBetter) {
  const Problem p = make_problem(400, 0.0, 17);
  GbtOptions few = small_gbt();
  few.n_rounds = 5;
  GbtOptions many = small_gbt();
  many.n_rounds = 80;
  GbtRegressor a(few);
  a.fit(p.x, p.y);
  GbtRegressor b(many);
  b.fit(p.x, p.y);
  EXPECT_LT(mean_absolute_error(p.y, b.predict(p.x)),
            mean_absolute_error(p.y, a.predict(p.x)));
}

TEST(Gbt, PseudoHuberObjectiveAlsoFits) {
  const Problem p = make_problem(400, 0.0, 18);
  GbtOptions options = small_gbt();
  options.objective = GbtObjective::kPseudoHuber;
  options.huber_delta = 1.0;
  options.n_rounds = 120;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  EXPECT_LT(mean_absolute_error(p.y, model.predict(p.x)), 0.3);
}

TEST(Gbt, ImportancesFavorRelevantFeatures) {
  const Problem p = make_problem(500, 0.0, 19);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const auto imp = model.feature_importances();
  ASSERT_TRUE(imp.has_value());
  EXPECT_GT((*imp)[0], (*imp)[2]);
  EXPECT_GT((*imp)[1], (*imp)[2]);
}

TEST(Gbt, SerializeRoundTripsPredictions) {
  const Problem p = make_problem(300, 0.2, 20);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
  }
  // Importances survive the round trip too.
  EXPECT_EQ(*restored.feature_importances(), *model.feature_importances());
}

TEST(Gbt, DeserializeRejectsGarbage) {
  EXPECT_THROW(GbtRegressor::deserialize(""), ParseError);
  EXPECT_THROW(GbtRegressor::deserialize("not-a-model 1 2\n"), ParseError);
}

TEST(Gbt, DeterministicAcrossThreadCounts) {
  // The pool fans out over outputs when there are several and over feature
  // blocks inside each tree otherwise; either way the fitted model's bytes
  // match a serial fit's, sampling included. (HistDeterministicAcross-
  // ThreadCounts below compares predictions at 2 and 8 threads.)
  const Problem p = make_problem(250, 0.4, 21);
  GbtOptions options = small_gbt();
  options.subsample = 0.8;
  options.colsample = 0.7;
  ThreadPool pool(4);
  for (const Matrix& y : {p.y, Matrix(p.y.rows(), 1, p.y.column(0))}) {
    GbtRegressor serial(options);
    serial.fit(p.x, y, nullptr);
    GbtRegressor parallel(options);
    parallel.fit(p.x, y, &pool);
    EXPECT_EQ(serial.serialize(), parallel.serialize()) << y.cols() << " outputs";
  }
}

TEST(Gbt, PredictRejectsWrongFeatureCount) {
  const Problem p = make_problem(100, 0.0, 22);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  EXPECT_THROW(model.predict(Matrix(5, 2)), ContractViolation);
}

TEST(Gbt, RejectsInvalidOptions) {
  GbtOptions bad = small_gbt();
  bad.subsample = 0.0;
  GbtRegressor model(bad);
  const Problem p = make_problem(50, 0.0, 23);
  EXPECT_THROW(model.fit(p.x, p.y), ContractViolation);
}

TEST(Gbt, RejectsInvalidMaxBins) {
  GbtOptions bad = small_gbt();
  bad.max_bins = 1;
  GbtRegressor model(bad);
  const Problem p = make_problem(50, 0.0, 23);
  EXPECT_THROW(model.fit(p.x, p.y), ContractViolation);
}

TEST(Gbt, HistFitRejectsNonFiniteFeatures) {
  // A bin code must route a row the way the raw test `x <= threshold`
  // does; NaN fails every such test, so binning it would disagree.
  const GbtOptions options = small_gbt();
  ForestOptions forest_options;
  forest_options.n_trees = 2;
  ThreadPool pool(2);
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    Problem p = make_problem(60, 0.0, 25);
    p.x(17, 1) = bad;
    EXPECT_THROW((void)BinnedMatrix::build(p.x, 32), ContractViolation);
    for (ThreadPool* p_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
      GbtRegressor gbt(options);
      EXPECT_THROW(gbt.fit(p.x, p.y, p_pool), ContractViolation);
      RandomForest forest(forest_options);
      EXPECT_THROW(forest.fit(p.x, p.y, p_pool), ContractViolation);
    }
  }
}

TEST(Gbt, ResolveMaxBinsAutoScalesWithRows) {
  // 0 is the auto sentinel: clamp(rows / 64, 32, kMaxBins).
  EXPECT_EQ(resolve_max_bins(0, 100), 32);       // small data -> floor
  EXPECT_EQ(resolve_max_bins(0, 64 * 100), 100); // scales linearly
  EXPECT_EQ(resolve_max_bins(0, 1'000'000), BinnedMatrix::kMaxBins);
  // A configured value passes through untouched.
  EXPECT_EQ(resolve_max_bins(64, 10), 64);
  EXPECT_EQ(resolve_max_bins(200, 1'000'000), 200);
}

TEST(Gbt, AutoMaxBinsFitsAndRoundTrips) {
  const Problem p = make_problem(300, 0.2, 24);
  GbtOptions options = small_gbt();
  options.max_bins = 0;  // auto
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  EXPECT_LT(mean_absolute_error(p.y, model.predict(p.x)), 0.3);
  // Serialization keeps the sentinel and the restored model predicts
  // identically.
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  EXPECT_EQ(restored.options().max_bins, 0);
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) EXPECT_EQ(a.flat()[i], b.flat()[i]);
}

// ------------------------------------------------------ gbt: resumability ----

TEST(Gbt, ResumedFitIsBitIdenticalToStraightFit) {
  // Interrupt-and-resume must reproduce the uninterrupted model exactly:
  // serialize a checkpoint mid-fit, reload it, continue, and compare the
  // final serialized bytes. Row/column sampling is active so the RNG
  // burn-in on resume is exercised too.
  const Problem p = make_problem(300, 0.2, 25);
  GbtOptions options = small_gbt();
  options.subsample = 0.8;
  options.colsample = 0.8;

  GbtRegressor straight(options);
  straight.fit(p.x, p.y);

  std::string checkpoint_text;
  GbtRegressor first(options);
  first.fit_resumable(p.x, p.y, /*checkpoint_every=*/7, [&](int rounds_done) {
    if (rounds_done == 21) checkpoint_text = first.serialize();
  });
  ASSERT_FALSE(checkpoint_text.empty());
  // Checkpointing itself must not perturb the fit.
  EXPECT_EQ(first.serialize(), straight.serialize());

  GbtRegressor resumed = GbtRegressor::deserialize(checkpoint_text);
  EXPECT_EQ(resumed.rounds_completed(), 21);
  resumed.set_options(options);  // deserialize round-trips them, but be explicit
  ThreadPool pool(4);            // continuation under a pool stays identical
  resumed.fit_resumable(p.x, p.y, 0, nullptr, &pool);
  EXPECT_EQ(resumed.rounds_completed(), options.n_rounds);
  EXPECT_EQ(resumed.serialize(), straight.serialize());
}

TEST(Gbt, ResumeRejectsMismatchedShape) {
  const Problem p = make_problem(200, 0.0, 26);
  GbtOptions options = small_gbt();
  GbtRegressor model(options);
  std::string checkpoint_text;
  model.fit_resumable(p.x, p.y, 10, [&](int rounds_done) {
    if (checkpoint_text.empty() && rounds_done >= 10) {
      checkpoint_text = model.serialize();
    }
  });
  ASSERT_FALSE(checkpoint_text.empty());
  GbtRegressor resumed = GbtRegressor::deserialize(checkpoint_text);
  const Problem other = make_problem(200, 0.0, 27);
  Matrix narrow(other.x.rows(), 2);  // wrong feature count
  EXPECT_THROW(resumed.fit_resumable(narrow, other.y, 0, nullptr),
               ContractViolation);
}

// ------------------------------------------------------ gbt: warm start ----

TEST(Gbt, WarmStartGrowsRoundsAndImproves) {
  const Problem p = make_problem(400, 0.1, 28);
  GbtOptions options = small_gbt();
  options.n_rounds = 10;  // deliberately underfit
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  const double before = mean_absolute_error(p.y, model.predict(p.x));

  model.warm_start_fit(p.x, p.y, /*extra_rounds=*/60);
  EXPECT_EQ(model.rounds_completed(), 70);
  EXPECT_EQ(model.options().n_rounds, 70);
  const double after = mean_absolute_error(p.y, model.predict(p.x));
  EXPECT_LT(after, before);
}

TEST(Gbt, WarmStartKeepsBaseScoreFixed) {
  // The stored trees were built against the original base score, so a
  // warm start on a window with a very different target mean must not
  // move it: only new trees absorb the shift.
  const Problem p = make_problem(300, 0.0, 29);
  GbtOptions options = small_gbt();
  options.n_rounds = 8;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  const std::string before = model.serialize();

  Matrix shifted_y = p.y;
  for (double& v : shifted_y.flat()) v += 100.0;
  model.warm_start_fit(p.x, shifted_y, 4);

  // The serialized header carries the base scores; extract both and
  // compare (the first line after the per-output header is stable), by
  // checking the old prefix is untouched in spirit: predictions on the
  // original data move toward the shifted targets only via new trees.
  const GbtRegressor original = GbtRegressor::deserialize(before);
  const Matrix base_preds = original.predict(p.x);
  const Matrix warm_preds = model.predict(p.x);
  for (std::size_t i = 0; i < base_preds.flat().size(); ++i) {
    // New trees push predictions up toward +100; the direction proves the
    // shift went through trees, not through a recomputed base score.
    EXPECT_GT(warm_preds.flat()[i], base_preds.flat()[i]);
  }
}

TEST(Gbt, WarmStartIsDeterministicPerGeneration) {
  const Problem p = make_problem(250, 0.2, 30);
  GbtOptions options = small_gbt();
  options.n_rounds = 12;
  options.subsample = 0.8;

  const auto run = [&](ThreadPool* pool) {
    GbtRegressor model(options);
    model.fit(p.x, p.y);
    model.warm_start_fit(p.x, p.y, 6, pool);   // generation 1
    model.warm_start_fit(p.x, p.y, 6, pool);   // generation 2
    return model.serialize();
  };
  ThreadPool pool(4);
  const std::string serial = run(nullptr);
  EXPECT_EQ(serial, run(&pool));  // pool-independent

  // Each generation draws a fresh RNG stream: two warm starts from the
  // same state with different completed-round counts must differ.
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  model.warm_start_fit(p.x, p.y, 12);
  EXPECT_NE(model.serialize(), serial);
}

TEST(Gbt, WarmStartRejectsUnfittedAndBadShapes) {
  const Problem p = make_problem(100, 0.0, 31);
  GbtRegressor unfitted(small_gbt());
  EXPECT_THROW(unfitted.warm_start_fit(p.x, p.y, 5), ContractViolation);

  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  EXPECT_THROW(model.warm_start_fit(p.x, p.y, 0), ContractViolation);
  Matrix narrow(p.x.rows(), 2);
  EXPECT_THROW(model.warm_start_fit(narrow, p.y, 5), ContractViolation);
}

// ---------------------------------------------- gbt: bins and threads ----

TEST(Gbt, HistSerializeRoundTripsPredictionsAndOptions) {
  const Problem p = make_problem(300, 0.2, 28);
  GbtOptions options = small_gbt();
  options.max_bins = 32;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  EXPECT_NE(model.serialize().find("\nmethod hist 32\n"), std::string::npos);
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  EXPECT_EQ(restored.options().max_bins, 32);
  const Matrix a = model.predict(p.x);
  const Matrix b = restored.predict(p.x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
  }
}

TEST(Gbt, HistDeterministicAcrossThreadCounts) {
  const Problem p = make_problem(250, 0.4, 29);
  const GbtOptions options = small_gbt();
  GbtRegressor serial(options);
  serial.fit(p.x, p.y, nullptr);
  const Matrix a = serial.predict(p.x);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    GbtRegressor parallel(options);
    parallel.fit(p.x, p.y, &pool);
    const Matrix b = parallel.predict(p.x);
    for (std::size_t i = 0; i < a.flat().size(); ++i) {
      EXPECT_EQ(a.flat()[i], b.flat()[i]) << "threads=" << threads;
    }
  }
}

// ----------------------------------------------- gbt: corrupt model text ----

// Minimal well-formed model text (1 output, 2 features, one 3-node tree)
// whose nodes block the corruption tests below replace.
std::string model_text(const std::string& tree_block) {
  return "gbt 1 2\n"
         "method hist 64\n"
         "base 0\n"
         "importance_gain 0 0\n"
         "importance_count 0 0\n" +
         tree_block;
}

const char kGoodTree[] =
    "tree 0 3\n"
    "0 0.5 1 2 0\n"
    "-1 0 -1 -1 0.25\n"
    "-1 0 -1 -1 -0.25\n";

TEST(Gbt, DeserializeAcceptsMinimalModel) {
  const GbtRegressor model = GbtRegressor::deserialize(model_text(kGoodTree));
  EXPECT_TRUE(model.fitted());
  Matrix x(1, 2);
  x(0, 0) = 0.0;
  EXPECT_DOUBLE_EQ(model.predict(x)(0, 0), 0.25);
}

TEST(Gbt, DeserializeRejectsFeatureOutOfRange) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "7 0.5 1 2 0\n"  // feature 7 but the model has 2 features
      "-1 0 -1 -1 0.25\n"
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsBackwardChildLink) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 2 0\n"
      "1 0.5 0 2 0\n"  // left points back at the root: a cycle
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsChildIndexOutOfRange) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 9 0\n"  // right child 9 in a 3-node tree
      "-1 0 -1 -1 0.25\n"
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsLeafWithChildren) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 2 0\n"
      "-1 0 1 2 0.25\n"  // leaf (feature -1) carrying child links
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsBadTreeNodeCount) {
  // Zero nodes and a count larger than the remaining input both fail
  // before any allocation happens.
  EXPECT_THROW(GbtRegressor::deserialize(model_text("tree 0 0\n")), ParseError);
  EXPECT_THROW(GbtRegressor::deserialize(model_text("tree 0 999999999\n"
                                                    "-1 0 -1 -1 0\n")),
               ParseError);
}

TEST(Gbt, DeserializeRejectsTruncatedNodes) {
  const std::string bad = model_text(
      "tree 0 3\n"
      "0 0.5 1 2 0\n"
      "-1 0 -1 -1 0.25\n");  // header promises 3 nodes, only 2 present
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

TEST(Gbt, DeserializeRejectsBadMethodLine) {
  auto with_method = [](const std::string& method_line) {
    return "gbt 1 2\n" + method_line +
           "base 0\n"
           "importance_gain 0 0\n"
           "importance_count 0 0\n" +
           std::string(kGoodTree);
  };
  EXPECT_THROW(GbtRegressor::deserialize(with_method("method sketchy 64\n")),
               ParseError);
  // Exact split search is gone; a model claiming it is unknown.
  EXPECT_THROW(GbtRegressor::deserialize(with_method("method exact 64\n")),
               ParseError);
  EXPECT_THROW(GbtRegressor::deserialize(with_method("method hist 1\n")),
               ParseError);
  EXPECT_THROW(GbtRegressor::deserialize(with_method("method hist 9999\n")),
               ParseError);
  // Models serialized before the method line existed still load.
  const GbtRegressor legacy = GbtRegressor::deserialize(with_method(""));
  EXPECT_TRUE(legacy.fitted());
}

TEST(Gbt, DeserializeRejectsNonTreeGraphs) {
  // Forward, in-range links still allow a graph that is not a tree: a node
  // with two parents (here both leaves of two siblings), a node whose two
  // links name the same child, or an orphan no link reaches.
  for (const char* block : {"tree 0 5\n0 0.5 1 2 0\n0 0.25 3 4 0\n0 0.75 3 4 0\n"
                            "-1 0 -1 -1 1.5\n-1 0 -1 -1 -2\n",
                            "tree 0 2\n0 0.5 1 1 0\n-1 0 -1 -1 1\n",
                            "tree 0 4\n0 0.5 1 2 0\n-1 0 -1 -1 0.25\n"
                            "-1 0 -1 -1 -0.25\n-1 0 -1 -1 9\n"}) {
    EXPECT_THROW(GbtRegressor::deserialize(model_text(block)), ParseError) << block;
  }
}

TEST(Gbt, DeserializeRejectsTreeForUnknownOutput) {
  const std::string bad = model_text(
      "tree 4 3\n"  // output 4 but the model has 1 output
      "0 0.5 1 2 0\n"
      "-1 0 -1 -1 0.25\n"
      "-1 0 -1 -1 -0.25\n");
  EXPECT_THROW(GbtRegressor::deserialize(bad), ParseError);
}

// ------------------------------------------ gbt: parser mutation sweep ----

// Applies one seeded edit to `text`: a bit flip, an inserted space, tab,
// newline, carriage return or digit, a deleted byte, a duplicated line or
// a truncation.
std::string mutate(std::string text, Rng& rng) {
  const auto pick = [&](std::size_t n) { return static_cast<std::size_t>(rng.below(n)); };
  switch (rng.below(5)) {
    case 0:
      if (!text.empty()) text[pick(text.size())] ^= static_cast<char>(1u << rng.below(8));
      break;
    case 1: {
      static constexpr char kSeparators[] = {' ', '\t', '\n', '\r'};
      const std::size_t kind = pick(5);
      const char c = kind < 4 ? kSeparators[kind] : static_cast<char>('0' + rng.below(10));
      text.insert(pick(text.size() + 1), 1, c);
      break;
    }
    case 2:
      if (!text.empty()) text.erase(pick(text.size()), 1);
      break;
    case 3: {
      if (text.empty()) break;
      const std::size_t before = text.rfind('\n', pick(text.size()));
      const std::size_t begin = before == std::string::npos ? 0 : before + 1;
      const std::size_t nl = text.find('\n', begin);
      const std::size_t end = nl == std::string::npos ? text.size() : nl + 1;
      text.insert(end, text.substr(begin, end - begin));
      break;
    }
    default:
      text.resize(pick(text.size() + 1));
      break;
  }
  return text;
}

TEST(GbtParse, MutantVerdictsPinned) {
  // Pins the model-text language: ~2,000 seeded edits of a trained model
  // and of the corrupt-model fixtures above, each either accepted (and its
  // re-serialized bytes recorded) or rejected with a ParseError (and its
  // message recorded). The digest of that record was taken from the
  // split()-based parser, so a parser rewrite must accept, reject and
  // re-emit exactly the same texts.
  GbtOptions options;
  options.n_rounds = 3;
  options.max_depth = 3;
  const Problem p = make_problem(120, 0.2, 41);
  GbtRegressor trained(options);
  trained.fit(p.x, p.y);
  const std::vector<std::string> seeds = {
      trained.serialize(),
      model_text(kGoodTree),
      "gbt 1 2\nbase 0\nimportance_gain 0 0\nimportance_count 0 0\n" +
          std::string(kGoodTree),
      model_text("tree 0 3\n7 0.5 1 2 0\n-1 0 -1 -1 0.25\n-1 0 -1 -1 -0.25\n"),
      model_text("tree 0 3\n0 0.5 1 2 0\n1 0.5 0 2 0\n-1 0 -1 -1 -0.25\n"),
      model_text("tree 0 3\n0 0.5 1 9 0\n-1 0 -1 -1 0.25\n-1 0 -1 -1 -0.25\n"),
      model_text("tree 0 3\n0 0.5 1 2 0\n-1 0 1 2 0.25\n-1 0 -1 -1 -0.25\n"),
      model_text("tree 0 999999999\n-1 0 -1 -1 0\n"),
      model_text("tree 0 3\n0 0.5 1 2 0\n-1 0 -1 -1 0.25\n"),
      model_text("tree 0 5\n0 0.5 1 2 0\n0 0.25 3 4 0\n0 0.75 3 4 0\n"
                 "-1 0 -1 -1 1.5\n-1 0 -1 -1 -2\n"),
      model_text("tree 0 2\n0 0.5 1 1 0\n-1 0 -1 -1 1\n"),
      model_text("tree 4 3\n0 0.5 1 2 0\n-1 0 -1 -1 0.25\n-1 0 -1 -1 -0.25\n"),
  };
  Rng rng(2909);
  std::string record;
  int accepted = 0;
  int rejected = 0;
  for (int i = 0; i < 2000; ++i) {
    // Half the mutants start from the three well-formed seeds.
    std::string text = seeds[rng.below(rng.below(2) == 0 ? 3 : seeds.size())];
    const int edits = 1 + static_cast<int>(rng.below(2));
    for (int e = 0; e < edits; ++e) text = mutate(std::move(text), rng);
    try {
      const std::string once = GbtRegressor::deserialize(text).serialize();
      EXPECT_EQ(GbtRegressor::deserialize(once).serialize(), once)
          << "mutant " << i << " is not a fixed point";
      record += "A " + once;
      ++accepted;
    } catch (const ParseError& e) {
      record += "R ";
      record += e.what();
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " escaped a non-ParseError: " << e.what();
    }
    record += "\n--\n";
  }
  EXPECT_GT(accepted, 50);
  EXPECT_GT(rejected, 100);
  EXPECT_EQ(format_hex64(fnv1a_64(record)), "2962558d3d7a0834")
      << accepted << " accepted, " << rejected << " rejected";
}

// --------------------------------------------- tree/forest: hist vs exact ----

// Mirrors the counter-dataset regime the histogram method targets: the
// discontinuous target sits on a low-cardinality feature (lossless to
// bin), while the smooth targets ride on continuous features where
// quantile quantization only perturbs thresholds slightly. A step target
// on a continuous feature is deliberately excluded — a bin-width sliver
// next to the step takes the full jump as error, which is an inherent
// histogram-method property, not a parity bug.
Problem make_binnable_problem(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  Matrix y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = std::floor(rng.uniform() * 40.0) / 40.0;  // 40 levels
    const double x1 = rng.uniform();
    x(r, 0) = x0;
    x(r, 1) = x1;
    x(r, 2) = rng.uniform();  // irrelevant feature
    y(r, 0) = 3.0 * x0 - 2.0 * x1 + 1.0 + noise * (rng.uniform() - 0.5);
    y(r, 1) = (x0 > 0.5 ? 4.0 : 0.0) + noise * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

// Like make_binnable_problem, but every feature is low-cardinality: with
// bins >= levels the quantile binning is lossless, which is the regime
// where a *single* tree (no ensemble averaging to absorb a shifted early
// split) can honestly promise near-exact accuracy.
Problem make_discrete_problem(std::size_t n, double noise, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 3);
  Matrix y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = std::floor(rng.uniform() * 40.0) / 40.0;
    const double x1 = std::floor(rng.uniform() * 40.0) / 40.0;
    x(r, 0) = x0;
    x(r, 1) = x1;
    x(r, 2) = std::floor(rng.uniform() * 40.0) / 40.0;  // irrelevant feature
    y(r, 0) = 3.0 * x0 - 2.0 * x1 + 1.0 + noise * (rng.uniform() - 0.5);
    y(r, 1) = (x0 > 0.5 ? 4.0 : 0.0) + noise * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

// The accuracy bounds below are 1.02x the test RMSE that an exact-greedy
// fit (split search over every distinct raw value, since deleted) scored
// on the same problem: histogram split search may not be more than 2%
// worse.

TEST(DecisionTree, HistMatchesExactAccuracy) {
  const Problem train = make_discrete_problem(800, 0.1, 40);
  const Problem test = make_discrete_problem(300, 0.1, 41);
  TreeOptions options;
  options.max_depth = 8;
  static_assert(kCartMaxBins >= 40, "lossless binning of the 40 feature levels");
  DecisionTree tree(options);
  tree.fit(train.x, train.y);
  const double exact_rmse = 0.084311;
  EXPECT_LT(root_mean_squared_error(test.y, tree.predict(test.x)), 1.02 * exact_rmse);
}

TEST(DecisionTree, HistDeterministicAcrossThreadCounts) {
  const Problem p = make_problem(300, 0.3, 42);
  const TreeOptions options;
  DecisionTree serial(options);
  serial.fit(p.x, p.y, nullptr);
  const Matrix a = serial.predict(p.x);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    DecisionTree parallel(options);
    parallel.fit(p.x, p.y, &pool);
    const Matrix b = parallel.predict(p.x);
    for (std::size_t i = 0; i < a.flat().size(); ++i) {
      EXPECT_EQ(a.flat()[i], b.flat()[i]) << "threads=" << threads;
    }
  }
}

TEST(RandomForest, HistMatchesExactAccuracy) {
  const Problem train = make_binnable_problem(800, 0.1, 43);
  const Problem test = make_binnable_problem(300, 0.1, 44);
  ForestOptions options;
  options.n_trees = 30;
  RandomForest forest(options);
  forest.fit(train.x, train.y);
  const double exact_rmse = 0.053420;
  EXPECT_LT(root_mean_squared_error(test.y, forest.predict(test.x)), 1.02 * exact_rmse);
}

TEST(RandomForest, HistDeterministicAcrossThreadCounts) {
  const Problem p = make_problem(300, 0.3, 45);
  ForestOptions options;
  options.n_trees = 12;
  RandomForest serial(options);
  serial.fit(p.x, p.y, nullptr);
  const Matrix a = serial.predict(p.x);
  for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    RandomForest parallel(options);
    parallel.fit(p.x, p.y, &pool);
    const Matrix b = parallel.predict(p.x);
    for (std::size_t i = 0; i < a.flat().size(); ++i) {
      EXPECT_EQ(a.flat()[i], b.flat()[i]) << "threads=" << threads;
    }
  }
}

// ------------------------------------------------- training golden bits ----

// Training must stay bit-stable across trainer refactors: these digests
// pin the exact serialized models and importances of three hist fits. A
// change that reorders any floating-point addition in histogram building,
// split search, partitioning or the per-round prediction update moves
// them. Each fit runs serially and on a pool, so the thread-count
// independence contract is pinned too.

// Eight features in the counter-dataset mix: continuous, low-cardinality
// and one-hot flags (near-constant histograms), three outputs.
Problem make_wide_problem(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Matrix x(n, 8);
  Matrix y(n, 3);
  for (std::size_t r = 0; r < n; ++r) {
    const double x0 = rng.uniform();
    const double x1 = std::floor(rng.uniform() * 12.0);  // 12 levels
    const double x2 = rng.uniform() < 0.2 ? 1.0 : 0.0;   // sparse flag
    const double x3 = rng.uniform() * rng.uniform();     // skewed
    x(r, 0) = x0;
    x(r, 1) = x1;
    x(r, 2) = x2;
    x(r, 3) = x3;
    x(r, 4) = rng.uniform() < 0.5 ? 1.0 : 0.0;  // irrelevant flag
    x(r, 5) = rng.uniform();                    // irrelevant
    x(r, 6) = 1.0 - x2;                         // one-hot partner of x2
    x(r, 7) = std::floor(rng.uniform() * 3.0);  // 3 levels
    y(r, 0) = 2.0 * x0 + 0.25 * x1 - 3.0 * x2 * x3 + 0.2 * (rng.uniform() - 0.5);
    y(r, 1) = (x1 > 6.0 ? 1.5 : -0.5) + x3 + 0.3 * (rng.uniform() - 0.5);
    y(r, 2) = std::sin(6.0 * x0) * (1.0 + 0.5 * x(r, 7)) +
              0.1 * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

std::string digest(std::string_view text) { return format_hex64(fnv1a_64(text)); }

std::string digest_importances(const Regressor& model) {
  const auto imp = model.feature_importances();
  std::string text;
  for (const double v : imp.value()) text += format_double(v) + " ";
  return digest(text);
}

std::string serialize_tree(const DecisionTree& tree) {
  std::string out = "tree " + std::to_string(tree.nodes().size()) + "\n";
  for (const TreeNode& node : tree.nodes()) {
    out += std::to_string(node.feature) + " " + format_double(node.threshold) +
           " " + std::to_string(node.left) + " " + std::to_string(node.right);
    // Appended piecewise: GCC 12's -Wrestrict misfires on `" " +
    // format_double(v)` here under Release inlining.
    for (const double v : node.value) {
      out += ' ';
      out += format_double(v);
    }
    out += "\n";
  }
  return out;
}

std::string serialize_forest(const RandomForest& forest) {
  std::string out;
  for (const DecisionTree& tree : forest.trees()) out += serialize_tree(tree);
  return out;
}

TEST(TrainingGolden, MultiOutputHistGbtSubsampled) {
  const Problem p = make_wide_problem(700, 91);
  GbtOptions options;
  options.n_rounds = 30;
  options.max_depth = 6;
  options.subsample = 0.8;
  options.colsample = 0.6;
  ThreadPool pool(3);
  for (ThreadPool* p_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    GbtRegressor model(options);
    model.fit(p.x, p.y, p_pool);
    EXPECT_EQ(digest(model.serialize()), "35528bbaa28a4753");
    EXPECT_EQ(digest_importances(model), "c96b2ca31f1736a4");
  }
}

TEST(TrainingGolden, PseudoHuberHistGbt) {
  const Problem p = make_wide_problem(600, 92);
  const Matrix y0 = Matrix(p.y.rows(), 1, p.y.column(0));
  GbtOptions options;
  options.n_rounds = 25;
  options.max_depth = 7;
  options.objective = GbtObjective::kPseudoHuber;
  options.huber_delta = 0.5;
  ThreadPool pool(3);
  for (ThreadPool* p_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    GbtRegressor model(options);
    model.fit(p.x, y0, p_pool);
    EXPECT_EQ(digest(model.serialize()), "5058660118778b30");
    EXPECT_EQ(digest_importances(model), "ba6ade51a32d65b4");
  }
}

TEST(TrainingGolden, HistRandomForest) {
  const Problem p = make_wide_problem(500, 93);
  ForestOptions options;
  options.n_trees = 12;
  options.max_depth = 8;
  ThreadPool pool(3);
  for (ThreadPool* p_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    RandomForest model(options);
    model.fit(p.x, p.y, p_pool);
    EXPECT_EQ(digest(serialize_forest(model)), "1289cc6e6b18ae42");
    EXPECT_EQ(digest_importances(model), "ce0c4ca613efc03a");
  }
}

// The option branches the fits above never take: a standalone tree with
// per-node feature subsampling and every CART gate on, and a GBT with a
// split penalty, a heavy child-weight gate, a small lambda, coarse bins
// and column subsampling.
TEST(TrainingGolden, GatedDecisionTree) {
  const Problem p = make_wide_problem(500, 94);
  TreeOptions options;
  options.max_depth = 10;
  options.max_features = 3;
  options.min_samples_split = 8;
  options.min_samples_leaf = 3;
  options.min_gain = 0.2;
  options.seed = 5;
  ThreadPool pool(3);
  for (ThreadPool* p_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    DecisionTree model(options);
    model.fit(p.x, p.y, p_pool);
    EXPECT_EQ(digest(serialize_tree(model)), "0d95cbdec99b0bf2");
    EXPECT_EQ(digest_importances(model), "f3b7db916ef20a2c");
  }
}

TEST(TrainingGolden, RegularizedHistGbt) {
  const Problem p = make_wide_problem(600, 95);
  GbtOptions options;
  options.n_rounds = 25;
  options.max_depth = 6;
  options.gamma = 0.02;
  options.min_child_weight = 4.0;
  options.lambda = 0.5;
  options.max_bins = 16;
  options.colsample = 0.6;
  ThreadPool pool(3);
  for (ThreadPool* p_pool : {static_cast<ThreadPool*>(nullptr), &pool}) {
    GbtRegressor model(options);
    model.fit(p.x, p.y, p_pool);
    EXPECT_EQ(digest(model.serialize()), "7767084d5440b804");
    EXPECT_EQ(digest_importances(model), "6e2ced5f96798128");
  }
}

// ------------------------------------------------ compiled ensemble parity ----

void expect_matrices_identical(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_EQ(a.flat()[i], b.flat()[i]) << "flat index " << i;
  }
}

/// predict_row must agree bit-for-bit with the reference predictions too,
/// through the thread-local overload and through one caller-owned scratch
/// reused across every row.
void expect_row_parity(const CompiledEnsemble& compiled, const Matrix& x,
                       const Matrix& reference) {
  std::vector<double> row(compiled.n_outputs());
  CompiledEnsemble::RowScratch scratch;
  for (std::size_t r = 0; r < x.rows(); ++r) {
    compiled.predict_row(x.row(r), row);
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], reference(r, k)) << "row " << r << " output " << k;
    }
    compiled.predict_row(x.row(r), row, scratch);
    for (std::size_t k = 0; k < row.size(); ++k) {
      EXPECT_EQ(row[k], reference(r, k)) << "row " << r << " output " << k << " (scratch)";
    }
  }
}

/// Holds a compiled model to bit-identity with its reference walker on
/// `x`: batched on the calling thread and on 1-, 2- and 8-thread pools,
/// and one row at a time.
template <typename Model>
void expect_full_parity(const CompiledEnsemble& compiled, const Model& model,
                        const Matrix& x) {
  const Matrix reference = model.predict(x);
  expect_matrices_identical(compiled.predict(x, nullptr), reference);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    expect_matrices_identical(compiled.predict(x, &pool), reference);
  }
  expect_row_parity(compiled, x, reference);
}

/// Most distinct split thresholds on any one feature of a GBT.
std::size_t max_distinct_cuts(const GbtRegressor& model) {
  std::vector<std::vector<double>> cuts(model.n_features());
  for (std::size_t k = 0; k < model.n_outputs(); ++k) {
    for (const GbtTree& tree : model.ensemble(k)) {
      for (const GbtNode& node : tree.nodes) {
        if (!node.is_leaf()) {
          cuts[static_cast<std::size_t>(node.feature)].push_back(node.threshold);
        }
      }
    }
  }
  std::size_t most = 0;
  for (std::vector<double>& c : cuts) {
    std::sort(c.begin(), c.end());
    most = std::max(most, static_cast<std::size_t>(
                              std::unique(c.begin(), c.end()) - c.begin()));
  }
  return most;
}

/// A hist GBT warm-refit for eight generations on fresh windows, as a
/// serving daemon refits: each window bins to new quantile edges, so each
/// generation adds cuts, and the model passes 255 cuts on a feature.
GbtRegressor refit_past_255_cuts(std::uint64_t seed) {
  const Problem first = make_problem(300, 0.3, seed);
  GbtRegressor model(small_gbt());
  model.fit(first.x, first.y);
  for (std::uint64_t gen = 1; gen <= 8; ++gen) {
    const Problem window = make_problem(300, 0.3, seed + 1000 * gen);
    model.warm_start_fit(window.x, window.y, 10);
  }
  return model;
}

TEST(CompiledParity, GbtExactBitIdentical) {
  // With max_bins 256 on 300 distinct values per feature, the thresholds
  // are the midpoints between adjacent training values — the candidates
  // exact-greedy search splits on — and a feature can hold 255 of them:
  // the 32-bit word's limit, where a row code reaches 255, the leaf
  // marker's value. One warm refit on fresh rows adds midpoints past it.
  const Problem p = make_problem(300, 0.3, 50);
  GbtOptions options = small_gbt();
  options.n_rounds = 120;
  options.max_depth = 8;
  options.max_bins = 256;
  GbtRegressor model(options);
  model.fit(p.x, p.y);
  ASSERT_EQ(max_distinct_cuts(model), 255u);
  const Problem held = make_problem(200, 0.3, 150);
  const auto compiled = CompiledEnsemble::compile(model);
  ASSERT_EQ(compiled.word_bits(), 32);
  expect_full_parity(compiled, model, held.x);
  expect_full_parity(compiled, model, p.x);

  const Problem window = make_problem(300, 0.3, 250);
  model.warm_start_fit(window.x, window.y, 20);
  const auto refit = CompiledEnsemble::compile(model);
  ASSERT_EQ(refit.word_bits(), 64) << max_distinct_cuts(model);
  expect_full_parity(refit, model, held.x);
}

TEST(CompiledParity, GbtHistBitIdentical) {
  const Problem p = make_problem(300, 0.3, 51);
  // The single-row kernel walks trees in groups of 16: tree counts below,
  // just past and far from a multiple of the group exercise the tail walk.
  // Batches of 1..9 rows cover the calling-thread small-batch path and a
  // tile remainder behind one full lane group.
  for (const int rounds : {40, 1, 15, 17, 401}) {
    GbtOptions options = small_gbt();
    options.n_rounds = rounds;
    GbtRegressor model(options);
    model.fit(p.x, p.y);
    const auto compiled = CompiledEnsemble::compile(model);
    ASSERT_EQ(compiled.word_bits(), 32) << "rounds=" << rounds;
    const Matrix reference = model.predict(p.x);
    expect_matrices_identical(compiled.predict(p.x), reference);
    expect_row_parity(compiled, p.x, reference);
    ThreadPool pool(2);
    for (std::size_t n = 1; n <= 9; ++n) {
      const Matrix head = p.x.select_rows(std::vector<std::size_t>(n, 7));
      expect_matrices_identical(compiled.predict(head, &pool), model.predict(head));
    }
  }
}

TEST(CompiledParity, RandomForestBitIdentical) {
  const Problem p = make_problem(300, 0.3, 52);
  // 33 trees: two full 16-tree groups plus a tail in the row kernel.
  for (const int n_trees : {15, 33}) {
    ForestOptions options;
    options.n_trees = n_trees;
    RandomForest model(options);
    model.fit(p.x, p.y);
    const auto compiled = CompiledEnsemble::compile(model);
    // Continuous features: every threshold is one of <= kCartMaxBins - 1
    // bin edges, so the forest fits the 32-bit word.
    ASSERT_EQ(compiled.word_bits(), 32);
    const Matrix reference = model.predict(p.x);
    expect_matrices_identical(compiled.predict(p.x), reference);
    expect_row_parity(compiled, p.x, reference);
  }
}

/// A one-tree forest: a lone CART tree compiles through the forest path.
RandomForest fit_one_tree(const Problem& p, int max_depth = 16) {
  ForestOptions options;
  options.n_trees = 1;
  options.max_depth = max_depth;
  RandomForest model(options);
  model.fit(p.x, p.y);
  return model;
}

TEST(CompiledParity, DecisionTreeBitIdentical) {
  const Problem p = make_problem(300, 0.3, 53);
  const RandomForest model = fit_one_tree(p);
  const auto compiled = CompiledEnsemble::compile(model);
  const Matrix reference = model.predict(p.x);
  expect_matrices_identical(compiled.predict(p.x), reference);
  expect_row_parity(compiled, p.x, reference);
}

TEST(CompiledParity, StumpBitIdentical) {
  const Problem p = make_problem(200, 0.3, 54);
  // A single split: root plus two leaves.
  const RandomForest model = fit_one_tree(p, 1);
  ASSERT_EQ(model.trees().front().nodes().size(), 3u);
  const auto compiled = CompiledEnsemble::compile(model);
  expect_matrices_identical(compiled.predict(p.x), model.predict(p.x));
}

TEST(CompiledParity, SingleLeafConstantTargetBitIdentical) {
  // A constant target collapses every tree to one leaf (walk length 0).
  Problem base = make_problem(100, 0.0, 55);
  for (double& v : base.y.flat()) v = 2.75;
  const RandomForest forest = fit_one_tree(base);
  expect_matrices_identical(CompiledEnsemble::compile(forest).predict(base.x),
                            forest.predict(base.x));
  GbtRegressor gbt(small_gbt());
  gbt.fit(base.x, base.y);
  expect_matrices_identical(CompiledEnsemble::compile(gbt).predict(base.x),
                            gbt.predict(base.x));
}

TEST(CompiledParity, SerializedModelRecompilesIdentically) {
  const Problem p = make_problem(300, 0.3, 56);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  expect_matrices_identical(CompiledEnsemble::compile(restored).predict(p.x),
                            CompiledEnsemble::compile(model).predict(p.x));
}

TEST(CompiledParity, DeterministicAcrossThreadCounts) {
  // 700 rows span two 512-row tiles. A single hist fit takes the 32-bit
  // word; the refit model passes 255 cuts on a feature, so its tiles and
  // pool chunks run on the 64-bit word.
  const Problem p = make_problem(700, 0.3, 57);
  GbtRegressor hist(small_gbt());
  hist.fit(p.x, p.y);
  GbtRegressor wide = refit_past_255_cuts(57);
  for (GbtRegressor* model : {&hist, &wide}) {
    const auto compiled = CompiledEnsemble::compile(*model);
    ASSERT_EQ(compiled.word_bits(), model == &hist ? 32 : 64);
    const Matrix reference = model->predict(p.x);
    expect_matrices_identical(compiled.predict(p.x, nullptr), reference);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
      ThreadPool pool(threads);
      expect_matrices_identical(compiled.predict(p.x, &pool), reference);
    }
  }
}

// ---------------------------------------------- bin-code engine parity ----
//
// The bin-code pool is the only compiled engine, so these tests hold it to
// bit-identity with the reference walkers (GbtRegressor::predict and
// friends) on arbitrary rows, on rows sitting exactly on the fitted cut
// values, and on ensembles whose trees differ wildly in depth.

/// Rows equal to row 0 of `x` except that one feature sits exactly on a
/// fitted threshold or on its immediate double neighbours — the hardest
/// boundary cases for the `code(v) <= cut` comparison.
Matrix threshold_rows(const GbtRegressor& model, const Matrix& x) {
  const std::vector<double> base(x.row(0).begin(), x.row(0).end());
  std::vector<double> flat;
  for (std::size_t k = 0; k < model.n_outputs(); ++k) {
    for (const GbtTree& tree : model.ensemble(k)) {
      for (const GbtNode& node : tree.nodes) {
        if (node.is_leaf()) continue;
        for (const double v :
             {node.threshold,
              std::nextafter(node.threshold, -std::numeric_limits<double>::infinity()),
              std::nextafter(node.threshold, std::numeric_limits<double>::infinity())}) {
          std::vector<double> row = base;
          row[static_cast<std::size_t>(node.feature)] = v;
          flat.insert(flat.end(), row.begin(), row.end());
        }
      }
    }
  }
  const std::size_t n_rows = flat.size() / x.cols();
  return Matrix(n_rows, x.cols(), std::move(flat));
}

std::size_t total_nodes(const GbtRegressor& model) {
  std::size_t n = 0;
  for (std::size_t k = 0; k < model.n_outputs(); ++k) {
    for (const GbtTree& tree : model.ensemble(k)) n += tree.nodes.size();
  }
  return n;
}

TEST(QuantizedParity, GbtHistQuantizedEngineServes) {
  const Problem p = make_problem(300, 0.3, 60);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const auto compiled = CompiledEnsemble::compile(model);
  ASSERT_EQ(compiled.word_bits(), 32);
  EXPECT_EQ(compiled.n_nodes(), total_nodes(model));
  const Problem held = make_problem(200, 0.3, 61);
  const Matrix reference = model.predict(held.x);
  expect_matrices_identical(compiled.predict(held.x), reference);
  expect_row_parity(compiled, held.x, reference);
}

TEST(QuantizedParity, FuzzRandomEnsemblesRandomRows) {
  // Random ensembles x random rows (deliberately outside the training
  // range): whichever word the model gets must match the reference. Odd
  // seeds bin finely and then warm-refit on a fresh window, which may push
  // a feature past 255 cuts.
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    GbtOptions options = small_gbt();
    options.n_rounds = 8 + static_cast<int>(seed) * 11;
    options.max_depth = 2 + static_cast<int>(seed % 4);
    options.max_bins = seed % 2 == 0 ? 64 : 256;
    const Problem p = make_problem(250, 0.4, 62 + seed);
    GbtRegressor model(options);
    model.fit(p.x, p.y);
    if (seed % 2 == 1) {
      const Problem window = make_problem(250, 0.4, 162 + seed);
      model.warm_start_fit(window.x, window.y, options.n_rounds);
    }
    Rng rng(100 + seed);
    Matrix rows(150, 3);
    for (double& v : rows.flat()) v = -0.5 + 2.0 * rng.uniform();
    const auto compiled = CompiledEnsemble::compile(model);
    // A single hist fit draws every threshold from <= max_bins - 1 bin
    // edges, so it always fits the 32-bit word.
    if (seed % 2 == 0) {
      ASSERT_EQ(compiled.word_bits(), 32);
    }
    const Matrix reference = model.predict(rows);
    expect_matrices_identical(compiled.predict(rows), reference);
    expect_row_parity(compiled, rows, reference);
  }
}

TEST(QuantizedParity, BinRepresentativeRowsBitIdentical) {
  // Rows whose feature values are the fitted thresholds themselves (and
  // their immediate double neighbours) must predict bit-identically to
  // the reference walker, batched and one row at a time.
  const Problem p = make_problem(300, 0.3, 64);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const Matrix rows = threshold_rows(model, p.x);
  const auto compiled = CompiledEnsemble::compile(model);
  ASSERT_EQ(compiled.word_bits(), 32);
  const Matrix reference = model.predict(rows);
  expect_matrices_identical(compiled.predict(rows), reference);
  expect_row_parity(compiled, rows, reference);
}

TEST(QuantizedParity, DeterministicAcrossThreadCounts) {
  const Problem p = make_problem(700, 0.3, 65);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const auto quantized = CompiledEnsemble::compile(model);
  ASSERT_EQ(quantized.word_bits(), 32);
  const Matrix reference = quantized.predict(p.x, nullptr);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    ThreadPool pool(threads);
    expect_matrices_identical(quantized.predict(p.x, &pool), reference);
  }
}

TEST(QuantizedParity, SerializedModelRecompilesQuantizedIdentically) {
  const Problem p = make_problem(300, 0.3, 66);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const GbtRegressor restored = GbtRegressor::deserialize(model.serialize());
  const auto a = CompiledEnsemble::compile(model);
  const auto b = CompiledEnsemble::compile(restored);
  ASSERT_EQ(a.word_bits(), 32);
  ASSERT_EQ(b.word_bits(), 32);
  expect_matrices_identical(a.predict(p.x), b.predict(p.x));
}

TEST(QuantizedParity, RowScratchReuseMatchesBatch) {
  const Problem p = make_problem(200, 0.3, 67);
  GbtRegressor model(small_gbt());
  model.fit(p.x, p.y);
  const auto quantized = CompiledEnsemble::compile(model);
  ASSERT_EQ(quantized.word_bits(), 32);
  const Matrix batch = quantized.predict(p.x);
  CompiledEnsemble::RowScratch scratch;  // reused across every row
  std::vector<double> out(quantized.n_outputs());
  for (std::size_t r = 0; r < p.x.rows(); ++r) {
    quantized.predict_row(p.x.row(r), out, scratch);
    for (std::size_t k = 0; k < out.size(); ++k) {
      EXPECT_EQ(out[k], batch(r, k)) << "row " << r << " output " << k;
    }
  }
}

TEST(QuantizedParity, DegenerateModels) {
  // Stump: a single split.
  const Problem p = make_problem(200, 0.3, 68);
  const RandomForest stump = fit_one_tree(p, 1);
  const auto qstump = CompiledEnsemble::compile(stump);
  ASSERT_EQ(qstump.word_bits(), 32);
  expect_matrices_identical(qstump.predict(p.x), stump.predict(p.x));

  // Single leaf: a constant target collapses every tree (walk length 0).
  Matrix constant_y(p.y.rows(), p.y.cols());
  for (double& v : constant_y.flat()) v = 2.75;
  GbtRegressor leaf_gbt(small_gbt());
  leaf_gbt.fit(p.x, constant_y);
  const auto qleaf = CompiledEnsemble::compile(leaf_gbt);
  ASSERT_EQ(qleaf.word_bits(), 32);
  expect_matrices_identical(qleaf.predict(p.x), leaf_gbt.predict(p.x));

  // Constant feature: no splits ever touch it, so its cut table is empty.
  Matrix x = p.x;
  for (std::size_t r = 0; r < x.rows(); ++r) x(r, 2) = 1.5;
  GbtRegressor model(small_gbt());
  model.fit(x, p.y);
  const auto quantized = CompiledEnsemble::compile(model);
  ASSERT_EQ(quantized.word_bits(), 32);
  expect_matrices_identical(quantized.predict(x), model.predict(x));

  // Mixed tree depths inside one 16-tree group: depth-8 trees, then
  // stumps, then single leaves (no split can meet the child weight), then
  // depth-8 again. A group walks as long as its deepest tree, so the
  // shallow trees must park on their leaves; rows on the cut values probe
  // every boundary.
  GbtOptions deep = small_gbt();
  deep.max_depth = 8;
  deep.n_rounds = 7;
  GbtRegressor mixed(deep);
  mixed.fit(p.x, p.y);
  GbtOptions stumps = mixed.options();
  stumps.max_depth = 1;
  mixed.set_options(stumps);
  mixed.warm_start_fit(p.x, p.y, 5);
  GbtOptions leaves = mixed.options();
  leaves.min_child_weight = 1e12;
  mixed.set_options(leaves);
  mixed.warm_start_fit(p.x, p.y, 3);
  GbtOptions deep_again = mixed.options();
  deep_again.max_depth = 8;
  deep_again.min_child_weight = deep.min_child_weight;
  mixed.set_options(deep_again);
  mixed.warm_start_fit(p.x, p.y, 6);
  ASSERT_EQ(mixed.rounds_completed(), 21);
  EXPECT_EQ(mixed.ensemble(0)[13].nodes.size(), 1u);  // a single leaf
  const auto qmixed = CompiledEnsemble::compile(mixed);
  ASSERT_EQ(qmixed.word_bits(), 32);
  for (const Matrix& rows : {p.x, threshold_rows(mixed, p.x)}) {
    const Matrix reference = mixed.predict(rows);
    expect_matrices_identical(qmixed.predict(rows), reference);
    expect_row_parity(qmixed, rows, reference);
  }
}

TEST(QuantizedParity, WideModelFallsBackToExact) {
  // There is no exact pool to fall back to: the word width follows the
  // model. Single fits of every kind keep the 32-bit word; a GBT refit
  // past 255 cuts takes the 64-bit word, still counting every node.
  const Problem p = make_problem(400, 0.4, 69);
  GbtRegressor gbt(small_gbt());
  gbt.fit(p.x, p.y);
  EXPECT_EQ(CompiledEnsemble::compile(gbt).word_bits(), 32);
  ForestOptions forest_options;
  forest_options.n_trees = 20;
  RandomForest forest(forest_options);
  forest.fit(p.x, p.y);
  EXPECT_EQ(CompiledEnsemble::compile(forest).word_bits(), 32);
  EXPECT_EQ(CompiledEnsemble::compile(fit_one_tree(p)).word_bits(), 32);

  const GbtRegressor refit = refit_past_255_cuts(69);
  EXPECT_GT(max_distinct_cuts(refit), 255u);
  const auto compiled_refit = CompiledEnsemble::compile(refit);
  EXPECT_EQ(compiled_refit.word_bits(), 64);
  EXPECT_EQ(compiled_refit.n_nodes(), total_nodes(refit));

  // A model file whose node graph is not a tree (two parents share both
  // leaves) would break the BFS layout; loading rejects it.
  EXPECT_THROW((void)GbtRegressor::deserialize(
                   "gbt 1 1\nbase 0.5\nimportance_gain 0\nimportance_count 0\n"
                   "tree 0 5\n0 0.5 1 2 0\n0 0.25 3 4 0\n0 0.75 3 4 0\n"
                   "-1 0 -1 -1 1.5\n-1 0 -1 -1 -2\n"
                   "tree 0 1\n-1 0 -1 -1 0.25\n"),
               ParseError);
}

TEST(QuantizedParity, SharedDiamondChainCompilesToExactPool) {
  // A hostile model file: 63 internal nodes whose both links point at the
  // next node (a chain of shared diamonds), then one leaf. It has 2^63
  // root-to-leaf paths; loading rejects it as not a tree, in one pass over
  // the nodes rather than by enumerating them.
  std::string text =
      "gbt 1 1\nbase 0.5\nimportance_gain 0\nimportance_count 0\ntree 0 64\n";
  for (int i = 0; i < 63; ++i) {
    text += "0 " + format_double(0.01 * i) + " " + std::to_string(i + 1) + " " +
            std::to_string(i + 1) + " 0\n";
  }
  text += "-1 0 -1 -1 1.25\n";
  EXPECT_THROW((void)GbtRegressor::deserialize(text), ParseError);
}

// ------------------------------------------------- 64-bit word parity ----
//
// Models past the 32-bit word's ranges — more than 255 cuts on a feature,
// more than 255 features, more than 65535 nodes in a tree — take the 64-bit
// word with uint16 row codes. Each case probes one field past its 32-bit
// width, with rows on the cut values where a truncated field would route
// differently.

TEST(WideWordParity, WarmRefitPast255Cuts) {
  const GbtRegressor model = refit_past_255_cuts(70);
  ASSERT_GT(max_distinct_cuts(model), 255u);
  const auto compiled = CompiledEnsemble::compile(model);
  ASSERT_EQ(compiled.word_bits(), 64);
  expect_full_parity(compiled, model, make_problem(300, 0.3, 71).x);
  expect_full_parity(compiled, model, threshold_rows(model, make_problem(1, 0.3, 72).x));
}

TEST(WideWordParity, ThreeHundredFeatures) {
  // The targets ride on features past index 255, so every split the fit
  // keeps names a feature the 32-bit word's 8-bit field cannot.
  Rng rng(75);
  const auto make = [&](std::size_t n) {
    Problem p{Matrix(n, 300), Matrix(n, 2)};
    for (double& v : p.x.flat()) v = rng.uniform();
    for (std::size_t r = 0; r < n; ++r) {
      p.y(r, 0) = 3.0 * p.x(r, 299) - 2.0 * p.x(r, 260);
      p.y(r, 1) = p.x(r, 256) > 0.5 ? 4.0 : 0.0;
    }
    return p;
  };
  const Problem train = make(300);
  GbtRegressor model(small_gbt());
  model.fit(train.x, train.y);
  const auto compiled = CompiledEnsemble::compile(model);
  ASSERT_EQ(compiled.word_bits(), 64);
  expect_full_parity(compiled, model, make(200).x);
  expect_full_parity(compiled, model, threshold_rows(model, train.x));
}

TEST(WideWordParity, LoadedTreeOver65535Nodes) {
  // A complete depth-16 tree in heap order, 131,071 nodes: node i's
  // children sit at 2i+1 and 2i+2, so left-child indices pass 65535 from
  // node 32768 on. Thresholds repeat 199 values and there are two
  // features, so only the node count forces the 64-bit word. A small tree
  // follows it, which lands at the right pool offset only if the big one
  // is laid out whole.
  constexpr int kInternal = (1 << 16) - 1;
  constexpr int kNodes = 2 * kInternal + 1;
  std::string text = "gbt 1 2\nbase 0.5\nimportance_gain 0 0\nimportance_count 0 0\n"
                     "tree 0 " + std::to_string(kNodes) + "\n";
  for (int i = 0; i < kInternal; ++i) {
    text += std::to_string(i % 2) + " " + format_double(((i * 37) % 199 + 0.5) / 199.0) +
            " " + std::to_string(2 * i + 1) + " " + std::to_string(2 * i + 2) + " 0\n";
  }
  for (int i = kInternal; i < kNodes; ++i) {
    text += "-1 0 -1 -1 " + format_double(0.001 * (i % 997)) + "\n";
  }
  text += "tree 0 3\n1 0.5 1 2 0\n-1 0 -1 -1 1\n-1 0 -1 -1 2\n";
  const GbtRegressor model = GbtRegressor::deserialize(text);
  ASSERT_LE(max_distinct_cuts(model), 255u);
  const auto compiled = CompiledEnsemble::compile(model);
  ASSERT_EQ(compiled.word_bits(), 64);
  EXPECT_EQ(compiled.n_nodes(), static_cast<std::size_t>(kNodes) + 3);
  Rng rng(76);
  Matrix rows(400, 2);
  for (double& v : rows.flat()) v = rng.uniform();
  expect_full_parity(compiled, model, rows);
}

// Parameterized noise sweep: learned models should always beat the mean
// baseline on structured data, at every noise level.
class NoiseSweep : public ::testing::TestWithParam<double> {};

TEST_P(NoiseSweep, LearnedModelsBeatMeanBaseline) {
  const double noise = GetParam();
  const Problem train = make_problem(500, noise, 24);
  const Problem test = make_problem(200, noise, 25);

  MeanRegressor mean;
  mean.fit(train.x, train.y);
  const double mean_mae = mean_absolute_error(test.y, mean.predict(test.x));

  GbtRegressor gbt(small_gbt());
  gbt.fit(train.x, train.y);
  EXPECT_LT(mean_absolute_error(test.y, gbt.predict(test.x)), mean_mae);

  ForestOptions fo;
  fo.n_trees = 30;
  RandomForest forest(fo);
  forest.fit(train.x, train.y);
  EXPECT_LT(mean_absolute_error(test.y, forest.predict(test.x)), mean_mae);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, NoiseSweep,
                         ::testing::Values(0.0, 0.2, 0.5, 1.0));

}  // namespace
}  // namespace mphpc::ml
