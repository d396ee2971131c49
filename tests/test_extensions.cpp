// Tests for permutation feature importance, the model-agnostic
// cross-check on the gain ranking.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "core/permutation_importance.hpp"
#include "ml/gbt.hpp"
#include "ml/metrics.hpp"

namespace mphpc {
namespace {

struct Problem {
  ml::Matrix x;
  ml::Matrix y;
};

Problem make_problem(std::size_t n, std::uint64_t seed, double noise = 0.0) {
  Rng rng(seed);
  ml::Matrix x(n, 3);
  ml::Matrix y(n, 2);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.uniform();
    y(r, 0) = 4.0 * x(r, 0) + noise * (rng.uniform() - 0.5);
    y(r, 1) = std::sin(5.0 * x(r, 1)) + noise * (rng.uniform() - 0.5);
  }
  return {std::move(x), std::move(y)};
}

// --------------------------------------------- permutation importance ----

TEST(PermutationImportance, RelevantFeaturesScoreHigher) {
  const Problem p = make_problem(400, 6);
  ml::GbtOptions options;
  options.n_rounds = 40;
  options.max_depth = 4;
  ml::GbtRegressor model(options);
  model.fit(p.x, p.y);
  const auto importances = core::permutation_importances(model, p.x, p.y);
  ASSERT_EQ(importances.size(), 3u);
  // x0 and x1 drive the outputs; x2 is noise.
  EXPECT_GT(importances[0], importances[2]);
  EXPECT_GT(importances[1], importances[2]);
  EXPECT_NEAR(importances[2], 0.0, 0.05);
}

TEST(PermutationImportance, ReportSortedAndNamed) {
  const Problem p = make_problem(300, 7);
  ml::GbtOptions options;
  options.n_rounds = 30;
  options.max_depth = 4;
  ml::GbtRegressor model(options);
  model.fit(p.x, p.y);
  const std::vector<std::string> names = {"x0", "x1", "noise"};
  const auto report = core::permutation_report(model, p.x, p.y, names);
  ASSERT_EQ(report.size(), 3u);
  for (std::size_t i = 1; i < report.size(); ++i) {
    EXPECT_GE(report[i - 1].importance, report[i].importance);
  }
  EXPECT_EQ(report[2].feature, "noise");
}

TEST(PermutationImportance, Deterministic) {
  const Problem p = make_problem(200, 8);
  ml::GbtOptions options;
  options.n_rounds = 20;
  options.max_depth = 3;
  ml::GbtRegressor model(options);
  model.fit(p.x, p.y);
  const auto a = core::permutation_importances(model, p.x, p.y);
  const auto b = core::permutation_importances(model, p.x, p.y);
  EXPECT_EQ(a, b);
}

TEST(PermutationImportance, UnfittedModelThrows) {
  const ml::GbtRegressor model;
  const Problem p = make_problem(20, 9);
  EXPECT_THROW(core::permutation_importances(model, p.x, p.y), ContractViolation);
}

}  // namespace
}  // namespace mphpc
