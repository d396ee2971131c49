#include "ml/random_forest.hpp"

#include <cmath>
#include <numeric>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "ml/hist_common.hpp"

namespace mphpc::ml {

void RandomForest::fit(const Matrix& x, const Matrix& y, ThreadPool* pool) {
  MPHPC_EXPECTS(x.rows() == y.rows() && x.rows() > 0 && x.cols() > 0 && y.cols() > 0);
  MPHPC_EXPECTS(options_.n_trees >= 1);
  MPHPC_EXPECTS(options_.subsample > 0.0 && options_.subsample <= 1.0);

  n_outputs_ = y.cols();
  const int mtry = options_.max_features > 0
                       ? options_.max_features
                       : std::max(1, static_cast<int>(std::lround(
                                         std::sqrt(static_cast<double>(x.cols())))));

  TreeOptions tree_options;
  tree_options.max_depth = options_.max_depth;
  tree_options.min_samples_leaf = options_.min_samples_leaf;
  tree_options.min_samples_split = options_.min_samples_split;
  tree_options.max_features = mtry;

  trees_.assign(static_cast<std::size_t>(options_.n_trees), DecisionTree{});
  const std::size_t n = x.rows();
  const auto n_sample = static_cast<std::size_t>(
      std::max(1.0, options_.subsample * static_cast<double>(n)));

  // Quantize X once and share the bin table across every tree.
  const hist::BinTable table(BinnedMatrix::build(x, kCartMaxBins, pool));

  const auto build = [&](std::size_t t) {
    Rng rng(derive_seed(options_.seed, "tree", static_cast<std::uint64_t>(t)));
    std::vector<std::size_t> rows(n_sample);
    for (auto& r : rows) r = rng.below(n);  // bootstrap: with replacement
    TreeOptions opts = tree_options;
    opts.seed = derive_seed(options_.seed, "features", static_cast<std::uint64_t>(t));
    trees_[t] = DecisionTree(opts);
    // Trees are built serially inside; parallelism is across trees.
    trees_[t].fit_rows_binned(x, y, rows, table, nullptr);
  };

  if (pool != nullptr) {
    pool->parallel_for(0, trees_.size(), build);
  } else {
    for (std::size_t t = 0; t < trees_.size(); ++t) build(t);
  }
}

Matrix RandomForest::predict(const Matrix& x) const {
  MPHPC_EXPECTS(fitted());
  Matrix out(x.rows(), n_outputs_);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto xr = x.row(r);
    auto dst = out.row(r);
    for (const auto& tree : trees_) {
      const auto value = tree.predict_one(xr);
      for (std::size_t k = 0; k < dst.size(); ++k) dst[k] += value[k];
    }
    for (double& v : dst) v /= static_cast<double>(trees_.size());
  }
  return out;
}

std::optional<std::vector<double>> RandomForest::feature_importances() const {
  if (!fitted()) return std::nullopt;
  std::optional<std::vector<double>> first = trees_.front().feature_importances();
  if (!first) return std::nullopt;
  std::vector<double> sum(first->size(), 0.0);
  for (const auto& tree : trees_) {
    const auto imp = tree.feature_importances();
    for (std::size_t f = 0; f < sum.size(); ++f) sum[f] += (*imp)[f];
  }
  const double total = std::accumulate(sum.begin(), sum.end(), 0.0);
  if (total > 0.0) {
    for (double& v : sum) v /= total;
  }
  return sum;
}

}  // namespace mphpc::ml
