// Random-forest regressor: bagged multi-output CART trees with per-node
// feature subsampling, trained in parallel across trees over one shared
// binning of the training matrix. Matches the scikit-learn "decision
// forest" comparator of the paper.
#pragma once

#include <cstdint>
#include <memory>

#include "ml/decision_tree.hpp"
#include "ml/model.hpp"

namespace mphpc::ml {

struct ForestOptions {
  int n_trees = 100;
  int max_depth = 16;
  int min_samples_leaf = 2;
  int min_samples_split = 4;
  /// Per-node feature subset size; 0 = round(sqrt(features)).
  int max_features = 0;
  /// Bootstrap sample fraction of the training rows per tree.
  double subsample = 1.0;
  std::uint64_t seed = 7;
};

class RandomForest final : public Regressor {
 public:
  explicit RandomForest(ForestOptions options = {}) : options_(options) {}

  void fit(const Matrix& x, const Matrix& y, ThreadPool* pool = nullptr) override;
  [[nodiscard]] Matrix predict(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "decision forest"; }
  [[nodiscard]] bool fitted() const noexcept override { return !trees_.empty(); }

  /// Mean of the per-tree gain importances, re-normalized to sum to 1.
  [[nodiscard]] std::optional<std::vector<double>> feature_importances() const override;

  [[nodiscard]] const std::vector<DecisionTree>& trees() const noexcept { return trees_; }
  [[nodiscard]] const ForestOptions& options() const noexcept { return options_; }

 private:
  ForestOptions options_;
  std::vector<DecisionTree> trees_;
  std::size_t n_outputs_ = 0;
};

}  // namespace mphpc::ml
