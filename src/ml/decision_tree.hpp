// Multi-output CART regression tree.
//
// Splits minimize the summed per-output SSE (equivalently maximize
// variance reduction). Trees grow on the shared histogram builder
// (ml/hist_common.hpp), the one GBT uses too: each feature is quantized
// into at most kCartMaxBins quantile bins, per-node (count, target-sum)
// histograms are filled row by row, each split pair's larger child is
// derived by sibling subtraction, and bin boundaries are swept instead of
// rows. This file keeps only the CART statistic: the SSE sweep with the
// min_samples_*/min_gain gates, the per-node feature subsets (mtry, as in
// classic random forests) and the mean leaf values. A forest bins its
// training matrix once and shares the table across all trees (see
// fit_rows_binned). All randomness is seeded and feature candidates reduce
// in fixed feature order, so fits are bit-deterministic at any thread
// count.
#pragma once

#include <cstdint>

#include "ml/model.hpp"

namespace mphpc::ml {

namespace hist {
class BinTable;
}

struct TreeOptions {
  int max_depth = 16;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  double min_gain = 0.0;    ///< minimum SSE reduction to accept a split
  int max_features = 0;     ///< per-node feature subset size; 0 = all features
  std::uint64_t seed = 1;   ///< feature-subsampling stream
};

/// Histogram bins per feature for every CART fit (DecisionTree::fit and
/// RandomForest::fit).
inline constexpr int kCartMaxBins = 64;

/// One node of a fitted tree. Leaves have feature == -1 and carry the mean
/// output vector of their training rows.
struct TreeNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  std::vector<double> value;

  [[nodiscard]] bool is_leaf() const noexcept { return feature < 0; }
};

class DecisionTree final : public Regressor {
 public:
  explicit DecisionTree(TreeOptions options = {}) : options_(options) {}

  void fit(const Matrix& x, const Matrix& y, ThreadPool* pool = nullptr) override;

  /// Fits on a row multiset (duplicates allowed — used for bootstrap
  /// sampling by the forest) over a pre-built bin table of `x`
  /// (shape-checked). The forest builds the table once and shares it
  /// across all trees.
  void fit_rows_binned(const Matrix& x, const Matrix& y,
                       std::span<const std::size_t> rows,
                       const hist::BinTable& table, ThreadPool* pool = nullptr);

  [[nodiscard]] Matrix predict(const Matrix& x) const override;

  /// Prediction for a single sample.
  [[nodiscard]] std::span<const double> predict_one(std::span<const double> x) const;

  [[nodiscard]] std::string name() const override { return "decision tree"; }
  [[nodiscard]] bool fitted() const noexcept override { return !nodes_.empty(); }

  /// Summed SSE-reduction per feature, normalized to sum to 1 (all-zero if
  /// the tree is a single leaf).
  [[nodiscard]] std::optional<std::vector<double>> feature_importances() const override;

  [[nodiscard]] const std::vector<TreeNode>& nodes() const noexcept { return nodes_; }
  [[nodiscard]] std::size_t n_features() const noexcept { return n_features_; }
  [[nodiscard]] std::size_t depth() const noexcept;

  [[nodiscard]] const TreeOptions& options() const noexcept { return options_; }

 private:
  TreeOptions options_;
  std::vector<TreeNode> nodes_;
  std::vector<double> gain_per_feature_;
  std::size_t n_features_ = 0;
};

}  // namespace mphpc::ml
