// Multi-output CART regression tree.
//
// Splits minimize the summed per-output SSE (equivalently maximize
// variance reduction). Split search is histogram-based: each feature is
// quantized into at most kCartMaxBins quantile bins (ml/binning.hpp), the
// trainer accumulates per-node (count, target-sum) histograms, derives
// each split pair's larger child by sibling subtraction
// (ml/hist_common.hpp), and sweeps bin boundaries instead of rows. A
// forest bins its training matrix once and shares it across all trees
// (see fit_rows_binned). Feature subsampling (mtry) is drawn per node, as
// in classic random forests. All randomness is seeded; parallel feature
// sweeps reduce in fixed feature order, so fits are bit-deterministic.
#pragma once

#include <cstdint>

#include "ml/binning.hpp"
#include "ml/model.hpp"

namespace mphpc::ml {

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
  /// sampling by the forest) over a pre-built BinnedMatrix of `x`
  /// (shape-checked). The forest builds the binning once and shares it
  /// across all trees.
  void fit_rows_binned(const Matrix& x, const Matrix& y,
                       std::span<const std::size_t> rows,
                       const BinnedMatrix& binned, ThreadPool* pool = nullptr);

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
