#include "ml/decision_tree.hpp"

#include <algorithm>
#include <numeric>

#include "common/contract.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "ml/hist_common.hpp"

namespace mphpc::ml {

namespace {

/// CART's statistic for hist::TreeBuilder: per bin, the item count and
/// the per-output target sums (width 1 + n_out). Every feature is
/// accumulated for every node, so sibling subtraction stays valid for
/// descendants, but only the node's mtry subset is swept. Masks are drawn
/// serially in dense node order, so fits are bit-identical at any thread
/// count.
struct CartStats {
  using Node = TreeNode;
  using Row = const double*;  ///< the row's targets

  const TreeOptions& opt;
  const Matrix& y;
  std::size_t n_feat;
  std::size_t n_out;
  Rng feature_rng;
  std::vector<std::uint8_t> mask;  ///< [dense * n_feat + f]; empty = all active
  std::vector<double> gain_per_feature;

  CartStats(const TreeOptions& options, const Matrix& targets, std::size_t features)
      : opt(options), y(targets), n_feat(features), n_out(targets.cols()),
        feature_rng(options.seed), gain_per_feature(features, 0.0) {}

  [[nodiscard]] std::size_t width() const noexcept { return 1 + n_out; }
  [[nodiscard]] int max_depth() const noexcept { return opt.max_depth; }
  [[nodiscard]] double min_split_gain() const noexcept { return opt.min_gain; }
  [[nodiscard]] Row row(std::uint32_t r) const noexcept { return y.row(r).data(); }
  void add(double* cell, Row yr) const noexcept {
    cell[0] += 1.0;
    for (std::size_t k = 0; k < n_out; ++k) cell[1 + k] += yr[k];
  }
  [[nodiscard]] bool splittable(const double* stats) const noexcept {
    return stats[0] >= static_cast<double>(opt.min_samples_split);
  }

  /// Draws the level's per-node mtry masks for its open nodes.
  void begin_level(const std::vector<std::uint8_t>& open) {
    if (opt.max_features <= 0 || static_cast<std::size_t>(opt.max_features) >= n_feat) {
      return;
    }
    mask.assign(open.size() * n_feat, 0);
    for (std::size_t d = 0; d < open.size(); ++d) {
      if (!open[d]) continue;
      for (const std::size_t f : sample_without_replacement(
               feature_rng, n_feat, static_cast<std::size_t>(opt.max_features))) {
        mask[d * n_feat + f] = 1;
      }
    }
  }

  /// Maximizes the summed per-output SSE reduction over feature f's
  /// boundaries, with both children at least min_samples_leaf items.
  void sweep(std::size_t f, std::size_t dense, const FeatureBins& fb,
             const double* slice, const double* stats, hist::Split& best) const {
    if (!mask.empty() && !mask[dense * n_feat + f]) return;
    const int nb = fb.n_bins();
    const std::size_t width = 1 + n_out;
    const double min_leaf = static_cast<double>(opt.min_samples_leaf);
    const double total = stats[0];
    const double* tot = stats + 1;
    double parent_score = 0.0;
    for (std::size_t k = 0; k < n_out; ++k) parent_score += tot[k] * tot[k] / total;
    double cnt_l = 0.0;
    std::vector<double> sum_l(n_out, 0.0);
    for (int b = 0; b + 1 < nb; ++b) {
      const double* cell = slice + width * static_cast<std::size_t>(b);
      cnt_l += cell[0];
      for (std::size_t k = 0; k < n_out; ++k) sum_l[k] += cell[1 + k];
      if (cnt_l < min_leaf) continue;
      const double nr = total - cnt_l;
      if (nr < min_leaf) break;  // cnt_l only grows, nr only shrinks
      double child_score = 0.0;
      for (std::size_t k = 0; k < n_out; ++k) {
        const double sr = tot[k] - sum_l[k];
        child_score += sum_l[k] * sum_l[k] / cnt_l + sr * sr / nr;
      }
      const double gain = child_score - parent_score;
      if (gain > best.gain) {
        best = {gain, fb.thresholds[static_cast<std::size_t>(b)], static_cast<int>(f), b};
      }
    }
  }

  void on_split(const hist::Split& w) {
    gain_per_feature[static_cast<std::size_t>(w.feature)] += w.gain;
  }

  /// The leaf's mean target vector.
  void set_leaf(TreeNode& node, const double* stats) const {
    MPHPC_ENSURES(stats[0] > 0.0);
    node.value.resize(n_out);
    for (std::size_t k = 0; k < n_out; ++k) node.value[k] = stats[1 + k] / stats[0];
  }
};

}  // namespace

void DecisionTree::fit(const Matrix& x, const Matrix& y, ThreadPool* pool) {
  std::vector<std::size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit_rows_binned(x, y, rows, hist::BinTable(BinnedMatrix::build(x, kCartMaxBins, pool)),
                  pool);
}

void DecisionTree::fit_rows_binned(const Matrix& x, const Matrix& y,
                                   std::span<const std::size_t> rows,
                                   const hist::BinTable& table, ThreadPool* pool) {
  MPHPC_EXPECTS(x.rows() == y.rows() && !rows.empty() && x.cols() > 0 && y.cols() > 0);
  MPHPC_EXPECTS(table.rows() == x.rows() && table.features() == x.cols());
  MPHPC_EXPECTS(options_.max_depth >= 1 && options_.min_samples_leaf >= 1);

  n_features_ = x.cols();
  std::vector<std::uint32_t> items;
  items.reserve(rows.size());
  for (const std::size_t r : rows) items.push_back(static_cast<std::uint32_t>(r));
  CartStats stats(options_, y, n_features_);
  hist::TreeBuilder<CartStats> builder(table, stats, std::move(items), pool);
  builder.build();
  nodes_ = std::move(builder.nodes());
  gain_per_feature_ = std::move(stats.gain_per_feature);
}

std::span<const double> DecisionTree::predict_one(std::span<const double> x) const {
  MPHPC_EXPECTS(fitted());
  MPHPC_EXPECTS(x.size() == n_features_);
  std::size_t i = 0;
  while (!nodes_[i].is_leaf()) {
    const TreeNode& node = nodes_[i];
    i = static_cast<std::size_t>(
        x[static_cast<std::size_t>(node.feature)] <= node.threshold ? node.left
                                                                    : node.right);
  }
  return nodes_[i].value;
}

Matrix DecisionTree::predict(const Matrix& x) const {
  MPHPC_EXPECTS(fitted());
  // Find any leaf to size the output (the root may be internal).
  std::size_t out_dim = 0;
  for (const auto& node : nodes_) {
    if (node.is_leaf()) {
      out_dim = node.value.size();
      break;
    }
  }
  Matrix out(x.rows(), out_dim);
  for (std::size_t r = 0; r < x.rows(); ++r) {
    const auto value = predict_one(x.row(r));
    std::copy(value.begin(), value.end(), out.row(r).begin());
  }
  return out;
}

std::optional<std::vector<double>> DecisionTree::feature_importances() const {
  if (!fitted()) return std::nullopt;
  std::vector<double> imp = gain_per_feature_;
  const double total = std::accumulate(imp.begin(), imp.end(), 0.0);
  if (total > 0.0) {
    for (double& v : imp) v /= total;
  }
  return imp;
}

std::size_t DecisionTree::depth() const noexcept {
  if (nodes_.empty()) return 0;
  // Iterative depth computation over the explicit node array.
  std::vector<std::size_t> depth_of(nodes_.size(), 0);
  std::size_t max_depth = 0;
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].is_leaf()) {
      max_depth = std::max(max_depth, depth_of[i]);
    } else {
      depth_of[static_cast<std::size_t>(nodes_[i].left)] = depth_of[i] + 1;
      depth_of[static_cast<std::size_t>(nodes_[i].right)] = depth_of[i] + 1;
    }
  }
  return max_depth;
}

}  // namespace mphpc::ml
