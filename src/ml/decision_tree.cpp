#include "ml/decision_tree.hpp"

#include <algorithm>
#include <numeric>

#include "common/contract.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "ml/hist_common.hpp"

namespace mphpc::ml {

namespace {

void run_per_feature(ThreadPool* pool, std::size_t n_feat,
                     const std::function<void(std::size_t)>& body) {
  if (pool != nullptr) {
    pool->parallel_for(0, n_feat, body);
  } else {
    for (std::size_t f = 0; f < n_feat; ++f) body(f);
  }
}

/// Split candidate: `bin` is the last bin going left (codes <= bin).
struct HistSplit {
  double gain = 0.0;
  double threshold = 0.0;
  int feature = -1;
  int bin = -1;
};

/// Bookkeeping for one tree level: dense node ids and their histograms.
struct CartHistLevel {
  std::vector<std::int32_t> nodes;         ///< tree node id per dense index
  std::vector<std::vector<double>> hists;  ///< per dense index
};

/// Level-wise histogram CART builder, mirroring gbt.cpp's trainer on
/// the shared hist_common machinery. The per-bin statistic is
/// (count, per-output target sums) — layout width 1 + n_out — instead of
/// GBT's (G, H). The bootstrap multiset lives in a hist::NodePartition
/// (duplicates allowed); every feature is accumulated for every node (so
/// sibling subtraction stays valid for descendants), but only the per-node
/// mtry subset is swept. Masks are drawn serially in dense node order and
/// feature sweeps reduce in fixed feature order, so fits are bit-identical
/// at any thread count.
struct HistCartBuilder {
  const TreeOptions& opt;
  const Matrix& y;
  const BinnedMatrix& bm;
  ThreadPool* pool;
  std::size_t n_feat;
  std::size_t n_out;
  hist::Layout layout;
  double min_leaf;

  hist::NodePartition part;  ///< bootstrap items, node-partitioned
  std::vector<TreeNode> nodes;
  std::vector<double> gain_per_feature;
  std::vector<double> node_count;  ///< per node id
  std::vector<double> node_sum;    ///< per node id, n_out target sums
  Rng feature_rng;

  HistCartBuilder(const Matrix& targets, const BinnedMatrix& binned,
                  const TreeOptions& options, std::span<const std::size_t> rows,
                  ThreadPool* p)
      : opt(options), y(targets), bm(binned), pool(p), n_feat(binned.features()),
        n_out(targets.cols()), layout(hist::Layout::make(binned, 1 + targets.cols())),
        min_leaf(static_cast<double>(options.min_samples_leaf)),
        feature_rng(options.seed) {
    std::vector<std::uint32_t> items;
    items.reserve(rows.size());
    for (const std::size_t r : rows) items.push_back(static_cast<std::uint32_t>(r));
    part.reset(std::move(items));
    nodes.emplace_back();
    gain_per_feature.assign(n_feat, 0.0);
    node_count = {0.0};
    node_sum.assign(n_out, 0.0);
    for (const std::uint32_t r : part.items(0)) {
      node_count[0] += 1.0;
      const auto yr = y.row(r);
      for (std::size_t k = 0; k < n_out; ++k) node_sum[k] += yr[k];
    }
  }

  [[nodiscard]] bool may_split(std::size_t nid) const noexcept {
    return node_count[nid] >= static_cast<double>(opt.min_samples_split);
  }

  /// Accumulates one feature of `items` into its histogram slice.
  void accumulate(std::size_t f, double* slice,
                  std::span<const std::uint32_t> items) const {
    const std::uint8_t* codes = bm.codes(f);
    const std::size_t width = layout.width;
    for (const std::uint32_t r : items) {
      double* cell = slice + width * static_cast<std::size_t>(codes[r]);
      cell[0] += 1.0;
      const auto yr = y.row(r);
      for (std::size_t k = 0; k < n_out; ++k) cell[1 + k] += yr[k];
    }
  }

  /// Per-node mtry masks for one level, drawn serially in dense node order
  /// (empty mask = all features active).
  [[nodiscard]] std::vector<std::uint8_t> draw_masks(
      const std::vector<std::int32_t>& level_nodes) {
    const bool subsample = opt.max_features > 0 &&
                           static_cast<std::size_t>(opt.max_features) < n_feat;
    std::vector<std::uint8_t> mask;
    if (!subsample) return mask;
    mask.assign(level_nodes.size() * n_feat, 0);
    for (std::size_t d = 0; d < level_nodes.size(); ++d) {
      if (!may_split(static_cast<std::size_t>(level_nodes[d]))) continue;
      for (const std::size_t f : sample_without_replacement(
               feature_rng, n_feat, static_cast<std::size_t>(opt.max_features))) {
        mask[d * n_feat + f] = 1;
      }
    }
    return mask;
  }

  /// Sweeps feature f's bin boundaries for node nid (dense index d) if the
  /// node is splittable and f is in its mtry subset. The cumulative left
  /// sums accumulate in ascending bin order, so re-summing bins
  /// [0, best.bin] later reproduces the winning child stats bit-for-bit.
  void sweep_node(std::size_t f, const std::vector<double>& hist_,
                  std::size_t nid, std::size_t d,
                  std::span<const std::uint8_t> mask, HistSplit& best) const {
    if (!may_split(nid)) return;
    if (!mask.empty() && !mask[d * n_feat + f]) return;
    const FeatureBins& fb = bm.bins(f);
    const int nb = fb.n_bins();
    const std::size_t width = layout.width;
    const double* slice = hist_.data() + layout.begin_cell(f);
    const double total = node_count[nid];
    const double* tot = &node_sum[nid * n_out];
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
        best = {gain, fb.thresholds[static_cast<std::size_t>(b)],
                static_cast<int>(f), b};
      }
    }
  }

  /// Applies the winning split of dense node d: writes the parent's split,
  /// appends the two children, partitions the parent's items, and derives
  /// child stats (left by re-summing the winning histogram prefix — the
  /// same additions the sweep performed — right by subtraction).
  void apply_split(const CartHistLevel& level, std::size_t d, const HistSplit& w,
                   CartHistLevel& next, std::vector<hist::SiblingPair>& pairs) {
    const auto nid = static_cast<std::size_t>(level.nodes[d]);
    const auto left_id = static_cast<int>(nodes.size());
    nodes[nid].feature = w.feature;
    nodes[nid].threshold = w.threshold;
    nodes[nid].left = left_id;
    nodes[nid].right = left_id + 1;
    nodes.emplace_back();
    nodes.emplace_back();

    const auto wf = static_cast<std::size_t>(w.feature);
    const std::size_t left_count = part.split(nid, bm.codes(wf), w.bin);

    const double* slice = level.hists[d].data() + layout.begin_cell(wf);
    const std::size_t width = layout.width;
    double cnt = 0.0;
    std::vector<double> sums(n_out, 0.0);
    for (int b = 0; b <= w.bin; ++b) {
      const double* cell = slice + width * static_cast<std::size_t>(b);
      cnt += cell[0];
      for (std::size_t k = 0; k < n_out; ++k) sums[k] += cell[1 + k];
    }
    const std::vector<double> parent_sums(node_sum.begin() +
                                              static_cast<std::ptrdiff_t>(nid * n_out),
                                          node_sum.begin() +
                                              static_cast<std::ptrdiff_t>((nid + 1) * n_out));
    node_count.insert(node_count.end(), {cnt, node_count[nid] - cnt});
    for (std::size_t k = 0; k < n_out; ++k) node_sum.push_back(sums[k]);
    for (std::size_t k = 0; k < n_out; ++k) {
      node_sum.push_back(parent_sums[k] - sums[k]);
    }

    const std::size_t left_dense = next.nodes.size();
    next.nodes.push_back(left_id);
    next.nodes.push_back(left_id + 1);
    const bool left_small =
        left_count <= part.count(static_cast<std::size_t>(left_id) + 1);
    pairs.push_back(left_small
                        ? hist::SiblingPair{d, left_dense, left_dense + 1}
                        : hist::SiblingPair{d, left_dense + 1, left_dense});
    gain_per_feature[wf] += w.gain;
  }

  /// Builds the next level's histograms and, fused into the same pass, its
  /// split candidates: each pair's smaller child is accumulated fresh, the
  /// larger derived by sibling subtraction, both swept while cache-hot.
  std::vector<HistSplit> make_child_level(CartHistLevel& level,
                                          CartHistLevel& next,
                                          const std::vector<hist::SiblingPair>& pairs,
                                          std::span<const std::uint8_t> mask) {
    const std::size_t n_next = next.nodes.size();
    next.hists.resize(n_next);
    for (const hist::SiblingPair& pair : pairs) {
      next.hists[pair.small_dense].assign(layout.cells(), 0.0);
      next.hists[pair.big_dense] = std::move(level.hists[pair.parent_dense]);
    }
    std::vector<HistSplit> bests(n_feat * n_next);
    run_per_feature(pool, n_feat, [&](std::size_t f) {
      const std::size_t lo_cell = layout.begin_cell(f);
      const std::size_t f_cells = layout.feature_cells(f);
      for (const hist::SiblingPair& pair : pairs) {
        std::vector<double>& small = next.hists[pair.small_dense];
        std::vector<double>& big = next.hists[pair.big_dense];
        const auto small_nid =
            static_cast<std::size_t>(next.nodes[pair.small_dense]);
        accumulate(f, small.data() + lo_cell, part.items(small_nid));
        hist::subtract_sibling(big.data() + lo_cell, small.data() + lo_cell,
                               f_cells);
        sweep_node(f, small, small_nid, pair.small_dense, mask,
                   bests[f * n_next + pair.small_dense]);
        sweep_node(f, big, static_cast<std::size_t>(next.nodes[pair.big_dense]),
                   pair.big_dense, mask, bests[f * n_next + pair.big_dense]);
      }
    });
    return bests;
  }

  std::vector<TreeNode> build() {
    CartHistLevel level;
    level.nodes = {0};
    level.hists.emplace_back(layout.cells(), 0.0);
    std::vector<std::uint8_t> mask = draw_masks(level.nodes);
    std::vector<HistSplit> bests(n_feat);
    run_per_feature(pool, n_feat, [&](std::size_t f) {
      accumulate(f, level.hists[0].data() + layout.begin_cell(f), part.items(0));
      sweep_node(f, level.hists[0], 0, 0, mask, bests[f]);
    });

    for (int depth = 0; depth < opt.max_depth && !level.nodes.empty(); ++depth) {
      const std::size_t n_dense = level.nodes.size();
      // Reduce the carried per-feature candidates in fixed feature order.
      std::vector<HistSplit> winner(n_dense);
      for (std::size_t f = 0; f < n_feat; ++f) {
        for (std::size_t d = 0; d < n_dense; ++d) {
          const HistSplit& c = bests[f * n_dense + d];
          if (c.feature >= 0 && c.gain > winner[d].gain) winner[d] = c;
        }
      }
      CartHistLevel next;
      std::vector<hist::SiblingPair> pairs;
      for (std::size_t d = 0; d < n_dense; ++d) {
        if (winner[d].feature >= 0 && winner[d].gain > opt.min_gain) {
          apply_split(level, d, winner[d], next, pairs);
        }
      }
      if (next.nodes.empty()) break;
      // Children at max depth become leaves; no histograms needed.
      if (depth + 1 < opt.max_depth) {
        mask = draw_masks(next.nodes);
        bests = make_child_level(level, next, pairs, mask);
      }
      level = std::move(next);
    }

    // Leaf values: mean target vector from the node stats.
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (!nodes[i].is_leaf()) continue;
      MPHPC_ENSURES(node_count[i] > 0.0);
      nodes[i].value.resize(n_out);
      for (std::size_t k = 0; k < n_out; ++k) {
        nodes[i].value[k] = node_sum[i * n_out + k] / node_count[i];
      }
    }
    return nodes;
  }
};

}  // namespace

void DecisionTree::fit(const Matrix& x, const Matrix& y, ThreadPool* pool) {
  std::vector<std::size_t> rows(x.rows());
  std::iota(rows.begin(), rows.end(), std::size_t{0});
  fit_rows_binned(x, y, rows, BinnedMatrix::build(x, kCartMaxBins, pool), pool);
}

void DecisionTree::fit_rows_binned(const Matrix& x, const Matrix& y,
                                   std::span<const std::size_t> rows,
                                   const BinnedMatrix& binned, ThreadPool* pool) {
  MPHPC_EXPECTS(x.rows() == y.rows() && !rows.empty() && x.cols() > 0 && y.cols() > 0);
  MPHPC_EXPECTS(binned.rows() == x.rows() && binned.features() == x.cols());
  MPHPC_EXPECTS(options_.max_depth >= 1 && options_.min_samples_leaf >= 1);

  n_features_ = x.cols();
  HistCartBuilder builder(y, binned, options_, rows, pool);
  nodes_ = builder.build();
  gain_per_feature_ = std::move(builder.gain_per_feature);
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
