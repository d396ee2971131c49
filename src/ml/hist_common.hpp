// The histogram tree builder: the one split search of every tree trainer
// (GBT in gbt.cpp, CART in decision_tree.cpp).
//
// A fit quantizes X once (ml/binning.hpp) into a BinTable: the
// column-major bin codes plus a row-major table holding, for every
// (row, feature) cell, the cell's bin in a node histogram. TreeBuilder
// grows one tree level by level over that table. It keeps the in-sample
// items in one array stably partitioned so every tree node owns a
// contiguous range, fills a node's histogram row by row for all features
// at once, derives each split pair's larger child by subtracting the
// smaller child's histogram from the parent's, sweeps bin boundaries, and
// reduces the per-feature candidates in fixed feature order. A statistic
// policy supplies only what is model-specific: the per-bin statistic and
// its add (GBT: (G, H); CART: count and per-output target sums), the
// boundary sweep with its gates, and the leaf value.
//
// Determinism contract: nothing here depends on thread count. The table
// and histogram layout are pure functions of the BinnedMatrix, subtraction
// is element-wise in ascending index order, the partition is stable (item
// order inside a node never depends on the split schedule), every
// histogram cell sums its node's items in ascending partition order, and
// the pool only distributes whole feature blocks whose work is serial.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "common/thread_pool.hpp"
#include "ml/binning.hpp"

namespace mphpc::ml::hist {

/// A fit's quantized training matrix in the two orders the builder reads:
/// the column-major codes for the node partition, and a row-major table of
/// histogram bins for accumulation. Feature f's bins occupy the ragged
/// range [offset(f), offset(f + 1)), so near-constant features (one-hots,
/// flags) cost a few histogram cells instead of a full max_bins stride, and
/// a row finds its bin in every feature's slice with one load per feature.
/// Built once per fit; a forest shares one across its trees.
class BinTable {
 public:
  explicit BinTable(BinnedMatrix binned) : binned_(std::move(binned)) {
    const std::size_t n = binned_.rows();
    const std::size_t n_feat = binned_.features();
    offsets_.assign(n_feat + 1, 0);
    for (std::size_t f = 0; f < n_feat; ++f) {
      offsets_[f + 1] =
          offsets_[f] + static_cast<std::size_t>(binned_.bins(f).n_bins());
    }
    bins_.resize(n * n_feat);
    for (std::size_t f = 0; f < n_feat; ++f) {
      const std::uint8_t* codes = binned_.codes(f);
      const auto offset = static_cast<std::uint32_t>(offsets_[f]);
      for (std::size_t r = 0; r < n; ++r) bins_[r * n_feat + f] = offset + codes[r];
    }
  }

  [[nodiscard]] const BinnedMatrix& binned() const noexcept { return binned_; }
  [[nodiscard]] std::size_t rows() const noexcept { return binned_.rows(); }
  [[nodiscard]] std::size_t features() const noexcept { return binned_.features(); }
  /// First histogram bin of feature f; offset(features()) is the total.
  [[nodiscard]] std::size_t offset(std::size_t f) const noexcept {
    return offsets_[f];
  }
  /// Histogram bins of row r, one per feature.
  [[nodiscard]] const std::uint32_t* row(std::size_t r) const noexcept {
    return bins_.data() + r * binned_.features();
  }

 private:
  BinnedMatrix binned_;
  std::vector<std::size_t> offsets_;  ///< [n_feat + 1], in bins
  std::vector<std::uint32_t> bins_;   ///< [row * n_feat + feature]
};

/// Split candidate: `bin` is the last bin going left (codes <= bin).
struct Split {
  double gain = 0.0;
  double threshold = 0.0;
  int feature = -1;
  int bin = -1;
};

/// In-sample items (row indices; duplicates allowed for bootstrap samples)
/// kept in one array and stably partitioned so every tree node owns a
/// contiguous range. Node ids index `begin_/end_` and must be registered in
/// the order the tree appends nodes (root = 0, then children pairwise).
class NodePartition {
 public:
  /// Seeds the partition with the root's items (node id 0 owns them all).
  void reset(std::vector<std::uint32_t> items) {
    items_ = std::move(items);
    scratch_.resize(items_.size());
    begin_ = {0};
    end_ = {items_.size()};
  }

  [[nodiscard]] std::span<const std::uint32_t> items(std::size_t nid) const {
    return {items_.data() + begin_[nid], end_[nid] - begin_[nid]};
  }
  [[nodiscard]] std::size_t count(std::size_t nid) const noexcept {
    return end_[nid] - begin_[nid];
  }

  /// Stably partitions node nid's range by `codes[item] <= bin` (left
  /// first), registers the two children as the next consecutive node ids
  /// (left then right), and returns the left child's item count. One
  /// branchless pass: every item is written to both destinations and only
  /// the matching cursor advances, so balanced splits cost no mispredicted
  /// branches. Lefts compact in place (the write cursor never passes the
  /// read cursor); rights stage in scratch and are copied in behind them.
  std::size_t split(std::size_t nid, const std::uint8_t* codes, int bin) {
    MPHPC_EXPECTS(nid < begin_.size() && codes != nullptr);
    const std::size_t lo = begin_[nid];
    const std::size_t hi = end_[nid];
    std::uint32_t* items = items_.data();
    std::uint32_t* rights = scratch_.data();
    std::size_t mid = lo;
    std::size_t n_right = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t item = items[i];
      const auto left = static_cast<std::size_t>(static_cast<int>(codes[item]) <= bin);
      items[mid] = item;
      rights[n_right] = item;
      mid += left;
      n_right += 1 - left;
    }
    std::copy_n(rights, n_right, items + mid);
    begin_.insert(begin_.end(), {lo, mid});
    end_.insert(end_.end(), {mid, hi});
    return mid - lo;
  }

 private:
  std::vector<std::uint32_t> items_;    ///< node-partitioned item array
  std::vector<std::uint32_t> scratch_;  ///< partition staging buffer
  std::vector<std::size_t> begin_;      ///< per node id, range into items_
  std::vector<std::size_t> end_;
};

/// Level-wise histogram tree builder over a BinTable. One instance builds
/// one tree. A histogram holds `width` doubles per bin, laid out as the
/// table's ragged bins; a node's totals are one such cell summed over its
/// items. The statistic policy S provides:
///
///   Node                     tree node type (feature, threshold, left,
///                            right, is_leaf())
///   width()                  doubles per bin
///   max_depth()              levels to grow at most
///   min_split_gain()         a node's winner splits when its gain exceeds
///                            this
///   row(r), add(cell, s)     row r's statistic; cell += s, lane by lane
///   splittable(totals)       the node may split at all
///   begin_level(open)        called once per level before its sweeps, with
///                            one splittable flag per dense node
///   sweep(f, dense, bins, slice, totals, best)
///                            records feature f's best boundary of an open
///                            node if it beats best.gain, summing bins in
///                            ascending order
///   on_split(split)          a node's winner was applied
///   set_leaf(node, totals)   fills a leaf's value
template <class S>
class TreeBuilder {
 public:
  using Node = typename S::Node;

  /// Seeds the root with `items` (rows of `table`; duplicates allowed).
  /// `table` and `stats` must outlive the builder.
  TreeBuilder(const BinTable& table, S& stats, std::vector<std::uint32_t> items,
              ThreadPool* pool)
      : table_(table), stats_(stats), pool_(pool), width_(stats.width()) {
    MPHPC_EXPECTS(width_ >= 1 && !items.empty());
    part_.reset(std::move(items));
    nodes_.emplace_back();
    node_bin_ = {-1};
    totals_.assign(width_, 0.0);
    for (const std::uint32_t r : part_.items(0)) stats_.add(totals_.data(), stats_.row(r));
  }

  /// Grows the tree and sets every leaf's value.
  void build() {
    const std::size_t n_feat = table_.features();
    Level level;
    level.nodes = {0};
    level.hists.emplace_back(cells(), 0.0);
    std::vector<std::uint8_t> open = open_flags(level.nodes);
    stats_.begin_level(open);
    std::vector<Split> bests(n_feat);
    for_each_feature_block([&](std::size_t lo, std::size_t hi) {
      accumulate(level.hists[0].data(), part_.items(0), lo, hi);
      if (!open[0]) return;
      for (std::size_t f = lo; f < hi; ++f) sweep(f, level.hists[0], 0, 0, bests[f]);
    });

    for (int depth = 0; depth < stats_.max_depth() && !level.nodes.empty(); ++depth) {
      const std::size_t n_dense = level.nodes.size();
      // Reduce the carried per-feature candidates in fixed feature order.
      std::vector<Split> winner(n_dense);
      for (std::size_t f = 0; f < n_feat; ++f) {
        for (std::size_t d = 0; d < n_dense; ++d) {
          const Split& c = bests[f * n_dense + d];
          if (c.feature >= 0 && c.gain > winner[d].gain) winner[d] = c;
        }
      }
      Level next;
      std::vector<SiblingPair> pairs;
      for (std::size_t d = 0; d < n_dense; ++d) {
        if (winner[d].feature >= 0 && winner[d].gain > stats_.min_split_gain()) {
          apply_split(level, d, winner[d], next, pairs);
        }
      }
      if (next.nodes.empty()) break;
      levels_ = depth + 1;
      // Children at max depth become leaves; no histograms needed.
      if (depth + 1 < stats_.max_depth()) {
        open = open_flags(next.nodes);
        stats_.begin_level(open);
        bests = make_child_level(level, next, pairs, open);
      }
      level = std::move(next);
    }

    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      if (nodes_[i].is_leaf()) stats_.set_leaf(nodes_[i], totals(i));
    }
  }

  /// The tree, indexed by node id (root 0; children appended pairwise).
  [[nodiscard]] std::vector<Node>& nodes() noexcept { return nodes_; }
  /// Node nid's in-sample items (a leaf's are the rows it predicts).
  [[nodiscard]] std::span<const std::uint32_t> items(std::size_t nid) const {
    return part_.items(nid);
  }
  /// Split bin of internal node nid (codes <= bin go left); -1 for a leaf.
  [[nodiscard]] int bin(std::size_t nid) const noexcept { return node_bin_[nid]; }
  /// Depth of the built tree (0 for a single leaf).
  [[nodiscard]] int levels() const noexcept { return levels_; }

 private:
  /// One split pair during histogram construction: the smaller child gets
  /// a fresh accumulated histogram, the larger one is derived by
  /// subtracting it from the parent's (whose buffer it inherits).
  struct SiblingPair {
    std::size_t parent_dense = 0;  ///< dense index of the parent in its level
    std::size_t small_dense = 0;   ///< next-level dense index of the small child
    std::size_t big_dense = 0;
  };

  /// Bookkeeping for one tree level: dense node ids and their histograms.
  struct Level {
    std::vector<std::int32_t> nodes;         ///< tree node id per dense index
    std::vector<std::vector<double>> hists;  ///< per dense index
  };

  [[nodiscard]] std::size_t cells() const noexcept {
    return width_ * table_.offset(table_.features());
  }
  [[nodiscard]] std::size_t begin_cell(std::size_t f) const noexcept {
    return width_ * table_.offset(f);
  }
  [[nodiscard]] const double* totals(std::size_t nid) const noexcept {
    return totals_.data() + nid * width_;
  }

  [[nodiscard]] std::vector<std::uint8_t> open_flags(
      const std::vector<std::int32_t>& level_nodes) const {
    std::vector<std::uint8_t> open(level_nodes.size());
    for (std::size_t d = 0; d < open.size(); ++d) {
      open[d] = stats_.splittable(totals(static_cast<std::size_t>(level_nodes[d])));
    }
    return open;
  }

  /// Runs fn(lo, hi) over blocks [lo, hi) of the features, spread over the
  /// pool when there is one. Each block's work is self-contained and
  /// internally serial, so the result does not depend on the blocking or
  /// the thread count.
  void for_each_feature_block(
      const std::function<void(std::size_t, std::size_t)>& fn) const {
    const std::size_t n_feat = table_.features();
    if (pool_ != nullptr && n_feat > 1) {
      pool_->parallel_chunks(0, n_feat,
                             [&](std::size_t, std::size_t lo, std::size_t hi) {
                               fn(lo, hi);
                             });
      return;
    }
    fn(0, n_feat);
  }

  /// Adds `rows` to the cells of features [lo, hi) in `hist`, row by row:
  /// each row's statistic and bins load once for all features. Rows come
  /// in ascending partition order, so every cell sums the same values in
  /// the same order as a per-feature pass would. Features a node never
  /// sweeps are accumulated too, so the inner loop runs over contiguous
  /// features with no lookup.
  void accumulate(double* hist, std::span<const std::uint32_t> rows,
                  std::size_t lo, std::size_t hi) const {
    const std::size_t width = stats_.width();
    for (const std::uint32_t r : rows) {
      const std::uint32_t* bins = table_.row(r);
      const auto s = stats_.row(r);
      for (std::size_t f = lo; f < hi; ++f) stats_.add(hist + width * bins[f], s);
    }
  }

  void sweep(std::size_t f, const std::vector<double>& hist, std::size_t nid,
             std::size_t dense, Split& best) const {
    stats_.sweep(f, dense, table_.binned().bins(f), hist.data() + begin_cell(f),
                 totals(nid), best);
  }

  /// Applies the winning split of dense node d: writes the parent's split,
  /// appends the two children, stably partitions the parent's items by bin
  /// code, and derives the children's totals (left by re-summing the
  /// winning histogram prefix — the same additions the sweep performed, so
  /// the totals match it bit-for-bit — right by subtraction).
  void apply_split(const Level& level, std::size_t d, const Split& w, Level& next,
                   std::vector<SiblingPair>& pairs) {
    const auto nid = static_cast<std::size_t>(level.nodes[d]);
    const auto left_id = static_cast<int>(nodes_.size());
    nodes_[nid].feature = w.feature;
    nodes_[nid].threshold = w.threshold;
    nodes_[nid].left = left_id;
    nodes_[nid].right = left_id + 1;
    nodes_.emplace_back();
    nodes_.emplace_back();
    node_bin_[nid] = w.bin;
    node_bin_.insert(node_bin_.end(), {-1, -1});

    const auto wf = static_cast<std::size_t>(w.feature);
    const std::size_t left_count = part_.split(nid, table_.binned().codes(wf), w.bin);

    const double* slice = level.hists[d].data() + begin_cell(wf);
    const std::size_t left_at = totals_.size();
    totals_.resize(left_at + 2 * width_, 0.0);
    double* left = totals_.data() + left_at;
    double* right = left + width_;
    for (int b = 0; b <= w.bin; ++b) {
      const double* cell = slice + width_ * static_cast<std::size_t>(b);
      for (std::size_t j = 0; j < width_; ++j) left[j] += cell[j];
    }
    const double* parent = totals(nid);
    for (std::size_t j = 0; j < width_; ++j) right[j] = parent[j] - left[j];

    const std::size_t left_dense = next.nodes.size();
    next.nodes.push_back(left_id);
    next.nodes.push_back(left_id + 1);
    const bool left_small =
        left_count <= part_.count(static_cast<std::size_t>(left_id) + 1);
    pairs.push_back(left_small ? SiblingPair{d, left_dense, left_dense + 1}
                               : SiblingPair{d, left_dense + 1, left_dense});
    stats_.on_split(w);
  }

  /// Builds the next level's histograms and, fused into the same pass,
  /// that level's per-feature split candidates: each pair's smaller child
  /// is accumulated from its items, the larger derived by subtracting it
  /// from the parent's histogram (whose buffer it inherits), and both are
  /// swept while still cache-hot. Subtraction runs element-wise in
  /// ascending index order. The candidate reduction happens later in fixed
  /// feature order.
  std::vector<Split> make_child_level(Level& level, Level& next,
                                      const std::vector<SiblingPair>& pairs,
                                      const std::vector<std::uint8_t>& open) {
    const std::size_t n_next = next.nodes.size();
    next.hists.resize(n_next);
    for (const SiblingPair& pair : pairs) {
      next.hists[pair.small_dense].assign(cells(), 0.0);
      next.hists[pair.big_dense] = std::move(level.hists[pair.parent_dense]);
    }
    std::vector<Split> bests(table_.features() * n_next);
    for_each_feature_block([&](std::size_t lo, std::size_t hi) {
      for (const SiblingPair& pair : pairs) {
        std::vector<double>& small = next.hists[pair.small_dense];
        std::vector<double>& big = next.hists[pair.big_dense];
        const auto small_nid = static_cast<std::size_t>(next.nodes[pair.small_dense]);
        const auto big_nid = static_cast<std::size_t>(next.nodes[pair.big_dense]);
        accumulate(small.data(), part_.items(small_nid), lo, hi);
        for (std::size_t f = lo; f < hi; ++f) {
          for (std::size_t i = begin_cell(f); i < begin_cell(f + 1); ++i) big[i] -= small[i];
          if (open[pair.small_dense]) {
            sweep(f, small, small_nid, pair.small_dense,
                  bests[f * n_next + pair.small_dense]);
          }
          if (open[pair.big_dense]) {
            sweep(f, big, big_nid, pair.big_dense, bests[f * n_next + pair.big_dense]);
          }
        }
      }
    });
    return bests;
  }

  const BinTable& table_;
  S& stats_;
  ThreadPool* pool_;
  std::size_t width_;         ///< doubles per bin
  NodePartition part_;        ///< in-sample items, node-partitioned
  std::vector<Node> nodes_;
  std::vector<int> node_bin_;   ///< per node id, split bin (-1: leaf)
  std::vector<double> totals_;  ///< per node id, `width_` summed statistics
  int levels_ = 0;
};

}  // namespace mphpc::ml::hist
