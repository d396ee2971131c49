// Shared machinery for the histogram-based tree trainers (GBT in gbt.cpp,
// CART in decision_tree.cpp); it is the only split search either has.
//
// Every hist trainer follows the same shape: quantize X once per fit
// (ml/binning.hpp), keep the in-sample items in one array stably
// partitioned so every tree node owns a contiguous range, accumulate a
// per-node histogram of sufficient statistics per (feature, bin), derive
// each split pair's larger child by subtracting the smaller child's
// histogram from the parent's, and sweep bin boundaries. What differs is
// the statistic width — GBT stores (G, H) pairs, CART stores (count,
// per-output target sums) — and the accumulation order. GBT keeps a
// row-major copy of the codes and fills a node's histogram row by row for
// all sampled features at once; CART accumulates feature by feature from
// the column-major codes. This header hoists the width-agnostic pieces —
// the ragged layout, the sibling subtraction, and the stable node
// partition — so both trainers share one implementation.
//
// Determinism contract: nothing here depends on thread count. The layout
// is a pure function of the BinnedMatrix, subtraction is element-wise in
// ascending index order, and the partition is stable, so item order inside
// a node never depends on the split schedule. A histogram cell therefore
// sums its node's items in ascending partition order whether it is filled
// row-wise or feature-wise.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/contract.hpp"
#include "ml/binning.hpp"

namespace mphpc::ml::hist {

/// Ragged per-feature histogram layout: feature f's slice starts at cell
/// `width * offsets[f]` and holds `width` doubles per bin, so near-constant
/// features (one-hots, flags) cost a few cells instead of a full max_bins
/// stride. `width` is the number of statistics per bin (2 for GBT's (G, H);
/// 1 + n_outputs for CART's (count, sums)).
struct Layout {
  std::vector<std::size_t> offsets;  ///< [n_feat + 1], in bins
  std::size_t width = 0;             ///< doubles per bin

  static Layout make(const BinnedMatrix& bm, std::size_t width) {
    MPHPC_EXPECTS(width >= 1);
    Layout out;
    out.width = width;
    out.offsets.assign(bm.features() + 1, 0);
    for (std::size_t f = 0; f < bm.features(); ++f) {
      out.offsets[f + 1] =
          out.offsets[f] + static_cast<std::size_t>(bm.bins(f).n_bins());
    }
    return out;
  }

  /// Total doubles in one node's histogram.
  [[nodiscard]] std::size_t cells() const noexcept {
    return width * offsets.back();
  }
  /// First cell of feature f's slice.
  [[nodiscard]] std::size_t begin_cell(std::size_t f) const noexcept {
    return width * offsets[f];
  }
  /// Doubles in feature f's slice.
  [[nodiscard]] std::size_t feature_cells(std::size_t f) const noexcept {
    return width * (offsets[f + 1] - offsets[f]);
  }
};

/// One split pair during histogram construction: the smaller child gets a
/// fresh accumulated histogram, the larger one is derived by subtracting
/// it from the parent's (whose buffer it inherits).
struct SiblingPair {
  std::size_t parent_dense = 0;  ///< dense index of the parent in its level
  std::size_t small_dense = 0;   ///< next-level dense index of the small child
  std::size_t big_dense = 0;
};

/// big -= small, element-wise over one feature slice (ascending index
/// order: bit-identical regardless of caller).
inline void subtract_sibling(double* big, const double* small,
                             std::size_t n) {
  MPHPC_EXPECTS(n == 0 || (big != nullptr && small != nullptr));
  for (std::size_t i = 0; i < n; ++i) big[i] -= small[i];
}

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

}  // namespace mphpc::ml::hist
