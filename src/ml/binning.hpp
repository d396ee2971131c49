// Per-feature quantile binning for histogram-based tree training. Every
// tree trainer (GbtRegressor, DecisionTree, RandomForest) searches splits
// over these bins; none sweeps raw values.
//
// A BinnedMatrix is built once per fit: each feature's value range is cut
// into at most `max_bins` (<= 256) quantile bins and every cell is encoded
// as a std::uint8_t bin index, stored column-major so a node split streams
// one feature's codes (hist::BinTable adds the row-major copy that
// histogram passes read). Split thresholds are the midpoints between the
// last raw value of one bin and the first raw value of the next, so a tree
// trained on bin codes predicts identically on the raw feature values it
// was fit on.
//
// Binning is deterministic: cut points depend only on the sorted column
// values, and the optional ThreadPool only distributes whole features, so
// the result is bit-identical at any thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/thread_pool.hpp"
#include "ml/matrix.hpp"

namespace mphpc::ml {

/// Histogram bin count actually used by a fit: `configured` when nonzero,
/// otherwise auto-scaled with the row count as clamp(rows / 64, 32, 256).
[[nodiscard]] int resolve_max_bins(int configured, std::size_t rows) noexcept;

/// Binning of one feature: `thresholds` has n_bins-1 ascending cut points;
/// a value x belongs to the first bin b with x <= thresholds[b], or to the
/// last bin when it exceeds every threshold. Splitting "after bin b" means
/// the tree test `x <= thresholds[b]`.
struct FeatureBins {
  std::vector<double> thresholds;

  [[nodiscard]] int n_bins() const noexcept {
    return static_cast<int>(thresholds.size()) + 1;
  }

  /// Bin index of a raw value (branchless-ish binary search).
  [[nodiscard]] std::uint8_t bin_of(double v) const noexcept;
};

/// Column-major uint8 bin codes for a whole matrix plus the per-feature
/// cut points that map bin boundaries back to raw-value thresholds.
class BinnedMatrix {
 public:
  /// Maximum representable bin count per feature (uint8 codes).
  static constexpr int kMaxBins = 256;

  /// Builds quantile bins (at most max_bins per feature, 2 <= max_bins <=
  /// kMaxBins) and encodes every cell. `pool` distributes whole features.
  /// Every cell of `x` must be finite: a bin code must send a row the same
  /// way as the raw test `x <= threshold`, and NaN fails that test while
  /// binning it would give code 0 (left).
  static BinnedMatrix build(const Matrix& x, int max_bins,
                            ThreadPool* pool = nullptr);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t features() const noexcept { return features_; }

  [[nodiscard]] const FeatureBins& bins(std::size_t f) const noexcept {
    return per_feature_[f];
  }

  /// Codes of one feature, indexed by row (contiguous).
  [[nodiscard]] const std::uint8_t* codes(std::size_t f) const noexcept {
    return codes_.data() + f * rows_;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t features_ = 0;
  std::vector<FeatureBins> per_feature_;   ///< [feature]
  std::vector<std::uint8_t> codes_;        ///< [feature * rows + row]
};

}  // namespace mphpc::ml
