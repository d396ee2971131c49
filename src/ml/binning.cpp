#include "ml/binning.hpp"

#include <algorithm>
#include <cmath>

#include "common/contract.hpp"

namespace mphpc::ml {

int resolve_max_bins(int configured, std::size_t rows) noexcept {
  if (configured != 0) return configured;
  const auto scaled = static_cast<int>(rows / 64);
  return std::clamp(scaled, 32, BinnedMatrix::kMaxBins);
}

std::uint8_t FeatureBins::bin_of(double v) const noexcept {
  const auto it = std::lower_bound(thresholds.begin(), thresholds.end(), v);
  return static_cast<std::uint8_t>(it - thresholds.begin());
}

namespace {

/// Cut points for one sorted column. With few distinct values every
/// adjacent pair gets a boundary (exact binning); otherwise boundaries sit
/// at the quantile ranks k*n/max_bins, snapped to the nearest distinct-value
/// gap so ties never straddle a bin edge.
std::vector<double> make_thresholds(const std::vector<double>& sorted,
                                    int max_bins) {
  // Distinct values with cumulative row counts.
  std::vector<double> distinct;
  std::vector<std::size_t> cum;  // rows with value <= distinct[j]
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (distinct.empty() || sorted[i] > distinct.back()) {
      distinct.push_back(sorted[i]);
      cum.push_back(i + 1);
    } else {
      cum.back() = i + 1;
    }
  }

  std::vector<double> thresholds;
  const auto mid = [&](std::size_t j) {
    return 0.5 * (distinct[j] + distinct[j + 1]);
  };
  if (distinct.size() <= static_cast<std::size_t>(max_bins)) {
    thresholds.reserve(distinct.size() - 1);
    for (std::size_t j = 0; j + 1 < distinct.size(); ++j) {
      thresholds.push_back(mid(j));
    }
    return thresholds;
  }

  const std::size_t n = sorted.size();
  std::size_t prev_j = distinct.size();  // sentinel: no boundary yet
  for (int k = 1; k < max_bins; ++k) {
    const std::size_t rank =
        (static_cast<std::size_t>(k) * n) / static_cast<std::size_t>(max_bins);
    if (rank == 0) continue;
    // First distinct value whose cumulative count reaches the rank.
    const auto it = std::lower_bound(cum.begin(), cum.end(), rank);
    const auto j = static_cast<std::size_t>(it - cum.begin());
    if (j + 1 >= distinct.size() || j == prev_j) continue;
    thresholds.push_back(mid(j));
    prev_j = j;
  }
  return thresholds;
}

}  // namespace

BinnedMatrix BinnedMatrix::build(const Matrix& x, int max_bins, ThreadPool* pool) {
  MPHPC_EXPECTS(x.rows() > 0 && x.cols() > 0);
  MPHPC_EXPECTS(max_bins >= 2 && max_bins <= kMaxBins);

  BinnedMatrix out;
  out.rows_ = x.rows();
  out.features_ = x.cols();
  out.per_feature_.resize(x.cols());
  out.codes_.resize(x.rows() * x.cols());

  const auto bin_feature = [&](std::size_t f) {
    std::vector<double> sorted = x.column(f);
    // NaN has no place in the sort or under a cut point, and an infinite
    // value makes an infinite or NaN midpoint threshold.
    MPHPC_EXPECTS(std::all_of(sorted.begin(), sorted.end(),
                              [](double v) { return std::isfinite(v); }));
    std::sort(sorted.begin(), sorted.end());
    FeatureBins& bins = out.per_feature_[f];
    bins.thresholds = make_thresholds(sorted, max_bins);
    std::uint8_t* codes = out.codes_.data() + f * out.rows_;
    for (std::size_t r = 0; r < out.rows_; ++r) {
      codes[r] = bins.bin_of(x(r, f));
    }
  };

  if (pool != nullptr && x.cols() > 1) {
    pool->parallel_for(0, x.cols(), bin_feature);
  } else {
    for (std::size_t f = 0; f < x.cols(); ++f) bin_feature(f);
  }
  // Codes are always representable: at most kMaxBins bins per feature.
  MPHPC_ENSURES(out.per_feature_.size() == x.cols());
  return out;
}

}  // namespace mphpc::ml
