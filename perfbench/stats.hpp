// Summary statistics shared by every perfbench timing.
//
// A latency distribution is summarized by its median plus the highest
// percentile that still has at least ten samples beyond it (nearest-rank),
// together with the sample count: p99 needs >= 1000 samples, p99.9 >=
// 10000. A repeated timing is reported as the best of its repetitions.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

/// Candidate tail percentiles in basis points (1/100 of a percent),
/// highest first.
inline constexpr long long kTailLadderBp[] = {9999, 9990, 9900, 9000};

/// Minimum number of samples a reported percentile must have beyond it.
inline constexpr std::size_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `bp` (basis points) among n samples.
[[nodiscard]] inline std::size_t nearest_rank(std::size_t n, long long bp) {
  const auto rank = (static_cast<unsigned long long>(bp) * n + 9999) / 10000;
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

/// The highest ladder percentile (in percent) with >= kMinBeyond samples
/// strictly beyond its nearest rank; 50 when even p90 has too few.
[[nodiscard]] inline double tail_percentile(std::size_t n) {
  for (const long long bp : kTailLadderBp) {
    if (n > 0 && n - nearest_rank(n, bp) >= kMinBeyond) {
      return static_cast<double>(bp) / 100.0;
    }
  }
  return 50.0;
}

/// Nearest-rank percentile `pct` of ascending `sorted`; NaN when empty.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& sorted,
                                              double pct) {
  if (sorted.empty()) return std::numeric_limits<double>::quiet_NaN();
  const auto bp = static_cast<long long>(std::llround(pct * 100.0));
  return sorted[nearest_rank(sorted.size(), bp) - 1];
}

/// Median (mean of the middle pair for even counts); NaN when empty.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Best of a run's repetitions (the least time, the highest rate). Each
/// vCPU of a shared host alternates between two speeds about 1.5x apart
/// every few hundred milliseconds, so the median of a run's repetitions
/// flips between the two speeds from run to run; the best of many short
/// repetitions stays on the full speed.
[[nodiscard]] inline double least(const std::vector<double>& values) {
  return values.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : *std::min_element(values.begin(), values.end());
}
[[nodiscard]] inline double highest(const std::vector<double>& values) {
  return values.empty() ? std::numeric_limits<double>::quiet_NaN()
                        : *std::max_element(values.begin(), values.end());
}

struct Summary {
  std::size_t n = 0;
  double p50 = std::numeric_limits<double>::quiet_NaN();
  double tail_pct = 50.0;  ///< which percentile `tail` is
  double tail = std::numeric_limits<double>::quiet_NaN();
};

[[nodiscard]] inline Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = median(values);
  s.tail_pct = tail_percentile(s.n);
  s.tail = percentile_sorted(values, s.tail_pct);
  return s;
}

}  // namespace perfbench
