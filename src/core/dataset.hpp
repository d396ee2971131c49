// MP-HPC dataset assembly (paper §V-D).
//
// Turns the raw profiling campaign into the final learning table: one row
// per run, 21 feature columns (see FeaturePipeline), four RPV target
// columns (the run's execution time on every system relative to the system
// the counters came from, at the same resource scale), per-system observed
// times (consumed by the scheduling simulation), and metadata columns for
// grouped ablations.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/feature_pipeline.hpp"
#include "core/rpv.hpp"
#include "ml/matrix.hpp"
#include "sim/profiler.hpp"

namespace mphpc::core {

class Dataset {
 public:
  /// CSV columns: app, input, system, scale, time_s, the features, the
  /// targets and the observed times (34).
  static constexpr std::size_t kNumColumns =
      5 + FeaturePipeline::kNumFeatures + 2 * arch::kNumSystems;

  /// Feature column names, canonical order (21 columns).
  [[nodiscard]] static std::vector<std::string> feature_column_names();
  /// Target column names: "rpv_quartz" ... "rpv_corona".
  [[nodiscard]] static std::vector<std::string> target_column_names();
  /// Observed-time column names: "time_quartz" ... "time_corona".
  [[nodiscard]] static std::vector<std::string> time_column_names();

  [[nodiscard]] const FeaturePipeline& pipeline() const noexcept { return pipeline_; }
  [[nodiscard]] std::size_t num_rows() const noexcept { return app_.size(); }

  /// Feature matrix (rows x 21). Empty `rows` selects every row.
  [[nodiscard]] ml::Matrix features(std::span<const std::size_t> rows = {}) const;

  /// Target matrix (rows x 4 RPV entries).
  [[nodiscard]] ml::Matrix targets(std::span<const std::size_t> rows = {}) const;

  /// Metadata columns for grouped splits.
  [[nodiscard]] const std::vector<std::string>& apps() const noexcept { return app_; }
  [[nodiscard]] const std::vector<std::string>& systems() const noexcept {
    return system_;
  }
  [[nodiscard]] const std::vector<std::string>& scales() const noexcept {
    return scale_;
  }

  /// Observed execution time of row `r`'s job on `system` (same scale
  /// class) — the scheduling simulation's ground truth.
  [[nodiscard]] double time_on(std::size_t row, arch::SystemId system) const;

  /// True RPV of a row (from observed times, relative to the row's source
  /// system).
  [[nodiscard]] Rpv true_rpv(std::size_t row) const;

  /// The dataset as CSV: a header, then one line per row with the columns
  /// app, input, system, scale, time_s, the features, rpv_* and time_*.
  /// Numbers are written with enough digits to round-trip exactly.
  [[nodiscard]] std::string to_csv() const;

  friend Dataset build_dataset(std::span<const sim::RunProfile> profiles);

 private:
  std::vector<std::string> app_, system_, scale_;
  std::vector<int> input_;
  std::vector<double> time_s_;
  ml::Matrix features_;  // rows x 21, standardized
  ml::Matrix targets_;   // rows x 4, RPV relative to the row's system
  ml::Matrix times_;     // rows x 4, observed time per system
  FeaturePipeline pipeline_;
};

/// Builds the dataset from a full profiling campaign. Every (app, input)
/// group must contain a run for all four systems at each scale class
/// (run_campaign guarantees this). The feature pipeline's standardizers
/// are fitted over all rows, as the paper does before splitting.
[[nodiscard]] Dataset build_dataset(std::span<const sim::RunProfile> profiles);

}  // namespace mphpc::core
