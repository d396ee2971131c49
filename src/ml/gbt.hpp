// Gradient-boosted regression trees in the XGBoost formulation (paper
// §VI-A): second-order Taylor objective with L2 leaf regularization
// (lambda) and split penalty (gamma), shrinkage, and row/column
// subsampling.
//
//   gain = 1/2 [ GL^2/(HL+lambda) + GR^2/(HR+lambda) - G^2/(H+lambda) ] - gamma
//   leaf weight w* = -G / (H + lambda)
//
// Split search is histogram-based (XGBoost's `hist` method): each feature
// is quantized into at most max_bins quantile bins once per fit, and trees
// grow on the histogram builder CART shares (ml/hist_common.hpp). A node's
// gradient/hessian histogram is filled in one pass over its rows for all
// features, so each row's gradient and hessian load once (only the
// features sampled for the tree are swept); each split pair's larger child
// is derived by subtracting the smaller child's histogram from the
// parent's, and bin boundaries are swept instead of rows. gbt.cpp keeps
// only the (G, H) statistic: its two-lane add, the branch-free boundary
// sweep with the min_child_weight gate, and the leaf weights. After each
// tree, in-sample rows take their leaf's weight from the node partition's
// leaf ranges and out-of-sample rows walk the tree on their bin codes, so
// no round walks the raw feature values. Fits need finite feature values
// (binning rejects NaN and infinities).
//
// The ThreadPool is used at one level only: over outputs when there are
// several, otherwise over blocks of features inside each tree. Candidates
// reduce in fixed feature order and every histogram cell sums its rows in
// partition order, so fits are bit-identical at any thread count.
//
// Multi-output targets train one additive ensemble per output; feature
// importances are the average split gain per feature, averaged over the
// output ensembles — exactly the importance definition the paper uses.
//
// The default objective is pseudo-Huber (a smooth |r|), matching the
// paper's mean-absolute-error training objective while keeping useful
// second-order information; squared error is also available.
#pragma once

#include <cstdint>
#include <functional>
#include <string_view>

#include "ml/model.hpp"

namespace mphpc::ml {

enum class GbtObjective : std::uint8_t { kSquaredError = 0, kPseudoHuber = 1 };

struct GbtOptions {
  int n_rounds = 400;          ///< boosting rounds per output
  int max_depth = 8;
  double learning_rate = 0.1;  ///< shrinkage (eta)
  double lambda = 1.0;         ///< L2 penalty on leaf weights
  double gamma = 0.0;          ///< minimum loss reduction to split
  double min_child_weight = 1.0;  ///< minimum hessian mass per child
  double subsample = 0.8;      ///< row fraction per tree (without replacement)
  double colsample = 1.0;      ///< feature fraction per tree
  /// Squared error is XGBoost 1.7's default objective (the paper reports
  /// MAE as the evaluation metric); pseudo-Huber is available for a
  /// smooth-|r| training objective.
  GbtObjective objective = GbtObjective::kSquaredError;
  double huber_delta = 1.0;    ///< pseudo-Huber transition scale
  /// Histogram bins per feature (2..256). 64 quantile bins resolve
  /// the counter datasets' split structure to well under the exact-greedy
  /// noise floor while keeping per-node histograms cache-resident — the
  /// right default for paper-sized campaigns. 0 means auto: scale with
  /// the row count as clamp(rows / 64, 32, 256) (resolve_max_bins), so
  /// much larger sweeps get finer quantization without retuning.
  int max_bins = 64;
  std::uint64_t seed = 13;
};

/// One node of a boosted tree; leaves carry the shrunk weight.
struct GbtNode {
  int feature = -1;
  double threshold = 0.0;
  int left = -1;
  int right = -1;
  double weight = 0.0;

  [[nodiscard]] bool is_leaf() const noexcept { return feature < 0; }
};

/// One additive tree (flat node array, root at 0).
struct GbtTree {
  std::vector<GbtNode> nodes;

  [[nodiscard]] double predict(std::span<const double> x) const;
};

class GbtRegressor final : public Regressor {
 public:
  explicit GbtRegressor(GbtOptions options = {}) : options_(options) {}

  void fit(const Matrix& x, const Matrix& y, ThreadPool* pool = nullptr) override;

  /// Called after every completed checkpoint block with the number of
  /// boosting rounds finished so far (per output).
  using ProgressFn = std::function<void(int rounds_done)>;

  /// Checkpointable fit. Fresh (unfitted) models train from round 0; a
  /// model holding a partial ensemble (deserialized from a checkpoint,
  /// options restored via set_options) continues from where it stopped
  /// and produces a final model bit-identical to an uninterrupted fit —
  /// the RNG streams are replayed past the completed rounds and the
  /// per-output importance accumulators are carried in the serialized
  /// state. `on_checkpoint` fires every `checkpoint_every` rounds
  /// (0 = never) while rounds remain, so the caller can persist
  /// serialize() plus a manifest. fit() is exactly this with a cleared
  /// model and no checkpoints.
  void fit_resumable(const Matrix& x, const Matrix& y, int checkpoint_every,
                     const ProgressFn& on_checkpoint, ThreadPool* pool = nullptr);

  /// Online warm start: continues boosting an already-fitted model with
  /// `extra_rounds` more trees per output, trained on a NEW data window
  /// (any row count; feature/output shapes must match the fitted model).
  /// Unlike a resume, the base score stays fixed — the stored trees were
  /// built against it — and the subsampling RNG starts a fresh stream
  /// derived from (seed, output, rounds already completed), so each
  /// refit generation is deterministic without replaying history against
  /// data that no longer exists. Raises options().n_rounds to the new
  /// total.
  void warm_start_fit(const Matrix& x, const Matrix& y, int extra_rounds,
                      ThreadPool* pool = nullptr);

  /// Boosting rounds present per output (0 when unfitted; a partial
  /// checkpoint holds fewer than options().n_rounds).
  [[nodiscard]] int rounds_completed() const noexcept {
    return ensembles_.empty() ? 0 : static_cast<int>(ensembles_.front().size());
  }

  /// Restores the full training options on a deserialized model before
  /// resuming (serialize() only stores the method/bins subset). Resuming
  /// with options that differ from the interrupted run's is undefined.
  void set_options(const GbtOptions& options) { options_ = options; }

  [[nodiscard]] Matrix predict(const Matrix& x) const override;
  [[nodiscard]] std::string name() const override { return "xgboost"; }
  [[nodiscard]] bool fitted() const noexcept override { return !ensembles_.empty(); }

  /// Average split gain per feature, averaged over outputs, normalized to
  /// sum to 1.
  [[nodiscard]] std::optional<std::vector<double>> feature_importances() const override;

  [[nodiscard]] const GbtOptions& options() const noexcept { return options_; }
  [[nodiscard]] std::size_t n_outputs() const noexcept { return ensembles_.size(); }
  [[nodiscard]] const std::vector<GbtTree>& ensemble(std::size_t output) const {
    return ensembles_.at(output);
  }
  /// Per-output prior added before the ensemble sum.
  [[nodiscard]] double base_score(std::size_t output) const {
    return base_score_.at(output);
  }
  [[nodiscard]] std::size_t n_features() const noexcept { return n_features_; }

  /// Text serialization (round-trippable; see serialize.hpp for files).
  [[nodiscard]] std::string serialize() const;
  [[nodiscard]] static GbtRegressor deserialize(std::string_view text);

 private:
  /// Shared body of fit_resumable and warm_start_fit. `warm` selects the
  /// warm-start initialization (fixed base score, fresh per-generation
  /// RNG stream) over the resume one (recomputed base score, replayed
  /// sampling draws).
  void fit_impl(const Matrix& x, const Matrix& y, int checkpoint_every,
                const ProgressFn& on_checkpoint, ThreadPool* pool, bool warm);

  /// Recomputes the merged importance accumulators from the per-output
  /// ones in fixed output order (deterministic, idempotent).
  /// Validates a resumed model (or initializes a fresh one) against the
  /// training-matrix shape; returns the round to continue from.
  int begin_fit(std::size_t n_feat, std::size_t n_out);

  void merge_importances();

  GbtOptions options_;
  std::vector<std::vector<GbtTree>> ensembles_;  ///< [output][round]
  std::vector<double> base_score_;               ///< per-output prior
  std::vector<double> gain_sum_;                 ///< per-feature total gain
  std::vector<double> split_count_;              ///< per-feature split count
  /// Per-output importance accumulators, kept (and serialized) so a
  /// resumed fit continues the exact same FP addition sequence instead of
  /// restarting from the merged sums.
  std::vector<std::vector<double>> gain_by_output_;   ///< [output][feature]
  std::vector<std::vector<double>> count_by_output_;  ///< [output][feature]
  std::size_t n_features_ = 0;
};

}  // namespace mphpc::ml
