// CrossArchPredictor — the library's headline API.
//
// Train on an MP-HPC dataset; afterwards, given hardware counters
// collected on *one* architecture (a RunProfile), predict the job's
// Relative Performance Vector across all four systems. Persisted models
// bundle the fitted feature pipeline with the boosted-tree ensemble so a
// deployment can score new runs without the training corpus.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/rpv.hpp"
#include "ml/compiled_ensemble.hpp"
#include "ml/gbt.hpp"

namespace mphpc::core {

class CrossArchPredictor {
 public:
  struct Options {
    ml::GbtOptions gbt;
  };

  CrossArchPredictor() = default;
  explicit CrossArchPredictor(Options options) : options_(options) {}

  /// Trains the RPV model on the dataset (optionally restricted to the
  /// given rows, e.g. a train split). Copies the dataset's fitted feature
  /// pipeline into the predictor.
  void train(const Dataset& dataset, std::span<const std::size_t> rows = {},
             ThreadPool* pool = nullptr);

  /// Crash-safe training: persist the partial model to `path` every
  /// `every` boosting rounds (atomically), alongside a `path + ".manifest"`
  /// fingerprint of the training configuration and data shape.
  struct TrainCheckpoint {
    std::string path;     ///< checkpoint file (a loadable predictor)
    int every = 0;        ///< rounds between checkpoints (0 = no checkpoints)
    bool resume = false;  ///< continue from `path` when present
    /// Cooperative stop, polled right after each checkpoint write (so it
    /// only fires with `every > 0`). Returning true ends training at that
    /// boundary: the just-written checkpoint and manifest stay on disk
    /// for a later `resume` run and train_checkpointed returns false.
    std::function<bool()> stop;
  };

  /// train() with periodic checkpointing. With `resume`, a compatible
  /// checkpoint at `ckpt.path` seeds the fit and training continues from
  /// the interrupted round, producing a final model bit-identical to an
  /// uninterrupted train() (see GbtRegressor::fit_resumable); a
  /// checkpoint whose manifest does not match the current configuration
  /// is an error, and a missing checkpoint trains from scratch. The
  /// checkpoint and manifest are removed once training completes.
  /// Returns true when training ran to completion, false when
  /// `ckpt.stop` ended it early at a checkpoint boundary.
  bool train_checkpointed(const Dataset& dataset, const TrainCheckpoint& ckpt,
                          std::span<const std::size_t> rows = {},
                          ThreadPool* pool = nullptr);

  /// Predicts the RPV of a freshly profiled run from its raw counters.
  [[nodiscard]] Rpv predict(const sim::RunProfile& profile) const;

  /// Batch RPV prediction: featurizes every profile and runs one compiled
  /// batch predict (bit-identical to calling predict() per profile).
  /// `pool` distributes row chunks; results do not depend on it.
  [[nodiscard]] std::vector<Rpv> predict_rpvs(
      std::span<const sim::RunProfile> profiles, ThreadPool* pool = nullptr) const;

  /// Batch prediction over already-standardized feature rows (as produced
  /// by Dataset::features). `pool` distributes row chunks.
  [[nodiscard]] ml::Matrix predict(const ml::Matrix& features,
                                   ThreadPool* pool = nullptr) const;

  [[nodiscard]] bool trained() const noexcept { return model_.fitted(); }
  [[nodiscard]] const ml::GbtRegressor& model() const noexcept { return model_; }
  /// The flattened inference engine (compiled at train/load time).
  [[nodiscard]] const ml::CompiledEnsemble& compiled() const noexcept {
    return compiled_;
  }
  [[nodiscard]] const FeaturePipeline& pipeline() const noexcept { return pipeline_; }

  /// Persists pipeline + model to a single file; load() restores it.
  void save(const std::string& path) const;
  [[nodiscard]] static CrossArchPredictor load(const std::string& path);

  /// In-memory forms of save()/load(): serialize_text() is exactly the
  /// bytes save() writes, from_text() parses them back (and recompiles).
  /// The serve model store wraps these with its own integrity header.
  [[nodiscard]] std::string serialize_text() const;
  [[nodiscard]] static CrossArchPredictor from_text(std::string_view text);

  /// Assembles a predictor from an already-fitted pipeline + model (e.g.
  /// a cold rebuild on a feedback window) and compiles it.
  [[nodiscard]] static CrossArchPredictor from_parts(FeaturePipeline pipeline,
                                                     ml::GbtRegressor model);

  /// Online refit: continues boosting this predictor's model with
  /// `extra_rounds` more trees trained on a new feature/target window
  /// (standardized rows as produced by FeaturePipeline / Dataset), then
  /// recompiles. Deterministic per generation; see
  /// ml::GbtRegressor::warm_start_fit.
  void warm_refit(const ml::Matrix& x, const ml::Matrix& y, int extra_rounds,
                  ThreadPool* pool = nullptr);

 private:
  /// Rebuilds the compiled engine from model_ (called whenever the model
  /// changes: train, checkpointed train, load). The compile-on-load
  /// contract: whenever trained() holds, compiled_ serves predictions.
  void recompile();

  Options options_;
  FeaturePipeline pipeline_;
  ml::GbtRegressor model_;
  ml::CompiledEnsemble compiled_;
};

/// Degradation wrapper around CrossArchPredictor for use inside long
/// simulations and services: predict() never throws on model trouble.
/// Every predicted RPV is validated (finite, positive, within
/// RpvGuardOptions plausibility bounds); on a violation — or when the
/// wrapped model is untrained, failed to load, or throws — it returns the
/// neutral RPV and increments a fallback counter instead of taking the
/// caller down mid-run.
///
/// Thread-safe for the serve hot path: the wrapped model lives behind a
/// shared_ptr that readers snapshot under a brief lock and then use
/// lock-free (RCU-style), so swap_model() can publish a freshly refitted
/// model while predictions are in flight on the old one — in-flight calls
/// finish on their snapshot, new calls see the new model. Fallback
/// counting is atomic (no lost increments under concurrency). The drift
/// detector's hook is set_forced_degraded(): while forced, every predict
/// falls back to the neutral RPV regardless of model health. Moving a
/// GuardedPredictor is NOT thread-safe against concurrent use of the
/// source.
class GuardedPredictor {
 public:
  /// Degraded from the start: every predict() falls back.
  GuardedPredictor() = default;

  explicit GuardedPredictor(CrossArchPredictor predictor,
                            const RpvGuardOptions& bounds = {});

  GuardedPredictor(GuardedPredictor&& other) noexcept;
  GuardedPredictor& operator=(GuardedPredictor&& other) noexcept;
  GuardedPredictor(const GuardedPredictor&) = delete;
  GuardedPredictor& operator=(const GuardedPredictor&) = delete;

  /// Loads a persisted model; on *any* load failure (missing file,
  /// truncated or corrupt model text) returns a degraded predictor whose
  /// last_error() explains why, rather than throwing.
  [[nodiscard]] static GuardedPredictor load(const std::string& path,
                                             const RpvGuardOptions& bounds = {});

  /// Predicts the RPV of a profiled run; neutral RPV on any failure.
  [[nodiscard]] Rpv predict(const sim::RunProfile& profile);

  /// Batch form of predict(): one compiled batch inference, then per-row
  /// plausibility guarding — row i falls back to the neutral RPV (and
  /// bumps the fallback counter) independently of the others. Degraded
  /// predictors return all-neutral; a batch-wide exception degrades every
  /// row. Equivalent to calling predict() per profile. When `fallback_out`
  /// is non-null it is resized to profiles.size() with 1 for every row
  /// that fell back (the serve protocol reports this per reply).
  [[nodiscard]] std::vector<Rpv> predict_rpvs(
      std::span<const sim::RunProfile> profiles, ThreadPool* pool = nullptr,
      std::vector<std::uint8_t>* fallback_out = nullptr);

  /// Atomically publishes `next` as the serving model: calls that already
  /// snapshotted the old model finish on it; subsequent calls use `next`.
  /// Clears last_error() if `next` is trained.
  void swap_model(CrossArchPredictor next);

  /// The current model (nullptr when degraded-from-start). The snapshot
  /// stays valid — and serves predictions — even if swap_model() replaces
  /// it a nanosecond later.
  [[nodiscard]] std::shared_ptr<const CrossArchPredictor> snapshot() const;

  /// Drift hook: while forced, every predict falls back (and counts as a
  /// fallback) even though the model is loaded. `reason` lands in
  /// last_error() when non-empty.
  void set_forced_degraded(bool on, const std::string& reason = "");
  [[nodiscard]] bool forced_degraded() const noexcept {
    return forced_degraded_.load(std::memory_order_relaxed);
  }

  /// Validates an already-computed RPV against this guard's bounds.
  [[nodiscard]] bool plausible(const Rpv& rpv) const noexcept {
    return is_plausible_rpv(rpv, bounds_);
  }

  /// True when a trained model is available and the guard is not forced
  /// degraded (predictions may still fall back individually if they land
  /// outside the plausibility bounds).
  [[nodiscard]] bool healthy() const;
  [[nodiscard]] long long fallback_count() const noexcept {
    return fallbacks_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string last_error() const;
  [[nodiscard]] const RpvGuardOptions& bounds() const noexcept { return bounds_; }

 private:
  void record_error(const std::string& message);
  void bump_fallbacks(long long by = 1) noexcept {
    fallbacks_.fetch_add(by, std::memory_order_relaxed);
  }

  /// Current model; readers copy the pointer under mutex_ and predict on
  /// the copy without any lock. Never points at a mutable predictor.
  std::shared_ptr<const CrossArchPredictor> model_;
  RpvGuardOptions bounds_{};
  mutable std::mutex mutex_;  ///< guards model_ pointer + last_error_
  std::atomic<long long> fallbacks_{0};
  std::atomic<bool> forced_degraded_{false};
  std::string last_error_;
};

}  // namespace mphpc::core
