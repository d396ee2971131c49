#include "core/predictor.hpp"

#include <filesystem>
#include <stdexcept>

#include "common/atomic_file.hpp"
#include "common/contract.hpp"
#include "common/strings.hpp"
#include "ml/serialize.hpp"

namespace mphpc::core {

void CrossArchPredictor::train(const Dataset& dataset,
                               std::span<const std::size_t> rows, ThreadPool* pool) {
  MPHPC_EXPECTS(dataset.num_rows() > 0);
  pipeline_ = dataset.pipeline();
  model_ = ml::GbtRegressor(options_.gbt);
  const ml::Matrix x = dataset.features(rows);
  const ml::Matrix y = dataset.targets(rows);
  model_.fit(x, y, pool);
  recompile();
}

void CrossArchPredictor::recompile() {
  compiled_ = model_.fitted() ? ml::CompiledEnsemble::compile(model_)
                              : ml::CompiledEnsemble{};
}

namespace {

/// Everything that must match for a checkpoint to continue the *same*
/// fit: the GBT configuration and the training matrix shape. Stored as
/// the manifest's full contents and compared verbatim on resume.
std::string train_fingerprint(const ml::GbtOptions& o, std::size_t rows,
                              std::size_t cols) {
  std::string s = "mphpc-train-checkpoint v1\n";
  s += "rows " + std::to_string(rows) + "\n";
  s += "features " + std::to_string(cols) + "\n";
  s += "options " + std::to_string(o.n_rounds) + " " + std::to_string(o.max_depth) +
       " " + format_double(o.learning_rate) + " " + format_double(o.lambda) + " " +
       format_double(o.gamma) + " " + format_double(o.min_child_weight) + " " +
       format_double(o.subsample) + " " + format_double(o.colsample) + " " +
       std::to_string(static_cast<int>(o.objective)) + " " +
       format_double(o.huber_delta) +
       // The split-search method field: 1 is histogram search, the only
       // one, so existing manifests keep matching.
       " 1 " + std::to_string(o.max_bins) + " " + std::to_string(o.seed) + "\n";
  return s;
}

/// Thrown out of the checkpoint callback to unwind fit_resumable when
/// TrainCheckpoint::stop asks to end the run. Checkpoints fire between
/// boosting rounds, with no pool work in flight, so unwinding is safe.
struct TrainStopped {};

}  // namespace

bool CrossArchPredictor::train_checkpointed(const Dataset& dataset,
                                            const TrainCheckpoint& ckpt,
                                            std::span<const std::size_t> rows,
                                            ThreadPool* pool) {
  MPHPC_EXPECTS(dataset.num_rows() > 0);
  MPHPC_EXPECTS(!ckpt.path.empty() && ckpt.every >= 0);
  pipeline_ = dataset.pipeline();
  const ml::Matrix x = dataset.features(rows);
  const ml::Matrix y = dataset.targets(rows);
  const std::string manifest_path = ckpt.path + ".manifest";
  const std::string fingerprint = train_fingerprint(options_.gbt, x.rows(), x.cols());

  model_ = ml::GbtRegressor(options_.gbt);
  if (ckpt.resume && std::filesystem::exists(ckpt.path) &&
      std::filesystem::exists(manifest_path)) {
    // A checkpoint trained under different options (or data) would resume
    // into a silently different model — refuse rather than guess.
    if (ml::load_text(manifest_path) != fingerprint) {
      throw std::runtime_error("checkpoint manifest does not match the training "
                               "configuration: " + manifest_path);
    }
    CrossArchPredictor partial = load(ckpt.path);
    model_ = std::move(partial.model_);
    model_.set_options(options_.gbt);
  }

  if (ckpt.every > 0) {
    // The manifest is pure configuration, so it is written once up front;
    // each checkpoint write then atomically replaces the model file. A
    // crash at any point leaves a (manifest, model) pair that resumes
    // correctly or no checkpoint at all — never a torn state.
    atomic_write_text(manifest_path, fingerprint);
  }
  const ml::GbtRegressor::ProgressFn on_checkpoint = [&](int) {
    save(ckpt.path);
    if (ckpt.stop && ckpt.stop()) throw TrainStopped{};
  };
  try {
    model_.fit_resumable(
        x, y, ckpt.every,
        ckpt.every > 0 ? on_checkpoint : ml::GbtRegressor::ProgressFn{}, pool);
  } catch (const TrainStopped&) {
    // Stopped at a checkpoint boundary: the checkpoint just written plus
    // the manifest resume this exact fit, so both stay on disk.
    return false;
  }
  recompile();

  std::error_code ec;  // best-effort cleanup; the final model is what matters
  std::filesystem::remove(ckpt.path, ec);
  std::filesystem::remove(manifest_path, ec);
  return true;
}

Rpv CrossArchPredictor::predict(const sim::RunProfile& profile) const {
  MPHPC_EXPECTS(trained());
  const FeaturePipeline::FeatureVector f = pipeline_.features(profile);
  std::array<double, arch::kNumSystems> ratios{};
  compiled_.predict_row(f, ratios);
  return Rpv(ratios);
}

std::vector<Rpv> CrossArchPredictor::predict_rpvs(
    std::span<const sim::RunProfile> profiles, ThreadPool* pool) const {
  MPHPC_EXPECTS(trained());
  std::vector<Rpv> out;
  if (profiles.empty()) return out;
  if (profiles.size() == 1) {
    // Serve hot path: a single request skips the Matrix round trip and
    // runs the scratch-reusing row kernel (no per-call tile state).
    out.push_back(predict(profiles.front()));
    return out;
  }
  ml::Matrix x(profiles.size(), FeaturePipeline::kNumFeatures);
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const FeaturePipeline::FeatureVector f = pipeline_.features(profiles[i]);
    std::copy(f.begin(), f.end(), x.row(i).begin());
  }
  const ml::Matrix y = compiled_.predict(x, pool);
  out.reserve(profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    std::array<double, arch::kNumSystems> ratios{};
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) ratios[k] = y(i, k);
    out.emplace_back(ratios);
  }
  return out;
}

ml::Matrix CrossArchPredictor::predict(const ml::Matrix& features,
                                       ThreadPool* pool) const {
  MPHPC_EXPECTS(trained());
  return compiled_.predict(features, pool);
}

namespace {
constexpr std::string_view kSectionMarker = "=== model ===";
}  // namespace

std::string CrossArchPredictor::serialize_text() const {
  MPHPC_EXPECTS(trained());
  std::string text = pipeline_.serialize();
  text += std::string(kSectionMarker) + "\n";
  text += model_.serialize();
  return text;
}

void CrossArchPredictor::save(const std::string& path) const {
  ml::save_text(serialize_text(), path);
}

CrossArchPredictor CrossArchPredictor::from_text(std::string_view text) {
  const std::size_t pos = text.find(kSectionMarker);
  if (pos == std::string_view::npos) {
    throw ParseError("predictor text missing section marker");
  }
  CrossArchPredictor predictor;
  predictor.pipeline_ = FeaturePipeline::deserialize(text.substr(0, pos));
  predictor.model_ =
      ml::GbtRegressor::deserialize(text.substr(pos + kSectionMarker.size()));
  // predict() feeds the model the pipeline's feature vector and reads one
  // ratio per system back, so the model must map exactly those shapes.
  if (predictor.model_.n_features() != FeaturePipeline::kNumFeatures ||
      predictor.model_.n_outputs() != arch::kNumSystems) {
    throw ParseError("predictor model maps " +
                     std::to_string(predictor.model_.n_features()) + " features to " +
                     std::to_string(predictor.model_.n_outputs()) + " outputs; want " +
                     std::to_string(FeaturePipeline::kNumFeatures) + " to " +
                     std::to_string(arch::kNumSystems));
  }
  try {
    predictor.recompile();
  } catch (const std::length_error& e) {
    throw ParseError(std::string("predictor model: ") + e.what());
  }
  return predictor;
}

CrossArchPredictor CrossArchPredictor::load(const std::string& path) {
  try {
    return from_text(ml::load_text(path));
  } catch (const ParseError& e) {
    throw ParseError(std::string(e.what()) + ": " + path);
  }
}

CrossArchPredictor CrossArchPredictor::from_parts(FeaturePipeline pipeline,
                                                  ml::GbtRegressor model) {
  MPHPC_EXPECTS(model.fitted());
  CrossArchPredictor predictor;
  predictor.pipeline_ = std::move(pipeline);
  predictor.model_ = std::move(model);
  predictor.options_.gbt = predictor.model_.options();
  predictor.recompile();
  return predictor;
}

void CrossArchPredictor::warm_refit(const ml::Matrix& x, const ml::Matrix& y,
                                    int extra_rounds, ThreadPool* pool) {
  MPHPC_EXPECTS(trained());
  model_.warm_start_fit(x, y, extra_rounds, pool);
  options_.gbt = model_.options();
  recompile();
}

GuardedPredictor::GuardedPredictor(CrossArchPredictor predictor,
                                   const RpvGuardOptions& bounds)
    : bounds_(bounds) {
  MPHPC_EXPECTS(bounds.min_ratio > 0.0 && bounds.min_ratio < bounds.max_ratio);
  model_ = std::make_shared<const CrossArchPredictor>(std::move(predictor));
  if (!model_->trained()) last_error_ = "predictor is untrained";
}

GuardedPredictor::GuardedPredictor(GuardedPredictor&& other) noexcept
    : model_(std::move(other.model_)),
      bounds_(other.bounds_),
      fallbacks_(other.fallbacks_.load(std::memory_order_relaxed)),
      forced_degraded_(other.forced_degraded_.load(std::memory_order_relaxed)),
      last_error_(std::move(other.last_error_)) {}

GuardedPredictor& GuardedPredictor::operator=(GuardedPredictor&& other) noexcept {
  if (this != &other) {
    model_ = std::move(other.model_);
    bounds_ = other.bounds_;
    fallbacks_.store(other.fallbacks_.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
    forced_degraded_.store(other.forced_degraded_.load(std::memory_order_relaxed),
                           std::memory_order_relaxed);
    last_error_ = std::move(other.last_error_);
  }
  return *this;
}

GuardedPredictor GuardedPredictor::load(const std::string& path,
                                        const RpvGuardOptions& bounds) {
  MPHPC_EXPECTS(bounds.min_ratio > 0.0 && bounds.min_ratio < bounds.max_ratio);
  try {
    return GuardedPredictor(CrossArchPredictor::load(path), bounds);
  } catch (const std::exception& e) {
    GuardedPredictor degraded;
    degraded.bounds_ = bounds;
    degraded.last_error_ = e.what();
    return degraded;
  }
}

void GuardedPredictor::record_error(const std::string& message) {
  const std::lock_guard lock(mutex_);
  last_error_ = message;
}

std::string GuardedPredictor::last_error() const {
  const std::lock_guard lock(mutex_);
  return last_error_;
}

std::shared_ptr<const CrossArchPredictor> GuardedPredictor::snapshot() const {
  const std::lock_guard lock(mutex_);
  return model_;
}

void GuardedPredictor::swap_model(CrossArchPredictor next) {
  // Build the shared_ptr outside the lock; the swap itself is two pointer
  // writes, so readers are never blocked behind a model copy.
  auto fresh = std::make_shared<const CrossArchPredictor>(std::move(next));
  const bool trained = fresh->trained();
  const std::lock_guard lock(mutex_);
  model_ = std::move(fresh);
  if (trained) {
    last_error_.clear();
  } else {
    last_error_ = "predictor is untrained";
  }
}

void GuardedPredictor::set_forced_degraded(bool on, const std::string& reason) {
  forced_degraded_.store(on, std::memory_order_relaxed);
  if (on && !reason.empty()) record_error(reason);
}

bool GuardedPredictor::healthy() const {
  if (forced_degraded_.load(std::memory_order_relaxed)) return false;
  const auto model = snapshot();
  return model != nullptr && model->trained();
}

Rpv GuardedPredictor::predict(const sim::RunProfile& profile) {
  const auto model = snapshot();
  if (model == nullptr || !model->trained() ||
      forced_degraded_.load(std::memory_order_relaxed)) {
    bump_fallbacks();
    return neutral_rpv();
  }
  Rpv rpv;
  try {
    rpv = model->predict(profile);
  } catch (const std::exception& e) {
    record_error(e.what());
    bump_fallbacks();
    return neutral_rpv();
  }
  if (!plausible(rpv)) {
    record_error("predicted RPV outside plausibility bounds");
    bump_fallbacks();
    return neutral_rpv();
  }
  return rpv;
}

std::vector<Rpv> GuardedPredictor::predict_rpvs(
    std::span<const sim::RunProfile> profiles, ThreadPool* pool,
    std::vector<std::uint8_t>* fallback_out) {
  if (fallback_out != nullptr) fallback_out->assign(profiles.size(), 0);
  const auto model = snapshot();
  if (model == nullptr || !model->trained() ||
      forced_degraded_.load(std::memory_order_relaxed)) {
    bump_fallbacks(static_cast<long long>(profiles.size()));
    if (fallback_out != nullptr) fallback_out->assign(profiles.size(), 1);
    return std::vector<Rpv>(profiles.size(), neutral_rpv());
  }
  std::vector<Rpv> rpvs;
  try {
    rpvs = model->predict_rpvs(profiles, pool);
  } catch (const std::exception& e) {
    record_error(e.what());
    bump_fallbacks(static_cast<long long>(profiles.size()));
    if (fallback_out != nullptr) fallback_out->assign(profiles.size(), 1);
    return std::vector<Rpv>(profiles.size(), neutral_rpv());
  }
  for (std::size_t i = 0; i < rpvs.size(); ++i) {
    if (!plausible(rpvs[i])) {
      record_error("predicted RPV outside plausibility bounds");
      bump_fallbacks();
      rpvs[i] = neutral_rpv();
      if (fallback_out != nullptr) (*fallback_out)[i] = 1;
    }
  }
  return rpvs;
}

}  // namespace mphpc::core
