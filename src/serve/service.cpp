#include "serve/service.hpp"

#include <cmath>
#include <optional>
#include <stdexcept>
#include <utility>

#include <unistd.h>

#include "common/contract.hpp"
#include "common/json_writer.hpp"
#include "common/rng.hpp"
#include "common/strings.hpp"
#include "common/timer.hpp"
#include "serve/fault_inject.hpp"

namespace mphpc::serve {

namespace {

DriftMapOptions drift_map_options(const ServeOptions& options) {
  DriftMapOptions map;
  map.global = options.drift;
  map.max_apps = options.drift_max_apps;
  map.app_window = options.drift_app_window;
  return map;
}

RefitLease make_lease(const ServeOptions& options) {
  if (!options.use_lease) return RefitLease{};
  return RefitLease(options.state_dir + "/refit.lease",
                    "worker-" + std::to_string(options.worker_id) + " pid " +
                        std::to_string(::getpid()),
                    options.lease_ttl_s);
}

}  // namespace

ServeCore::ServeCore(ServeOptions options)
    : options_(std::move(options)),
      store_(options_.state_dir + "/serve_model.txt"),
      lease_(make_lease(options_)),
      drift_(drift_map_options(options_)) {
  MPHPC_EXPECTS(!options_.state_dir.empty());
  MPHPC_EXPECTS(options_.window_capacity >= 1 && options_.min_refit_rows >= 1);
  MPHPC_EXPECTS(options_.refit_rounds >= 1 && options_.cold_rounds >= 1);
  MPHPC_EXPECTS(options_.max_model_rounds >= 1);
  bootstrap();
}

void ServeCore::bootstrap() {
  // The store is the survivor of the last run and always wins: after a
  // crash the daemon must come back serving exactly the model it last
  // persisted, not the (older) --model file.
  const Timer load_timer;
  std::optional<ModelStore::StoredModel> stored;
  try {
    stored = store_.load();
  } catch (const std::exception& e) {
    bootstrap_note_ = std::string("model store unusable (") + e.what() + ")";
  }
  if (stored.has_value()) {
    generation_ = stored->generation;
    fingerprint_ = std::move(stored->fingerprint);
    guard_ = core::GuardedPredictor(std::move(stored->predictor), options_.bounds);
    bootstrap_load_ms_ = load_timer.millis();
    return;
  }
  if (options_.model_path.empty()) {
    throw std::runtime_error(
        "serve: no model to serve: state dir has no stored model" +
        (bootstrap_note_.empty() ? std::string() : " (" + bootstrap_note_ + ")") +
        " and no --model was given");
  }
  // Seed the store immediately so a SIGKILL before the first refit still
  // restarts from a persisted generation 0.
  core::CrossArchPredictor seeded = core::CrossArchPredictor::load(options_.model_path);
  bootstrap_load_ms_ = load_timer.millis();
  const Timer store_timer;
  generation_ = 0;
  fingerprint_ = store_.store(seeded, generation_);
  bootstrap_store_ms_ = store_timer.millis();
  guard_ = core::GuardedPredictor(std::move(seeded), options_.bounds);
}

std::string ServeCore::handle_line(std::string_view line, ThreadPool* pool) {
  MPHPC_EXPECTS(pool == nullptr || pool->size() >= 1);
  Request request;
  try {
    request = parse_request(line);
  } catch (const std::exception& e) {
    request_errors_.fetch_add(1, std::memory_order_relaxed);
    return error_reply("", "bad_request", e.what());
  }
  return std::move(handle_requests(std::span(&request, 1), pool).front());
}

std::string ServeCore::handle_request(const Request& request, ThreadPool* pool) {
  MPHPC_EXPECTS(pool == nullptr || pool->size() >= 1);
  try {
    switch (request.op) {
      case Op::kPredict:
        return std::move(handle_requests(std::span(&request, 1), pool).front());
      case Op::kFeedback:
        return handle_feedback(request);
      case Op::kStats:
        return stats_reply(request.id);
      case Op::kShutdown:
        return shutdown_reply(request.id);
    }
    return error_reply(request.id, "internal", "unhandled op");
  } catch (const std::exception& e) {
    request_errors_.fetch_add(1, std::memory_order_relaxed);
    return error_reply(request.id, "internal", e.what());
  }
}

std::vector<std::string> ServeCore::handle_requests(
    std::span<const Request> requests, ThreadPool* pool) {
  MPHPC_EXPECTS(pool == nullptr || pool->size() >= 1);
  std::vector<std::string> replies(requests.size());
  std::size_t i = 0;
  while (i < requests.size()) {
    if (requests[i].op != Op::kPredict) {
      replies[i] = handle_request(requests[i], pool);
      ++i;
      continue;
    }
    // Batch the run of consecutive predicts through one compiled predict.
    std::size_t j = i;
    std::vector<sim::RunProfile> profiles;
    while (j < requests.size() && requests[j].op == Op::kPredict) {
      profiles.push_back(requests[j].profile);
      ++j;
    }
    std::vector<std::uint8_t> fallback;
    std::vector<core::Rpv> rpvs;
    try {
      rpvs = guard_.predict_rpvs(profiles, pool, &fallback);
      predicts_.fetch_add(static_cast<long long>(profiles.size()),
                          std::memory_order_relaxed);
      for (std::size_t k = 0; k < profiles.size(); ++k) {
        apply_app_degrade(profiles[k], rpvs[k], fallback[k]);
        replies[i + k] =
            predict_reply(requests[i + k].id, rpvs[k], fallback[k] != 0);
      }
    } catch (const std::exception& e) {
      request_errors_.fetch_add(static_cast<long long>(profiles.size()),
                                std::memory_order_relaxed);
      for (std::size_t k = 0; k < profiles.size(); ++k) {
        replies[i + k] = error_reply(requests[i + k].id, "internal", e.what());
      }
    }
    i = j;
  }
  return replies;
}

void ServeCore::apply_app_degrade(const sim::RunProfile& profile,
                                  core::Rpv& rpv, std::uint8_t& fallback) {
  if (options_.drift_max_apps == 0 || fallback != 0) return;
  bool tripped = false;
  {
    const std::lock_guard lock(drift_mutex_);
    tripped = drift_.app_tripped(profile.app);
  }
  if (!tripped) return;
  // This app's own drift detector tripped while the fleet stayed
  // healthy: degrade just its predictions to the neutral RPV, exactly
  // the fallback a globally tripped guard would produce.
  rpv = core::neutral_rpv();
  fallback = 1;
  app_fallbacks_.fetch_add(1, std::memory_order_relaxed);
}

std::string ServeCore::handle_feedback(const Request& request) {
  const core::Rpv target =
      core::Rpv::relative_to(request.times, request.profile.system);
  const auto model = guard_.snapshot();
  feedbacks_.fetch_add(1, std::memory_order_relaxed);
  if (model == nullptr || !model->trained()) {
    // No model to compare against or learn on top of — acknowledge, but
    // there is nothing to window.
    return feedback_reply(request.id, !guard_.healthy(), 0.0);
  }

  // Shadow-predict against the current (possibly frozen) model: while the
  // guard is forced degraded this error stream is exactly what decides
  // recovery, so it must keep flowing.
  const core::Rpv predicted = model->predict(request.profile);
  double err = 0.0;
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
    err += std::abs(predicted[k] - target[k]);
  }
  err /= static_cast<double>(arch::kNumSystems);

  const auto features = model->pipeline().features(request.profile);
  WindowRow row;
  row.x = features;
  row.y = target.values();

  bool degraded_now = false;
  bool quarantined = false;
  double mae_now = 0.0;
  {
    const std::lock_guard lock(drift_mutex_);
    // Forced-degraded (and the refit freeze) follow the GLOBAL detector
    // only; a single tripped app quarantines itself without dragging the
    // fleet into neutral predictions.
    const bool was_tripped = drift_.global().tripped();
    const DriftMap::Outcome outcome = drift_.observe(request.profile.app, err);
    mae_now = drift_.global().rolling_mae();
    if (!was_tripped && outcome.global_tripped) {
      guard_.set_forced_degraded(
          true, "drift tripped: rolling MAE " + format_double(mae_now) +
                    " over " + std::to_string(drift_.global().samples()) +
                    " completions");
    } else if (was_tripped && !outcome.global_tripped) {
      guard_.set_forced_degraded(false);
    }
    quarantined = outcome.app_tripped;
    degraded_now = guard_.forced_degraded() || quarantined;
  }
  if (!quarantined) {
    // A tripped app's rows are kept OUT of the refit window: learning
    // from a drifting workload's labels is how one bad app poisons
    // everyone else's model.
    const std::lock_guard lock(mutex_);
    window_.push_back(row);
    while (window_.size() > options_.window_capacity) window_.pop_front();
    ++pending_feedback_;
  }
  return feedback_reply(request.id, degraded_now, mae_now);
}

bool ServeCore::refit_pending() const {
  if (options_.refit_every == 0) return false;
  {
    const std::lock_guard lock(drift_mutex_);
    if (drift_.global().tripped()) return false;
  }
  const std::lock_guard lock(mutex_);
  return pending_feedback_ >= options_.refit_every &&
         window_.size() >= options_.min_refit_rows;
}

bool ServeCore::run_refit(ThreadPool* pool) {
  MPHPC_EXPECTS(options_.refit_rounds >= 1 && options_.cold_rounds >= 1);
  if (!refit_pending()) return false;
  // Fleet mode: converge on the newest published generation first so a
  // warm refit extends the leader's latest model, not a stale one, then
  // take (or fail to take) the refit lease. A non-holder simply keeps
  // its window and tries again next tick — by then either the holder
  // published (follow_store picks it up) or died (TTL takeover).
  if (lease_.enabled()) {
    (void)follow_store();
    if (!lease_.try_acquire()) return false;
  }
  // Release the lease on every exit from here on, including throws from
  // persistence — a lease that outlives its refit blocks the fleet for a
  // full TTL.
  struct LeaseGuard {
    RefitLease& lease;
    ~LeaseGuard() { lease.release(); }
  } lease_guard{lease_};

  const auto snapshot = guard_.snapshot();
  if (snapshot == nullptr || !snapshot->trained()) return false;

  ml::Matrix x;
  ml::Matrix y;
  long long next_generation = 0;
  {
    const std::lock_guard lock(mutex_);
    const std::size_t n = window_.size();
    x = ml::Matrix(n, core::FeaturePipeline::kNumFeatures);
    y = ml::Matrix(n, arch::kNumSystems);
    for (std::size_t r = 0; r < n; ++r) {
      const WindowRow& row = window_[r];
      for (std::size_t c = 0; c < row.x.size(); ++c) x(r, c) = row.x[c];
      for (std::size_t c = 0; c < row.y.size(); ++c) y(r, c) = row.y[c];
    }
    pending_feedback_ = 0;
    next_generation = generation_ + 1;
  }

  // Fault point: a crash here loses this refit's work but no state — the
  // store still holds the previous generation.
  fault_point(FaultSite::kMidRefit);

  core::CrossArchPredictor next = *snapshot;
  if (next.model().rounds_completed() + options_.refit_rounds >
      options_.max_model_rounds) {
    // Generational compaction: the ensemble hit its round budget, so
    // rebuild from scratch on the current window instead of growing
    // without bound. Seed derives from the generation so each rebuild is
    // deterministic and distinct.
    ml::GbtOptions opt = next.model().options();
    opt.n_rounds = options_.cold_rounds;
    opt.seed = derive_seed(opt.seed, "serve-cold",
                           static_cast<std::uint64_t>(next_generation));
    ml::GbtRegressor fresh(opt);
    fresh.fit(x, y, pool);
    next = core::CrossArchPredictor::from_parts(snapshot->pipeline(),
                                                std::move(fresh));
  } else {
    next.warm_refit(x, y, options_.refit_rounds, pool);
  }
  // The fit can be long; prove the lease holder is still alive before
  // publishing so a slow refit isn't mistaken for a dead one.
  lease_.refresh();

  // Fault point: the new model is fit but NOT yet persisted or
  // published. A crash here must leave the store byte-identical to the
  // previous generation — the property FaultInjectTest asserts.
  fault_point(FaultSite::kPrePublish);

  // Persist BEFORE publishing: if the process dies between these two
  // statements the store already holds the new generation; if it dies
  // before the store write, the old generation still serves. Either way
  // a restart loads a complete model.
  std::string fingerprint = store_.store(next, next_generation);
  guard_.swap_model(std::move(next));
  {
    const std::lock_guard lock(mutex_);
    generation_ = next_generation;
    fingerprint_ = std::move(fingerprint);
  }
  refits_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool ServeCore::follow_store() noexcept {
  try {
    const auto header = store_.peek_header();
    if (!header.has_value()) return false;
    {
      const std::lock_guard lock(mutex_);
      if (header->generation == generation_ &&
          header->fingerprint == fingerprint_) {
        return false;
      }
    }
    // The header moved: someone else published. Do the full verifying
    // load OUTSIDE the lock (it parses a whole model), then re-check —
    // losing a race here just means we adopt the even-newer state.
    auto stored = store_.load();
    if (!stored.has_value()) return false;
    {
      const std::lock_guard lock(mutex_);
      if (stored->generation == generation_ &&
          stored->fingerprint == fingerprint_) {
        return false;
      }
      generation_ = stored->generation;
      fingerprint_ = std::move(stored->fingerprint);
    }
    guard_.swap_model(std::move(stored->predictor));
    reloads_.fetch_add(1, std::memory_order_relaxed);
    return true;
  } catch (const std::exception&) {
    // A corrupt or vanishing store is not fatal to a follower — it keeps
    // serving its current model and retries on the next poll.
    return false;
  }
}

void ServeCore::flush() {
  const auto snapshot = guard_.snapshot();
  if (snapshot == nullptr || !snapshot->trained()) return;
  long long generation = 0;
  {
    const std::lock_guard lock(mutex_);
    generation = generation_;
  }
  if (lease_.enabled()) {
    // A draining fleet member must not roll the store back: skip the
    // write when the store already holds our generation or newer.
    try {
      const auto header = store_.peek_header();
      if (header.has_value() && header->generation >= generation) return;
    } catch (const std::exception&) {
      // Unreadable header: fall through and repair the store.
    }
  }
  (void)store_.store(*snapshot, generation);
}

long long ServeCore::generation() const {
  const std::lock_guard lock(mutex_);
  return generation_;
}

std::string ServeCore::fingerprint() const {
  const std::lock_guard lock(mutex_);
  return fingerprint_;
}

std::string ServeCore::stats_reply(std::string_view id) {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("op", "stats");
  w.field("healthy", guard_.healthy());
  w.field("degraded", guard_.forced_degraded());
  {
    const auto uptime = std::chrono::steady_clock::now() - started_;
    w.field("uptime_s", std::chrono::duration<double>(uptime).count());
  }
  w.field("worker_id", options_.worker_id);
  w.field("restarts_observed", options_.restarts_observed);
  {
    const std::lock_guard lock(mutex_);
    w.field("generation", generation_);
    w.field("fingerprint", fingerprint_);
    w.field("window_rows", window_.size());
  }
  {
    const std::lock_guard lock(drift_mutex_);
    w.begin_object("drift");
    w.field("state", drift_.global().tripped() ? "tripped" : "healthy");
    w.field("rolling_mae", drift_.global().rolling_mae());
    w.field("samples", drift_.global().samples());
    w.field("trips", drift_.global().trips());
    w.field("recoveries", drift_.global().recoveries());
    w.field("apps_tracked", drift_.apps_tracked());
    w.field("apps_tripped", drift_.apps_tripped());
    w.begin_array("tripped_apps");
    for (const std::string& app : drift_.tripped_apps()) w.value(app);
    w.end_array();
    w.end_object();
  }
  w.begin_object("refit_lease");
  w.field("enabled", lease_.enabled());
  w.field("holder", lease_.read_holder());
  w.end_object();
  const auto snapshot = guard_.snapshot();
  w.field("model_rounds",
          snapshot == nullptr ? 0 : snapshot->model().rounds_completed());
  w.begin_object("counters");
  w.field("predicts", predicts_.load(std::memory_order_relaxed));
  w.field("feedbacks", feedbacks_.load(std::memory_order_relaxed));
  w.field("fallbacks", guard_.fallback_count());
  w.field("app_fallbacks", app_fallbacks_.load(std::memory_order_relaxed));
  w.field("refits", refits_.load(std::memory_order_relaxed));
  w.field("reloads", reloads_.load(std::memory_order_relaxed));
  w.field("request_errors", request_errors_.load(std::memory_order_relaxed));
  w.field("shed", shed_.load(std::memory_order_relaxed));
  w.field("deadline_expired", deadline_expired_.load(std::memory_order_relaxed));
  w.field("dropped", dropped_.load(std::memory_order_relaxed));
  w.end_object();
  w.begin_object("lanes");
  w.begin_object("predict");
  w.field("depth", lane_predict_depth_.load(std::memory_order_relaxed));
  w.field("shed", shed_predict_.load(std::memory_order_relaxed));
  w.end_object();
  w.begin_object("feedback");
  w.field("depth", lane_feedback_depth_.load(std::memory_order_relaxed));
  w.field("shed", shed_feedback_.load(std::memory_order_relaxed));
  w.end_object();
  w.end_object();
  w.begin_object("bootstrap_ms");
  w.field("load", bootstrap_load_ms_);
  w.field("store", bootstrap_store_ms_);
  w.end_object();
  if (!bootstrap_note_.empty()) w.field("bootstrap_note", bootstrap_note_);
  w.end_object();
  return w.str();
}

std::string ServeCore::shutdown_reply(std::string_view id) const {
  JsonWriter w;
  w.begin_object();
  w.field("id", id);
  w.field("ok", true);
  w.field("op", "shutdown");
  w.field("draining", true);
  w.end_object();
  return w.str();
}

}  // namespace mphpc::serve
