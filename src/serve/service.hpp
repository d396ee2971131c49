// ServeCore — the transport-independent heart of `mphpc serve`.
//
// Owns the guarded predictor, the crash-safe model store, the drift
// detector, and the sliding feedback window. The Server (server.hpp)
// feeds it parsed requests from whatever transport is in use; tests feed
// it lines directly. Responsibilities:
//
//   predict   batch-featurize + one compiled inference per run of
//             consecutive predict requests; per-row plausibility guard.
//   feedback  turn measured times into an RPV target, shadow-predict to
//             feed the drift detector (even while degraded — recovery
//             needs the error stream), append to the sliding window.
//   refit     when enough feedback accumulated and drift is quiet,
//             warm-start the boosted model on the window (or cold-rebuild
//             once the ensemble hits its round budget), persist the new
//             generation to the store FIRST, then atomically hot-swap it
//             into the guard. A SIGKILL anywhere in that sequence leaves
//             a loadable store: either the old generation or the new one.
//   drift     a tripped detector forces the guard degraded (neutral RPVs)
//             and freezes refits until the rolling error recovers.
//
// Thread model: predict paths are lock-free on a model snapshot;
// feedback and stats take the core mutex; run_refit is called from a
// single dedicated thread. All public entry points are safe to call
// concurrently except run_refit (one caller at a time).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <deque>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/thread_pool.hpp"
#include "core/feature_pipeline.hpp"
#include "core/predictor.hpp"
#include "serve/drift.hpp"
#include "serve/model_store.hpp"
#include "serve/protocol.hpp"

namespace mphpc::serve {

struct ServeOptions {
  std::string state_dir;   ///< required: model store lives here
  std::string model_path;  ///< bootstrap model when the store is empty
  core::RpvGuardOptions bounds{};
  DriftOptions drift{};
  std::size_t drift_max_apps = 64;   ///< per-app drift LRU bound (0 = global-only)
  std::size_t drift_app_window = 0;  ///< per-app window (0 = max(4, window/4))
  std::size_t window_capacity = 4096;  ///< feedback rows kept for refits
  std::size_t refit_every = 256;       ///< feedbacks per refit (0 = never)
  std::size_t min_refit_rows = 32;     ///< smallest window worth refitting on
  int refit_rounds = 20;               ///< extra boosting rounds per refit
  int max_model_rounds = 2000;         ///< warm-start budget before compaction
  int cold_rounds = 200;               ///< rounds for a compaction rebuild
  // Fleet identity + coordination (set by the supervisor path; the
  // defaults describe a standalone single-process daemon).
  int worker_id = 0;                 ///< reported by stats
  long long restarts_observed = 0;   ///< prior incarnations of this slot
  bool use_lease = false;            ///< elect a single refitter on disk
  double lease_ttl_s = 30.0;         ///< silent-holder takeover threshold
};

class ServeCore {
 public:
  /// Bootstraps the serving model: a valid store in state_dir wins (it is
  /// the survivor of the last run), else model_path seeds the store at
  /// generation 0. Throws std::runtime_error when neither yields a model
  /// — a daemon with nothing to serve is a configuration error, not a
  /// degraded state.
  explicit ServeCore(ServeOptions options);

  /// Parses and serves one request line; never throws on bad input (the
  /// reply is a structured error instead).
  [[nodiscard]] std::string handle_line(std::string_view line,
                                        ThreadPool* pool = nullptr);

  /// Serves a batch of parsed requests, one reply per request in order.
  /// Runs of consecutive predict requests share one compiled batch
  /// inference.
  [[nodiscard]] std::vector<std::string> handle_requests(
      std::span<const Request> requests, ThreadPool* pool = nullptr);

  /// Serves one parsed request (shutdown gets an ok ack; the transport
  /// owns the actual drain). A predict takes the handle_requests path.
  [[nodiscard]] std::string handle_request(const Request& request,
                                           ThreadPool* pool = nullptr);

  [[nodiscard]] std::string stats_reply(std::string_view id);

  /// True when enough feedback has accumulated for a refit and drift has
  /// not frozen learning.
  [[nodiscard]] bool refit_pending() const;

  /// Runs one refit cycle if one is pending: fit on the window, persist
  /// the new generation, hot-swap. Single-caller (the refit thread).
  /// With use_lease, refits only while holding the on-disk refit lease
  /// (non-holders return false and keep following the store instead).
  /// Returns true when a new generation was published. Throws on
  /// persistence failure — the caller decides whether that is fatal.
  bool run_refit(ThreadPool* pool = nullptr);

  /// Converges this core on the store's published generation: peeks the
  /// header and, when it differs from the generation/fingerprint served
  /// here, loads and hot-swaps the stored model. This is how follower
  /// workers pick up a leader's refits. Returns true when a swap
  /// happened. Never throws (a torn or corrupt store read is retried on
  /// the next poll).
  bool follow_store() noexcept;

  /// Persists the current model/generation to the store (idempotent;
  /// called on clean shutdown so a --model bootstrap without any refit
  /// still leaves a store behind). In lease mode the write is skipped
  /// when the store already holds our generation or newer — a draining
  /// follower must not clobber the leader's latest publish.
  void flush();

  [[nodiscard]] long long generation() const;
  [[nodiscard]] std::string fingerprint() const;
  [[nodiscard]] bool degraded() const { return !guard_.healthy(); }
  [[nodiscard]] core::GuardedPredictor& guard() noexcept { return guard_; }
  [[nodiscard]] const ServeOptions& options() const noexcept { return options_; }
  [[nodiscard]] const ModelStore& store() const noexcept { return store_; }
  /// Non-fatal bootstrap diagnostics (e.g. "store was corrupt, fell back
  /// to --model"); empty when bootstrap was clean.
  [[nodiscard]] const std::string& bootstrap_note() const noexcept {
    return bootstrap_note_;
  }

  /// Transport-level events folded into the stats reply. Sheds are
  /// attributed to the shed request's lane so operators can see the
  /// priority policy working (feedback shed before predict).
  void note_shed(Op op = Op::kPredict) noexcept {
    shed_.fetch_add(1, std::memory_order_relaxed);
    (op == Op::kFeedback ? shed_feedback_ : shed_predict_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  void note_deadline_expired() noexcept {
    deadline_expired_.fetch_add(1, std::memory_order_relaxed);
  }
  /// A queued request skipped unserved because its client was dropped.
  void note_dropped() noexcept {
    dropped_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Latest per-lane intake depths, sampled by the transport for stats.
  void note_lane_depths(std::size_t predict_depth,
                        std::size_t feedback_depth) noexcept {
    lane_predict_depth_.store(static_cast<long long>(predict_depth),
                              std::memory_order_relaxed);
    lane_feedback_depth_.store(static_cast<long long>(feedback_depth),
                               std::memory_order_relaxed);
  }

 private:
  struct WindowRow {
    std::array<double, core::FeaturePipeline::kNumFeatures> x{};
    std::array<double, arch::kNumSystems> y{};
  };

  void bootstrap();
  [[nodiscard]] std::string handle_feedback(const Request& request);
  [[nodiscard]] std::string shutdown_reply(std::string_view id) const;
  /// Applies the per-app drift override to one predict result: a tripped
  /// app's prediction is replaced with the neutral RPV and flagged as a
  /// fallback, leaving other apps' predictions untouched.
  void apply_app_degrade(const sim::RunProfile& profile, core::Rpv& rpv,
                         std::uint8_t& fallback);

  ServeOptions options_;
  ModelStore store_;
  core::GuardedPredictor guard_;
  RefitLease lease_;
  std::string bootstrap_note_;
  /// Start-up split for the stats op: loading the served model (store
  /// load, or --model parse, compile included) and the seeding store write
  /// (0 when the store survived).
  double bootstrap_load_ms_ = 0.0;
  double bootstrap_store_ms_ = 0.0;
  std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  mutable std::mutex mutex_;  ///< guards window_, generation_, fingerprint_
  std::deque<WindowRow> window_;
  std::size_t pending_feedback_ = 0;
  long long generation_ = 0;
  std::string fingerprint_;

  /// Separate from mutex_ so the (hot) predict path's per-app drift check
  /// never contends with a refit's window copy.
  mutable std::mutex drift_mutex_;
  DriftMap drift_;

  std::atomic<long long> predicts_{0};
  std::atomic<long long> feedbacks_{0};
  std::atomic<long long> refits_{0};
  std::atomic<long long> reloads_{0};
  std::atomic<long long> request_errors_{0};
  std::atomic<long long> shed_{0};
  std::atomic<long long> shed_predict_{0};
  std::atomic<long long> shed_feedback_{0};
  std::atomic<long long> deadline_expired_{0};
  std::atomic<long long> dropped_{0};
  std::atomic<long long> app_fallbacks_{0};
  std::atomic<long long> lane_predict_depth_{0};
  std::atomic<long long> lane_feedback_depth_{0};
};

}  // namespace mphpc::serve
