// Server — the transport and threading shell around ServeCore.
//
// Request lifecycle:
//   intake (main thread)   poll()s the shutdown latch's wake fd plus
//                          stdin (stdio mode) or a Unix-domain listener
//                          and its client connections; splits complete
//                          JSONL lines, parses them, and either replies
//                          immediately (parse error -> bad_request,
//                          draining -> shutting_down) or enqueues the
//                          request with its arrival time.
//   queue (two lanes)      bounded; predict/stats ride the priority lane,
//                          feedback the best-effort lane. At capacity the
//                          OLDEST FEEDBACK is shed first (a lost label
//                          costs a little model freshness; a lost predict
//                          stalls a scheduler decision), then the oldest
//                          predict — staleness is worth less than
//                          freshness, and the queue can never grow
//                          without bound.
//   batcher (one thread)   pops up to batch_max requests (predict lane
//                          first), expires those whose deadline passed
//                          (deadline_exceeded), serves the rest through
//                          ServeCore (consecutive predicts share one
//                          compiled batch inference), writes replies, and
//                          kicks the refit thread when feedback has
//                          accumulated.
//   refit (one thread)     runs ServeCore::run_refit off the request
//                          path; a refit failure is logged, never fatal.
//                          With store_poll_s set it also wakes on a timer
//                          and follows the shared store, which is how a
//                          supervised worker converges on a sibling's
//                          published generation.
//
// Supervised-worker mode: the supervisor hands each worker an inherited
// listening fd (listen_fd — the kernel load-balances accepts across
// workers) and the write end of a heartbeat pipe. The intake loop's tick
// writes a heartbeat byte whenever the daemon is provably live — the
// queue is empty or the batcher made progress since the last beat — so a
// worker hung at accept OR wedged mid-reply under load both go silent
// and get SIGKILLed by the supervisor's watchdog.
//
// Shutdown: a SIGINT/SIGTERM (via ShutdownLatch), a shutdown request, or
// EOF stops intake; the batcher drains everything already queued, the
// model is flushed to the store, and run() returns 0 — or 128+signal
// when a signal started the drain, so wrappers can tell "interrupted
// but flushed" from a clean stop. SIGKILL needs no handling here — the
// store's atomic write protocol guarantees a restartable model at
// every instant.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"

namespace mphpc::serve {

struct ServerOptions {
  std::string socket_path;     ///< empty: stdio mode (stdin -> stdout)
  int listen_fd = -1;          ///< inherited listener (supervised worker);
                               ///< overrides socket_path, never closed here
  int heartbeat_fd = -1;       ///< liveness pipe to the supervisor (-1: none)
  double store_poll_s = 0.0;   ///< follow the shared store this often (0: off)
  std::string log_tag = "serve";  ///< log-line prefix ("serve.w2" in a fleet)
  std::size_t queue_cap = 1024;
  std::size_t batch_max = 64;
  int deadline_ms = 0;         ///< per-request serve deadline (0 = none)
  std::size_t pool_threads = 0;  ///< inference pool size (0 = hardware)
};

/// A parsed request waiting to be served, with its reply destination.
struct Pending {
  Request request;
  int fd = 1;  ///< reply destination
  std::chrono::steady_clock::time_point arrival{};
};

/// The bounded two-lane intake queue: predict/stats in the priority
/// lane, feedback in the best-effort lane. Shedding at capacity takes
/// the oldest feedback first, then the oldest predict. Plain container
/// — callers (the Server, tests) provide their own locking.
class IntakeQueue {
 public:
  explicit IntakeQueue(std::size_t capacity);

  /// Admits `pending`, shedding and returning a victim when the queue is
  /// at capacity (nullopt otherwise). The new request is always
  /// admitted; the victim is never the request just pushed unless every
  /// older request outranks it.
  [[nodiscard]] std::optional<Pending> push(Pending pending);

  /// Moves up to `max` requests into `out`, priority lane first (so the
  /// batcher's consecutive-predict batching sees unbroken predict runs).
  std::size_t pop_batch(std::size_t max, std::vector<Pending>& out);

  [[nodiscard]] bool empty() const noexcept {
    return predict_.empty() && feedback_.empty();
  }
  [[nodiscard]] std::size_t size() const noexcept {
    return predict_.size() + feedback_.size();
  }
  [[nodiscard]] std::size_t predict_depth() const noexcept {
    return predict_.size();
  }
  [[nodiscard]] std::size_t feedback_depth() const noexcept {
    return feedback_.size();
  }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  std::size_t capacity_;
  std::deque<Pending> predict_;   ///< predict + stats (priority lane)
  std::deque<Pending> feedback_;  ///< feedback (shed-first lane)
};

/// Creates, binds, and listens on a Unix-domain socket at `path`
/// (unlinking any stale socket first). Returns the listening fd; throws
/// on failure. The supervisor calls this once and forks workers that
/// inherit the fd.
[[nodiscard]] int listen_unix(const std::string& path);

class Server {
 public:
  /// `log` receives human-readable progress lines (nullptr = silent);
  /// protocol replies never go through it.
  Server(ServeCore& core, ServerOptions options, std::ostream* log = nullptr);

  /// Runs the daemon until EOF / shutdown request / SIGINT / SIGTERM,
  /// then drains and returns the process exit code: 0 on a clean drain
  /// (EOF or shutdown request), 128+signal when a signal tripped it.
  int run();

 private:
  using Clock = std::chrono::steady_clock;

  struct Connection {
    int fd = -1;
    std::string buffer;       ///< the unfinished line (at most 1 MiB)
    bool discarding = false;  ///< oversized line: drop bytes to next newline
  };

  void log_line(const std::string& message);
  [[nodiscard]] int setup_listener();
  void intake_loop(int listen_fd);
  void maybe_heartbeat();
  bool read_connection(Connection& conn);  ///< false when closed/EOF
  void handle_input_line(int fd, std::string_view line);
  void enqueue(Pending pending);
  void write_reply(int fd, std::string_view reply);

  void batcher_loop();
  void serve_batch(std::vector<Pending>& batch);
  void refit_loop();
  void begin_drain(const char* why);

  /// Reply-fd lifecycle. Every queued Pending holds a reference on its
  /// reply fd, so a disconnect observed by intake cannot close an fd the
  /// batcher still has replies for (close would let accept() recycle the
  /// number and misdeliver those replies). retire_fd() — the disconnect
  /// path — closes immediately when nothing is queued for the fd and
  /// otherwise defers the close to the release_fd() that drops the last
  /// reference. stdio fds (<= 2) are borrowed, never closed.
  void retain_fd(int fd);
  void release_fd(int fd);
  void retire_fd(int fd);

  ServeCore& core_;
  ServerOptions options_;
  std::ostream* log_;
  ThreadPool pool_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  IntakeQueue queue_;
  bool stop_batcher_ = false;
  bool draining_ = false;

  std::mutex refit_mutex_;
  std::condition_variable refit_cv_;
  bool refit_kick_ = false;
  bool stop_refit_ = false;

  std::mutex write_mutex_;
  std::vector<Connection> connections_;

  std::mutex fd_mutex_;
  std::map<int, std::size_t> fd_refs_;  ///< fd -> queued replies
  std::set<int> fd_dead_;  ///< disconnected; close when refs drop to zero

  /// Bumped by the batcher every time it completes a batch; the intake
  /// tick compares against last_batcher_steps_ to decide whether the
  /// daemon has earned a heartbeat.
  std::atomic<unsigned long long> batcher_steps_{0};
  unsigned long long last_batcher_steps_ = 0;
};

}  // namespace mphpc::serve
