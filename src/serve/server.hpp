// Server — the transport and threading shell around ServeCore.
//
// Request lifecycle:
//   serve loop (caller)    one poll() loop owns every client fd. It
//                          accepts, reads stdin (stdio mode) or the
//                          Unix-domain clients, splits complete JSONL
//                          lines, parses them, and either answers at once
//                          (parse error -> bad_request, draining ->
//                          shutting_down) or enqueues the request with
//                          its arrival time. Each tick it then pops up to
//                          batch_max requests (predict lane first),
//                          expires those whose deadline passed
//                          (deadline_exceeded), serves the rest through
//                          ServeCore (consecutive predicts share one
//                          compiled batch inference), appends the replies
//                          to each connection's outbound buffer, writes
//                          what the kernel takes, and kicks the refit
//                          thread when feedback has accumulated. While
//                          the queue is non-empty the loop polls with a
//                          zero timeout, so new input is read between
//                          batches.
//   queue (two lanes)      bounded; predict/stats ride the priority lane,
//                          feedback the best-effort lane. At capacity the
//                          OLDEST FEEDBACK is shed first (a lost label
//                          costs a little model freshness; a lost predict
//                          stalls a scheduler decision), then the oldest
//                          predict — staleness is worth less than
//                          freshness, and the queue can never grow
//                          without bound.
//   refit (one thread)     runs ServeCore::run_refit off the request
//                          path; a refit failure is logged, never fatal.
//                          With store_poll_s set it also wakes on a timer
//                          and follows the shared store, which is how a
//                          supervised worker converges on a sibling's
//                          published generation.
//
// Connections: accepted sockets are nonblocking. Unsent reply bytes wait
// in the connection's outbound buffer and go out on POLLOUT; a client
// whose unsent bytes pass kMaxOutboundBytes (it stopped reading) is
// disconnected, so it can stall no one else. A queued request names its
// connection by a never-reused id, not by fd number, so a reply can
// never reach a later client that accept() gave the same fd. Requests of
// a dropped connection are skipped before inference (the `dropped`
// counter). A client that sends EOF still gets every reply it is owed
// before its fd is closed. The stdio fds are never made nonblocking
// (they share a file description with the parent), so their writes
// simply block.
//
// Supervised-worker mode: the supervisor hands each worker an inherited
// listening fd (listen_fd — the kernel load-balances accepts across
// workers) and the write end of a heartbeat pipe. The serve loop beats
// once per tick. A worker hung at accept or wedged mid-request stops its
// only loop, goes silent and gets SIGKILLed by the supervisor's watchdog.
//
// Shutdown: a SIGINT/SIGTERM (via ShutdownLatch), a shutdown request, or
// EOF on stdin stops reading; the loop serves everything already queued,
// then flushes outbound bytes for at most kDrainFlush, the model is
// flushed to the store, and run() returns 0 — or 128+signal when a
// signal started the drain, so wrappers can tell "interrupted but
// flushed" from a clean stop. SIGKILL needs no handling here — the
// store's atomic write protocol guarantees a restartable model at every
// instant.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <iosfwd>
#include <map>
#include <mutex>
#include <optional>
#include <string>
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
  std::uint64_t conn = 0;  ///< id of the connection owed the reply
  std::chrono::steady_clock::time_point arrival{};
};

/// The bounded two-lane intake queue: predict/stats in the priority
/// lane, feedback in the best-effort lane. Shedding at capacity takes
/// the oldest feedback first, then the oldest predict. Plain container,
/// not thread-safe.
class IntakeQueue {
 public:
  explicit IntakeQueue(std::size_t capacity);

  /// Admits `pending`, shedding and returning a victim when the queue is
  /// at capacity (nullopt otherwise). The new request is always
  /// admitted; the victim is never the request just pushed unless every
  /// older request outranks it.
  [[nodiscard]] std::optional<Pending> push(Pending pending);

  /// Moves up to `max` requests into `out`, priority lane first (so
  /// consecutive-predict batching sees unbroken predict runs).
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
    Connection(int in, int out) : in_fd(in), out_fd(out) {}

    int in_fd;                ///< read side (0 in stdio mode)
    int out_fd;               ///< write side (1 in stdio mode)
    std::string buffer;       ///< the unfinished line (at most 1 MiB)
    bool discarding = false;  ///< oversized line: drop bytes to next newline
    bool eof = false;         ///< peer sent EOF: close once nothing is owed
    std::string outbound;     ///< reply bytes the kernel has not taken yet
    std::size_t queued = 0;   ///< requests in queue_ owed a reply here
  };
  using Connections = std::map<std::uint64_t, Connection>;

  void log_line(const std::string& message);
  void serve_loop(int listen_fd);
  void heartbeat();
  void accept_client(int listen_fd);
  void read_connection(std::uint64_t id, Connection& conn);
  void handle_input_line(std::uint64_t id, Connection& conn,
                         std::string_view line);
  void enqueue(Pending pending);
  void serve_batch();
  void append_reply(Connection& conn, std::string_view reply);
  void flush_connections();
  Connections::iterator close_connection(Connections::iterator it);
  void refit_loop();
  void begin_drain(const char* why);

  ServeCore& core_;
  ServerOptions options_;
  std::ostream* log_;
  ThreadPool pool_;

  // Serve-loop state: touched by the calling thread only.
  IntakeQueue queue_;
  bool draining_ = false;
  Connections connections_;
  std::uint64_t next_conn_id_ = 0;

  std::mutex refit_mutex_;
  std::condition_variable refit_cv_;
  bool refit_kick_ = false;
  bool stop_refit_ = false;
};

}  // namespace mphpc::serve
