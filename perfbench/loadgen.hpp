// Open-loop load generator and daemon control for the serve workload.
//
// The generator plays a seeded Poisson arrival schedule against a JSONL
// daemon on a Unix socket, over a few connections, each with one sending
// and one reading thread. Requests go out on schedule whether or not
// earlier replies came back (open loop), and every latency is timed from
// the moment the request was DUE, so a stall that delays the sender or
// the daemon shows up in every request scheduled behind it. The sender
// records how late it actually wrote each request (generator lag).
//
// A phase stops sending early when more than `max_outstanding` requests
// are unanswered: past that point the backlog is growing and the rate is
// over capacity; requests never sent are not counted as attempted.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct LoadOptions {
  double rate_rps = 1000.0;
  double seconds = 1.0;
  std::uint64_t seed = 1;
  int connections = 2;
  int feedback_every = 16;  ///< every k-th request is a feedback (0: none)
  std::size_t max_outstanding = 256;
  double rpv_min = 0.0;     ///< bounds every predicted RPV entry must meet
  double rpv_max = 1e300;
};

/// One scheduled request; times are seconds since the phase start.
struct RequestRecord {
  double due_s = 0.0;
  double send_s = -1.0;   ///< -1: never sent (phase stopped early)
  double reply_s = -1.0;  ///< first reply; -1: unanswered
  int replies = 0;
  bool feedback = false;
  bool good = false;      ///< first reply was ok:true with a valid payload
};

struct PhaseResult {
  LoadOptions options;
  std::chrono::steady_clock::time_point start;
  long long first_id = 0;  ///< request id of records[0]
  std::vector<RequestRecord> records;
  std::size_t sent = 0;
  std::size_t good = 0;        ///< exactly-one-reply, ok, valid payload
  std::size_t unanswered = 0;
  std::size_t duplicates = 0;  ///< extra replies for an id, or unknown ids
  std::size_t invalid = 0;     ///< ok replies whose payload failed checks
  std::map<std::string, std::size_t> error_codes;  ///< ok:false replies
  bool stopped_early = false;  ///< backlog passed max_outstanding

  [[nodiscard]] std::size_t failed() const { return sent - good; }
  /// Due -> first reply, ms, of the good requests.
  [[nodiscard]] std::vector<double> latencies_ms() const;
  /// Due -> send, ms, of every sent request.
  [[nodiscard]] std::vector<double> lags_ms() const;
};

class LoadGenerator {
 public:
  /// Bodies are request objects without their opening brace and id, e.g.
  /// `"op":"predict","profile":{...}}`; the generator prepends
  /// `{"id":"q<n>",` (or `f<n>` for feedback) so every id is unique.
  LoadGenerator(std::string socket_path, std::vector<std::string> predict_bodies,
                std::vector<std::string> feedback_bodies);

  [[nodiscard]] PhaseResult run(const LoadOptions& options);

 private:
  std::string socket_path_;
  std::vector<std::string> predict_bodies_;
  std::vector<std::string> feedback_bodies_;
  long long next_id_ = 0;
};

/// Connects to a Unix socket, retrying until `timeout_s`; -1 on failure.
[[nodiscard]] int connect_unix(const std::string& path, double timeout_s);

/// Sends one line on a fresh connection and returns the first reply line
/// (empty on failure or timeout).
[[nodiscard]] std::string request_reply(const std::string& socket_path,
                                        const std::string& line, double timeout_s);

/// A child process (the `mphpc serve` daemon) that dies with its parent.
class Daemon {
 public:
  Daemon(const std::string& exe, const std::vector<std::string>& args,
         const std::string& log_path);
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Seconds until `probe` (a request line) gets an ok:true reply on
  /// `socket_path`. Throws if the daemon exits or the timeout passes.
  double wait_ready(const std::string& socket_path, const std::string& probe,
                    double timeout_s);

  /// Asks for a clean shutdown on `socket_path`, escalating to SIGKILL
  /// after `timeout_s`; waits for the process. Returns its peak RSS in KB.
  long stop(const std::string& socket_path, double timeout_s);

 private:
  pid_t pid_ = -1;
};

}  // namespace perfbench
