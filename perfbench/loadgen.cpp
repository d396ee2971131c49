#include "loadgen.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "common/distributions.hpp"
#include "common/rng.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// How long a phase waits for replies after its last request went out.
constexpr double kDrainSeconds = 2.0;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

bool write_all(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::send(fd, data + off, size - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Value of the string member `key` in a flat JSON reply line.
std::string_view string_member(std::string_view line, std::string_view key) {
  std::string pattern = "\"";
  pattern += key;
  pattern += "\":\"";
  const std::size_t at = line.find(pattern);
  if (at == std::string_view::npos) return {};
  const std::size_t begin = at + pattern.size();
  const std::size_t end = line.find('"', begin);
  return end == std::string_view::npos ? std::string_view{}
                                       : line.substr(begin, end - begin);
}

/// True when the reply's "rpv" array holds four finite entries in bounds.
bool valid_rpv(std::string_view line, double lo, double hi) {
  const std::size_t at = line.find("\"rpv\":[");
  if (at == std::string_view::npos) return false;
  const std::string body(line.substr(at + 7, line.find(']', at) - at - 7));
  const char* p = body.c_str();
  int count = 0;
  while (*p != '\0') {
    char* end = nullptr;
    const double v = std::strtod(p, &end);
    if (end == p || !std::isfinite(v) || v < lo || v > hi) return false;
    ++count;
    p = end;
    if (*p == ',') ++p;
  }
  return count == 4;
}

struct Connection {
  int fd = -1;
  std::atomic<std::size_t> sent{0};
  std::atomic<bool> sender_done{false};
  std::size_t duplicates = 0;
  std::size_t invalid = 0;
  std::map<std::string, std::size_t> error_codes;
};

}  // namespace

std::vector<double> PhaseResult::latencies_ms() const {
  std::vector<double> out;
  out.reserve(good);
  for (const RequestRecord& r : records) {
    if (r.good && r.replies == 1) out.push_back((r.reply_s - r.due_s) * 1e3);
  }
  return out;
}

std::vector<double> PhaseResult::lags_ms() const {
  std::vector<double> out;
  out.reserve(sent);
  for (const RequestRecord& r : records) {
    if (r.send_s >= 0.0) out.push_back((r.send_s - r.due_s) * 1e3);
  }
  return out;
}

LoadGenerator::LoadGenerator(std::string socket_path,
                             std::vector<std::string> predict_bodies,
                             std::vector<std::string> feedback_bodies)
    : socket_path_(std::move(socket_path)),
      predict_bodies_(std::move(predict_bodies)),
      feedback_bodies_(std::move(feedback_bodies)) {
  if (predict_bodies_.empty()) throw std::invalid_argument("no predict bodies");
}

PhaseResult LoadGenerator::run(const LoadOptions& options) {
  PhaseResult result;
  result.options = options;
  mphpc::Rng rng(options.seed);
  std::vector<RequestRecord>& records = result.records;
  for (double t = 0.0;;) {
    t += mphpc::exponential(rng, options.rate_rps);
    if (t >= options.seconds) break;
    RequestRecord r;
    r.due_s = t;
    const std::size_t index = records.size();
    r.feedback = options.feedback_every > 0 && !feedback_bodies_.empty() &&
                 index % static_cast<std::size_t>(options.feedback_every) ==
                     static_cast<std::size_t>(options.feedback_every - 1);
    records.push_back(r);
  }
  const std::size_t n = records.size();
  result.first_id = next_id_;
  next_id_ += static_cast<long long>(n);

  const auto conns_n = static_cast<std::size_t>(std::max(1, options.connections));
  std::vector<std::unique_ptr<Connection>> conns;
  for (std::size_t c = 0; c < conns_n; ++c) {
    conns.push_back(std::make_unique<Connection>());
    conns.back()->fd = connect_unix(socket_path_, 5.0);
    if (conns.back()->fd < 0) {
      for (auto& conn : conns) {
        if (conn->fd >= 0) ::close(conn->fd);
      }
      throw std::runtime_error("cannot connect to " + socket_path_);
    }
  }

  std::atomic<std::size_t> sent_total{0};
  std::atomic<std::size_t> answered_total{0};
  std::atomic<bool> stop{false};
  // Start slightly in the future so every thread is parked before the
  // first request is due.
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(20);
  result.start = t0;

  const auto line_for = [&](std::size_t i, std::string& out) {
    const RequestRecord& r = records[i];
    const auto& bodies = r.feedback ? feedback_bodies_ : predict_bodies_;
    out += "{\"id\":\"";
    out += r.feedback ? 'f' : 'q';
    out += std::to_string(result.first_id + static_cast<long long>(i));
    out += "\",";
    out += bodies[i % bodies.size()];
    out += '\n';
  };

  const auto sender = [&](std::size_t c) {
    Connection& conn = *conns[c];
    std::string buffer;
    std::size_t i = c;
    while (i < n && !stop.load(std::memory_order_relaxed)) {
      const double now_s = seconds_between(t0, Clock::now());
      if (records[i].due_s > now_s) {
        std::this_thread::sleep_until(
            t0 + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(records[i].due_s)));
        continue;
      }
      // Everything already due goes out in one write.
      buffer.clear();
      std::size_t batch = 0;
      for (; i < n && records[i].due_s <= now_s; i += conns_n) {
        line_for(i, buffer);
        records[i].send_s = now_s;
        ++batch;
      }
      conn.sent.fetch_add(batch, std::memory_order_release);
      sent_total.fetch_add(batch);
      if (!write_all(conn.fd, buffer.data(), buffer.size())) break;
      // Read answered first: it never runs ahead of a later sent load.
      const auto answered = static_cast<long long>(answered_total.load());
      const auto outstanding = static_cast<long long>(sent_total.load()) - answered;
      if (outstanding > static_cast<long long>(options.max_outstanding)) stop.store(true);
    }
    conn.sender_done.store(true, std::memory_order_release);
  };

  const auto reader = [&](std::size_t c) {
    Connection& conn = *conns[c];
    std::string buffer;
    std::size_t answered = 0;
    Clock::time_point drain_deadline{};
    bool draining = false;
    char chunk[65536];
    for (;;) {
      if (conn.sender_done.load(std::memory_order_acquire)) {
        if (answered >= conn.sent.load(std::memory_order_acquire)) break;
        if (!draining) {
          draining = true;
          drain_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                              std::chrono::duration<double>(kDrainSeconds));
        } else if (Clock::now() > drain_deadline) {
          break;
        }
      }
      pollfd pfd{conn.fd, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 10);
      if (ready <= 0) continue;
      const ssize_t got = ::read(conn.fd, chunk, sizeof chunk);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        break;
      }
      const double reply_s = seconds_between(t0, Clock::now());
      buffer.append(chunk, static_cast<std::size_t>(got));
      std::size_t begin = 0;
      for (std::size_t nl; (nl = buffer.find('\n', begin)) != std::string::npos;
           begin = nl + 1) {
        const std::string_view line(buffer.data() + begin, nl - begin);
        const std::string_view id = string_member(line, "id");
        char* end = nullptr;
        const long long number =
            id.size() > 1 ? std::strtoll(std::string(id.substr(1)).c_str(), &end, 10) : -1;
        const long long local = number - result.first_id;
        if (local < 0 || local >= static_cast<long long>(n) ||
            static_cast<std::size_t>(local) % conns_n != c) {
          ++conn.duplicates;
          continue;
        }
        RequestRecord& r = records[static_cast<std::size_t>(local)];
        if (++r.replies > 1) {
          ++conn.duplicates;
          r.good = false;
          continue;
        }
        r.reply_s = reply_s;
        ++answered;
        answered_total.fetch_add(1);
        if (line.find("\"ok\":true") == std::string_view::npos) {
          const std::string_view code = string_member(line, "code");
          ++conn.error_codes[code.empty() ? "unknown" : std::string(code)];
          continue;
        }
        r.good = r.feedback || valid_rpv(line, options.rpv_min, options.rpv_max);
        if (!r.good) ++conn.invalid;
      }
      buffer.erase(0, begin);
    }
  };

  {
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < conns_n; ++c) {
      threads.emplace_back(reader, c);
      threads.emplace_back(sender, c);
    }
    for (std::thread& t : threads) t.join();
  }
  for (auto& conn : conns) {
    ::close(conn->fd);
    result.duplicates += conn->duplicates;
    result.invalid += conn->invalid;
    for (const auto& [code, count] : conn->error_codes) result.error_codes[code] += count;
  }
  for (const RequestRecord& r : records) {
    if (r.send_s < 0.0) continue;
    ++result.sent;
    if (r.replies == 0) ++result.unanswered;
    if (r.good && r.replies == 1) ++result.good;
  }
  result.stopped_early = result.sent < n;
  return result;
}

int connect_unix(const std::string& path, double timeout_s) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof addr.sun_path) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(timeout_s));
  for (;;) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    if (Clock::now() > deadline) return -1;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

std::string request_reply(const std::string& socket_path, const std::string& line,
                          double timeout_s) {
  const int fd = connect_unix(socket_path, timeout_s);
  if (fd < 0) return {};
  const std::string out = line + "\n";
  std::string buffer;
  if (write_all(fd, out.data(), out.size())) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(timeout_s));
    char chunk[4096];
    while (buffer.find('\n') == std::string::npos && Clock::now() < deadline) {
      pollfd pfd{fd, POLLIN, 0};
      if (::poll(&pfd, 1, 10) <= 0) continue;
      const ssize_t got = ::read(fd, chunk, sizeof chunk);
      if (got <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(got));
    }
  }
  ::close(fd);
  const std::size_t nl = buffer.find('\n');
  return nl == std::string::npos ? std::string{} : buffer.substr(0, nl);
}

Daemon::Daemon(const std::string& exe, const std::vector<std::string>& args,
               const std::string& log_path) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) throw std::runtime_error("fork failed");
  if (pid_ == 0) {
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
    const int null = ::open("/dev/null", O_RDONLY);
    if (log >= 0) {
      ::dup2(log, STDOUT_FILENO);
      ::dup2(log, STDERR_FILENO);
    }
    if (null >= 0) ::dup2(null, STDIN_FILENO);
    ::execv(exe.c_str(), argv.data());
    ::_exit(127);
  }
}

Daemon::~Daemon() {
  if (pid_ > 0) {
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
  }
}

double Daemon::wait_ready(const std::string& socket_path, const std::string& probe,
                          double timeout_s) {
  const Clock::time_point start = Clock::now();
  while (seconds_between(start, Clock::now()) < timeout_s) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("daemon exited during start-up");
    }
    const std::string reply = request_reply(socket_path, probe, 1.0);
    if (reply.find("\"ok\":true") != std::string::npos) {
      return seconds_between(start, Clock::now());
    }
    if (!reply.empty()) throw std::runtime_error("daemon probe failed: " + reply);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("daemon not ready within timeout");
}

long Daemon::stop(const std::string& socket_path, double timeout_s) {
  if (pid_ <= 0) return 0;
  (void)request_reply(socket_path, R"({"op":"shutdown","id":"perfbench-stop"})", 1.0);
  const Clock::time_point start = Clock::now();
  int status = 0;
  rusage usage{};
  for (;;) {
    const pid_t done = ::wait4(pid_, &status, WNOHANG, &usage);
    if (done == pid_) break;
    if (seconds_between(start, Clock::now()) > timeout_s) {
      ::kill(pid_, SIGKILL);
      ::wait4(pid_, &status, 0, &usage);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  pid_ = -1;
  return usage.ru_maxrss;
}

}  // namespace perfbench
