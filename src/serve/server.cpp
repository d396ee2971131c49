#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <ostream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/contract.hpp"
#include "common/shutdown.hpp"
#include "common/strings.hpp"
#include "serve/fault_inject.hpp"

namespace mphpc::serve {

namespace {

/// A request line larger than this is rejected outright — the protocol's
/// objects are a few hundred bytes; a megabyte of "line" is a bug or an
/// attack, not a request.
constexpr std::size_t kMaxLineBytes = 1U << 20U;

/// A connection whose unsent reply bytes pass this has stopped reading
/// (thousands of replies behind); it is disconnected rather than buffered
/// without bound.
constexpr std::size_t kMaxOutboundBytes = 1U << 20U;

/// How long a drain keeps flushing replies to clients that read slowly
/// once everything queued is served; a client that never reads cannot
/// hang shutdown past this.
constexpr auto kDrainFlush = std::chrono::seconds(2);

/// Poll timeout while the queue is empty: the safety net for the
/// (pipe-less) latch install failure path (signals normally wake the
/// poll via the latch fd at once) and the idle heartbeat cadence.
constexpr int kIdleTickMs = 500;

}  // namespace

int listen_unix(const std::string& path) {
  sockaddr_un addr = {};
  if (path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + path);
  }
  ::unlink(path.c_str());
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error(std::string("serve: socket() failed: ") +
                             std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::copy(path.begin(), path.end(), addr.sun_path);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot listen on " + path + ": " + err);
  }
  return fd;
}

IntakeQueue::IntakeQueue(std::size_t capacity) : capacity_(capacity) {
  MPHPC_EXPECTS(capacity >= 1);
}

std::optional<Pending> IntakeQueue::push(Pending pending) {
  std::optional<Pending> victim;
  if (size() >= capacity_) {
    // Shed the OLDEST request from the lowest-priority non-empty lane: a
    // dropped feedback costs a little model freshness, a dropped predict
    // stalls a scheduler decision, and in either lane the oldest entry
    // is the one most likely past its deadline already. The client
    // learns immediately via the overload reply instead of waiting on a
    // queue that cannot keep up.
    std::deque<Pending>& lane = feedback_.empty() ? predict_ : feedback_;
    victim = std::move(lane.front());
    lane.pop_front();
  }
  if (pending.request.op == Op::kFeedback) {
    feedback_.push_back(std::move(pending));
  } else {
    predict_.push_back(std::move(pending));
  }
  return victim;
}

std::size_t IntakeQueue::pop_batch(std::size_t max, std::vector<Pending>& out) {
  std::size_t taken = 0;
  // Priority lane drains first. Feedback can only starve while the
  // predict lane stays saturated — exactly the overload regime in which
  // feedback is the designated sacrifice.
  for (std::deque<Pending>* lane : {&predict_, &feedback_}) {
    while (taken < max && !lane->empty()) {
      out.push_back(std::move(lane->front()));
      lane->pop_front();
      ++taken;
    }
  }
  return taken;
}

Server::Server(ServeCore& core, ServerOptions options, std::ostream* log)
    : core_(core),
      options_(std::move(options)),
      log_(log),
      pool_(options_.pool_threads),
      queue_(options_.queue_cap) {
  MPHPC_EXPECTS(options_.queue_cap >= 1 && options_.batch_max >= 1);
  MPHPC_EXPECTS(options_.deadline_ms >= 0 && options_.store_poll_s >= 0.0);
}

void Server::log_line(const std::string& message) {
  if (log_ == nullptr) return;
  *log_ << "[" << options_.log_tag << "] " << message << '\n';
  log_->flush();
}

int Server::run() {
  ShutdownLatch::instance().install();
  // A client that disconnects mid-reply must not kill the daemon.
  struct sigaction ignore_pipe = {};
  ignore_pipe.sa_handler = SIG_IGN;
  ::sigaction(SIGPIPE, &ignore_pipe, nullptr);

  // A borrowed listener is shared with sibling workers: accept() must
  // not block when a sibling wins the race for a connection poll() saw,
  // so the shared open file description goes nonblocking. Heartbeats
  // must never wedge the serve loop on a slow supervisor either.
  const bool borrowed_listener = options_.listen_fd >= 0;
  int listen_fd = options_.listen_fd;
  if (borrowed_listener) {
    (void)::fcntl(listen_fd, F_SETFL,
                  ::fcntl(listen_fd, F_GETFL, 0) | O_NONBLOCK);
  } else if (!options_.socket_path.empty()) {
    listen_fd = listen_unix(options_.socket_path);
  }
  if (options_.heartbeat_fd >= 0) {
    (void)::fcntl(options_.heartbeat_fd, F_SETFL,
                  ::fcntl(options_.heartbeat_fd, F_GETFL, 0) | O_NONBLOCK);
  }
  log_line(listen_fd < 0 ? "listening on stdin (stdio mode)"
           : borrowed_listener
               ? "listening on inherited fd " + std::to_string(listen_fd)
               : "listening on " + options_.socket_path);
  if (!core_.bootstrap_note().empty()) log_line(core_.bootstrap_note());
  log_line("serving generation " + std::to_string(core_.generation()) +
           " fingerprint " + core_.fingerprint());

  std::thread refitter([this] { refit_loop(); });
  serve_loop(listen_fd);
  {
    const std::lock_guard lock(refit_mutex_);
    stop_refit_ = true;
  }
  refit_cv_.notify_all();
  refitter.join();

  core_.flush();
  for (auto it = connections_.begin(); it != connections_.end();) {
    it = close_connection(it);
  }
  if (listen_fd >= 0 && !borrowed_listener) {
    // An inherited listener belongs to the supervisor (and to sibling
    // workers still accepting on it); only a listener we created gets
    // closed and its socket path unlinked.
    ::close(listen_fd);
    ::unlink(options_.socket_path.c_str());
  }
  log_line("drained; model generation " + std::to_string(core_.generation()) +
           " flushed");
  const ShutdownLatch& latch = ShutdownLatch::instance();
  return latch.requested() ? latch.exit_code() : 0;
}

void Server::serve_loop(int listen_fd) {
  ShutdownLatch& latch = ShutdownLatch::instance();
  if (listen_fd < 0) connections_.try_emplace(next_conn_id_++, 0, 1);
  std::vector<pollfd> fds;
  std::vector<std::uint64_t> ids;  // connection id of fds[conn_base + k]
  Clock::time_point flush_deadline = Clock::time_point::max();
  for (;;) {
    if (latch.requested()) begin_drain("signal");
    if (draining_ && queue_.empty()) {
      // Everything queued is served; flush what clients still read, for
      // at most kDrainFlush.
      if (flush_deadline == Clock::time_point::max()) {
        flush_deadline = Clock::now() + kDrainFlush;
      }
      const bool owed = std::any_of(
          connections_.begin(), connections_.end(),
          [](const auto& entry) { return !entry.second.outbound.empty(); });
      if (!owed || Clock::now() >= flush_deadline) return;
    }

    fds.clear();
    ids.clear();
    fds.push_back(pollfd{latch.wake_fd(), POLLIN, 0});
    const bool accepting = listen_fd >= 0 && !draining_;
    if (accepting) fds.push_back(pollfd{listen_fd, POLLIN, 0});
    const std::size_t conn_base = fds.size();
    for (const auto& [id, conn] : connections_) {
      // stdio's blocking fd 1 takes every flush whole, so POLLOUT on the
      // read fd only ever matters for sockets, where the two are one fd.
      const short in = draining_ || conn.eof ? 0 : POLLIN;
      const short out = conn.outbound.empty() ? 0 : POLLOUT;
      fds.push_back(pollfd{conn.in_fd, static_cast<short>(in | out), 0});
      ids.push_back(id);
    }
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()),
                             queue_.empty() ? kIdleTickMs : 0);
    if (ready < 0 && errno != EINTR) {
      log_line(std::string("poll failed: ") + std::strerror(errno));
      begin_drain("poll failure");
    }
    heartbeat();
    if (ready > 0) {
      if (accepting && (fds[1].revents & POLLIN) != 0) accept_client(listen_fd);
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const pollfd& pfd = fds[conn_base + k];
        if ((pfd.events & POLLIN) == 0 ||
            (pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) {
          continue;
        }
        // Only flush_connections() closes connections, so every polled
        // id is still present.
        read_connection(ids[k], connections_.at(ids[k]));
      }
    }
    serve_batch();
    flush_connections();
  }
}

void Server::heartbeat() {
  if (options_.heartbeat_fd < 0) return;
  // A beat asserts "the serve loop turned": a worker hung at accept or
  // wedged mid-request stops beating, and the supervisor's watchdog
  // takes it out.
  const char beat = '.';
  if (::write(options_.heartbeat_fd, &beat, 1) < 0) {
    // EAGAIN (supervisor slow to drain) and EPIPE (supervisor gone) are
    // both fine: the pipe's only job is edge-triggered liveness.
  }
}

void Server::accept_client(int listen_fd) {
  const int client = ::accept4(listen_fd, nullptr, nullptr, SOCK_NONBLOCK);
  if (client < 0) return;  // a sibling worker won the race
  // Fault point: a crash/hang here models a worker dying while admitting
  // a connection — the client sees a reset, never a half-served request.
  fault_point(FaultSite::kAccept);
  connections_.try_emplace(next_conn_id_++, client, client);
}

void Server::read_connection(std::uint64_t id, Connection& conn) {
  char buf[65536];
  const ssize_t n = ::read(conn.in_fd, buf, sizeof buf);
  if (n < 0 && (errno == EINTR || errno == EAGAIN)) return;
  if (n <= 0) {
    // EOF (or a read error, after which writes fail too): stop reading;
    // the connection closes once every reply it is owed went out. EOF on
    // stdin IS the shutdown request in stdio mode.
    conn.eof = true;
    if (conn.in_fd == 0) begin_drain("stdin EOF");
    return;
  }
  std::string_view chunk(buf, static_cast<std::size_t>(n));
  const auto reject_oversized = [&] {
    append_reply(conn,
                 error_reply("", "bad_request", "request line exceeds 1 MiB"));
  };

  if (conn.discarding) {
    // The rest of an oversized line is dropped, never buffered.
    const std::size_t nl = chunk.find('\n');
    if (nl == std::string_view::npos) return;
    conn.discarding = false;
    chunk.remove_prefix(nl + 1);
  }

  // Lines are framed by offset; only the newly read bytes are scanned for
  // newlines, and the consumed prefix is compacted away once per read.
  std::size_t line_start = 0;
  std::size_t nl = conn.buffer.size();
  conn.buffer.append(chunk);
  while ((nl = conn.buffer.find('\n', nl)) != std::string::npos) {
    const std::string_view line(conn.buffer.data() + line_start,
                                nl - line_start);
    if (line.size() > kMaxLineBytes) {
      reject_oversized();
    } else {
      handle_input_line(id, conn, line);
    }
    line_start = ++nl;
  }
  conn.buffer.erase(0, line_start);
  if (conn.buffer.size() > kMaxLineBytes) {
    reject_oversized();
    conn.buffer.clear();
    conn.discarding = true;
  }
}

void Server::handle_input_line(std::uint64_t id, Connection& conn,
                               std::string_view line) {
  if (trim(line).empty()) return;
  if (draining_) {
    append_reply(conn, error_reply("", "shutting_down", "daemon is draining"));
    return;
  }
  Pending pending;
  try {
    pending.request = parse_request(line);
  } catch (const std::exception& e) {
    append_reply(conn, error_reply("", "bad_request", e.what()));
    return;
  }
  if (pending.request.op == Op::kShutdown) {
    append_reply(conn, core_.handle_request(pending.request));
    begin_drain("shutdown request");
    return;
  }
  pending.conn = id;
  pending.arrival = Clock::now();
  ++conn.queued;
  enqueue(std::move(pending));
}

void Server::enqueue(Pending pending) {
  std::optional<Pending> victim = queue_.push(std::move(pending));
  core_.note_lane_depths(queue_.predict_depth(), queue_.feedback_depth());
  if (!victim.has_value()) return;
  const bool was_feedback = victim->request.op == Op::kFeedback;
  core_.note_shed(victim->request.op);
  const auto owner = connections_.find(victim->conn);
  if (owner == connections_.end()) return;
  --owner->second.queued;
  append_reply(owner->second,
               error_reply(victim->request.id, "overloaded",
                           was_feedback ? "queue full: oldest feedback shed"
                                        : "queue full: oldest predict shed"));
}

void Server::serve_batch() {
  if (queue_.empty()) return;
  std::vector<Pending> batch;
  batch.reserve(std::min(options_.batch_max, queue_.size()));
  (void)queue_.pop_batch(options_.batch_max, batch);
  core_.note_lane_depths(queue_.predict_depth(), queue_.feedback_depth());

  const Clock::time_point now = Clock::now();
  std::vector<Request> live;
  std::vector<Connection*> owners;  // map nodes: stable until erased
  bool saw_feedback = false;
  for (Pending& p : batch) {
    const auto it = connections_.find(p.conn);
    if (it == connections_.end()) {
      core_.note_dropped();  // its client was disconnected
      continue;
    }
    Connection& owner = it->second;
    if (options_.deadline_ms > 0 &&
        now - p.arrival > std::chrono::milliseconds(options_.deadline_ms)) {
      core_.note_deadline_expired();
      --owner.queued;
      append_reply(owner, error_reply(p.request.id, "deadline_exceeded",
                                      "request exceeded its serve deadline"));
      continue;
    }
    if (p.request.op == Op::kFeedback) saw_feedback = true;
    owners.push_back(&owner);
    live.push_back(std::move(p.request));
  }
  if (!live.empty()) {
    const std::vector<std::string> replies = core_.handle_requests(live, &pool_);
    for (std::size_t k = 0; k < replies.size(); ++k) {
      --owners[k]->queued;
      append_reply(*owners[k], replies[k]);
    }
  }
  if (saw_feedback && core_.refit_pending()) {
    {
      const std::lock_guard lock(refit_mutex_);
      refit_kick_ = true;
    }
    refit_cv_.notify_one();
  }
}

void Server::refit_loop() {
  const bool polling = options_.store_poll_s > 0.0;
  const auto poll_tick = std::chrono::duration<double>(options_.store_poll_s);
  for (;;) {
    {
      std::unique_lock lock(refit_mutex_);
      const auto woken = [this] { return stop_refit_ || refit_kick_; };
      if (polling) {
        // Wake on the poll tick even without a kick: a pure follower
        // (all its feedback shed, or a sibling holds the lease) must
        // still notice the leader's publishes.
        (void)refit_cv_.wait_for(lock, poll_tick, woken);
      } else {
        refit_cv_.wait(lock, woken);
      }
      refit_kick_ = false;
      if (stop_refit_) return;
    }
    try {
      if (polling && core_.follow_store()) {
        log_line("follow: loaded generation " +
                 std::to_string(core_.generation()) + " fingerprint " +
                 core_.fingerprint());
      }
      if (core_.run_refit(&pool_)) {
        log_line("refit: published generation " +
                 std::to_string(core_.generation()) + " fingerprint " +
                 core_.fingerprint());
      }
    } catch (const std::exception& e) {
      // A refit failure (e.g. disk full during persist) must not take the
      // serving path down: the old generation keeps serving.
      log_line(std::string("refit failed (serving continues): ") + e.what());
    }
  }
}

void Server::append_reply(Connection& conn, std::string_view reply) {
  // Fault point: kShortWrite truncates the reply to half its bytes (a
  // torn line the client's JSONL parser must reject), crash/hang model a
  // worker dying with the reply in flight.
  const FaultAction fault = FaultInjector::instance().at(FaultSite::kMidReply);
  FaultInjector::execute(fault);
  const std::size_t start = conn.outbound.size();
  conn.outbound.append(reply);
  conn.outbound += '\n';
  if (fault == FaultAction::kShortWrite) {
    conn.outbound.resize(start + (reply.size() + 1) / 2);
  }
}

void Server::flush_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& conn = it->second;
    std::size_t sent = 0;
    bool failed = false;
    while (sent < conn.outbound.size()) {
      const ssize_t n = ::write(conn.out_fd, conn.outbound.data() + sent,
                                conn.outbound.size() - sent);
      if (n < 0 && errno == EINTR) continue;
      if (n < 0) {
        failed = errno != EAGAIN;  // EPIPE et al.: the client is gone
        break;
      }
      sent += static_cast<std::size_t>(n);
    }
    conn.outbound.erase(0, sent);
    // Drop a client that is gone or stopped reading (its queued requests
    // are skipped unserved); close one that hung up once it is owed
    // nothing more.
    const bool owed = conn.queued > 0 || !conn.outbound.empty();
    if (failed || conn.outbound.size() > kMaxOutboundBytes ||
        (conn.eof && !owed)) {
      it = close_connection(it);
    } else {
      ++it;
    }
  }
}

Server::Connections::iterator Server::close_connection(
    Connections::iterator it) {
  if (it->second.in_fd > 2) {
    ::close(it->second.in_fd);
  } else {
    // The stdio fds are borrowed, never closed; without them there is
    // nothing left to serve.
    begin_drain("stdio closed");
  }
  return connections_.erase(it);
}

void Server::begin_drain(const char* why) {
  if (draining_) return;
  draining_ = true;
  log_line(std::string("draining (") + why + ")");
}

}  // namespace mphpc::serve
