#include "common/shutdown.hpp"

#include <atomic>
#include <csignal>

#include <fcntl.h>
#include <unistd.h>

namespace mphpc {

namespace {

// Handler state. Only async-signal-safe operations may touch these from
// the handler: lock-free atomic loads and stores and a write() on the
// pipe. Atomics (rather than volatile sig_atomic_t) also make the
// cross-thread accesses well-defined under TSan: the serve event loop
// polls g_signal from threads other than the one that took the signal,
// and request() may run on a thread other than the one that installed
// the pipe (the release/acquire pair orders the pipe's creation before
// the handler's write to it).
std::atomic<int> g_signal{0};
int g_wake_read = -1;
std::atomic<int> g_wake_write{-1};
bool g_installed = false;

extern "C" void shutdown_handler(int sig) {
  g_signal.store(sig, std::memory_order_relaxed);
  const int wake = g_wake_write.load(std::memory_order_acquire);
  if (wake >= 0) {
    const char byte = 1;
    // A full pipe just means earlier wake bytes are still pending; the
    // flag carries the information either way.
    [[maybe_unused]] const auto n = ::write(wake, &byte, 1);
  }
}

}  // namespace

ShutdownLatch& ShutdownLatch::instance() {
  static ShutdownLatch latch;
  return latch;
}

void ShutdownLatch::install() {
  if (g_installed) return;
  int fds[2] = {-1, -1};
  if (::pipe(fds) == 0) {
    // Non-blocking on both ends: the handler must never block, and a
    // drain loop reading leftover wake bytes must not hang.
    ::fcntl(fds[0], F_SETFL, O_NONBLOCK);
    ::fcntl(fds[1], F_SETFL, O_NONBLOCK);
    ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
    g_wake_read = fds[0];
    g_wake_write.store(fds[1], std::memory_order_release);
  }
  struct sigaction action = {};
  action.sa_handler = shutdown_handler;
  sigemptyset(&action.sa_mask);
  // SA_RESTART: code that has not opted into the latch (library reads,
  // getline) keeps working across the signal; latch-aware loops wake via
  // the self-pipe in their poll set instead of relying on EINTR.
  action.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
  g_installed = true;
}

bool ShutdownLatch::requested() const noexcept {
  return g_signal.load(std::memory_order_relaxed) != 0;
}

int ShutdownLatch::signal_number() const noexcept {
  return g_signal.load(std::memory_order_relaxed);
}

int ShutdownLatch::wake_fd() const noexcept { return g_wake_read; }

void ShutdownLatch::request(int sig) noexcept { shutdown_handler(sig); }

void ShutdownLatch::reset() noexcept {
  g_signal.store(0, std::memory_order_relaxed);
  if (g_wake_read >= 0) {
    char buf[16];
    while (::read(g_wake_read, buf, sizeof buf) > 0) {
    }
  }
}

}  // namespace mphpc
