// End-to-end integration tests: campaign -> dataset -> model -> scheduler,
// checking the qualitative findings of the paper hold on a reduced-size run.
#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "arch/system_catalog.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/importance.hpp"
#include "core/model_selection.hpp"
#include "core/predictor.hpp"
#include "ml/mean_regressor.hpp"
#include "ml/metrics.hpp"
#include "data/split.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/workload_gen.hpp"
#include "serve/json.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc {
namespace {

// Shared reduced-size pipeline state, built once for the suite.
class EndToEnd : public ::testing::Test {
 protected:
  struct State {
    workload::AppCatalog apps;
    arch::SystemCatalog systems;
    core::Dataset dataset;
    core::CrossArchPredictor predictor;
    data::TrainTestSplit split;
  };

  static const State& state() {
    static const State s = [] {
      workload::AppCatalog apps;
      arch::SystemCatalog systems;
      sim::CampaignOptions campaign;
      campaign.inputs_per_app = 8;
      auto profiles = sim::run_campaign(apps, systems, campaign);
      core::Dataset dataset = core::build_dataset(profiles);
      const auto split = data::train_test_split(dataset.num_rows(), 0.10, 42);
      core::CrossArchPredictor::Options options;
      options.gbt.n_rounds = 120;
      options.gbt.max_depth = 6;
      core::CrossArchPredictor predictor(options);
      predictor.train(dataset, split.train);
      return State{std::move(apps), std::move(systems), std::move(dataset),
                   std::move(predictor), split};
    }();
    return s;
  }
};

TEST_F(EndToEnd, DatasetHasExpectedShape) {
  EXPECT_EQ(state().dataset.num_rows(), 20u * 8u * 4u * 3u);
}

TEST_F(EndToEnd, ModelBeatsMeanBaselineSubstantially) {
  const auto& s = state();
  const auto x_test = s.dataset.features(s.split.test);
  const auto y_test = s.dataset.targets(s.split.test);
  const auto metrics = core::evaluate(y_test, s.predictor.predict(x_test));

  ml::MeanRegressor mean;
  mean.fit(s.dataset.features(s.split.train), s.dataset.targets(s.split.train));
  const auto mean_metrics = core::evaluate(y_test, mean.predict(x_test));

  // The paper reports ~82% improvement over the mean baseline.
  EXPECT_LT(metrics.mae, 0.5 * mean_metrics.mae);
  EXPECT_GT(metrics.sos, mean_metrics.sos);
}

TEST_F(EndToEnd, ImportanceReportIsWellFormed) {
  const auto& s = state();
  const auto names = core::Dataset::feature_column_names();
  const auto report = core::importance_report(s.predictor.model(), names);
  ASSERT_EQ(report.size(), names.size());
  double sum = 0.0;
  for (const auto& fi : report) {
    EXPECT_GE(fi.importance, 0.0);
    sum += fi.importance;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
  // In our reproduction the explicit placement features absorb the
  // CPU-vs-GPU signal the paper attributes to branch intensity (see
  // EXPERIMENTS.md F6): uses_gpu must rank at the very top.
  EXPECT_EQ(report[0].feature, "uses_gpu");
  // The CPU<->GPU placement block (uses_gpu + cores + arch one-hots)
  // carries the dominant share of total gain.
  double placement = 0.0;
  for (const auto& fi : report) {
    if (fi.feature == "uses_gpu" || fi.feature == "cores" ||
        fi.feature.rfind("arch_", 0) == 0) {
      placement += fi.importance;
    }
  }
  EXPECT_GT(placement, 0.5);
}

TEST_F(EndToEnd, PredictsGpuAppFasterOnGpuSystems) {
  const auto& s = state();
  const sim::Profiler profiler(777);
  const auto& app = s.apps.get("DeepCam");
  const auto inputs = workload::make_inputs(app, 1, 777);
  const auto profile = profiler.profile(app, inputs[0], workload::ScaleClass::kOneNode,
                                        s.systems.get("quartz"));
  const core::Rpv rpv = s.predictor.predict(profile);
  // A DL app profiled on a CPU node should be predicted faster on GPU nodes.
  EXPECT_LT(rpv.time_ratio(arch::SystemId::kLassen),
            rpv.time_ratio(arch::SystemId::kQuartz));
}

TEST_F(EndToEnd, SchedulingModelBasedBeatsRandomAndRoundRobin) {
  const auto& s = state();
  const auto predictions = s.predictor.predict(s.dataset.features());
  const auto jobs =
      sched::sample_jobs(s.dataset, predictions, s.apps, 4000, 99);
  const auto machines = sched::default_cluster(s.systems);

  sched::ModelBasedAssigner model_based;
  sched::RandomAssigner random(1);
  sched::RoundRobinAssigner round_robin;
  const auto r_model = sched::simulate(jobs, machines, model_based);
  const auto r_random = sched::simulate(jobs, machines, random);
  const auto r_rr = sched::simulate(jobs, machines, round_robin);

  EXPECT_LT(r_model.makespan_s, r_random.makespan_s);
  EXPECT_LT(r_model.makespan_s, r_rr.makespan_s);
  EXPECT_LE(r_model.avg_bounded_slowdown, r_random.avg_bounded_slowdown);
}

TEST_F(EndToEnd, CountersFromCpuSourcesPredictNoWorseThanGpu) {
  // Fig. 3 direction: CPU-sourced counters should be at least as good.
  const auto& s = state();
  const auto& systems = s.dataset.systems();
  const auto x = s.dataset.features();
  const auto y = s.dataset.targets();

  const auto eval_source = [&](const char* name) {
    std::vector<std::size_t> rows = data::rows_where(systems, name);
    const auto split_rows = data::train_test_split(rows.size(), 0.2, 5);
    std::vector<std::size_t> train;
    std::vector<std::size_t> test;
    for (const auto p : split_rows.train) train.push_back(rows[p]);
    for (const auto p : split_rows.test) test.push_back(rows[p]);
    ml::GbtOptions options;
    options.n_rounds = 80;
    options.max_depth = 5;
    ml::GbtRegressor model(options);
    model.fit(x.select_rows(train), y.select_rows(train));
    return ml::mean_absolute_error(y.select_rows(test),
                                   model.predict(x.select_rows(test)));
  };

  const double ruby = eval_source("ruby");
  const double corona = eval_source("corona");
  EXPECT_LT(ruby, corona * 1.3);  // CPU source competitive-or-better
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST_F(EndToEnd, TrainResumeAfterSigkillIsBitIdentical) {
  // Crash-safe training end to end: a child process is SIGKILLed mid-fit
  // (no destructors, no cleanup — the honest crash), then a resumed train
  // in this process must produce the byte-identical model file an
  // uninterrupted train writes.
  const auto& s = state();
  const std::string dir = ::testing::TempDir();
  const std::string reference_path = dir + "/mphpc_resume_reference.model";
  const std::string model_path = dir + "/mphpc_resume.model";
  const std::string ckpt_path = model_path + ".ckpt";
  for (const auto& p : {reference_path, model_path, ckpt_path,
                        ckpt_path + ".manifest"}) {
    std::filesystem::remove(p);
  }

  core::CrossArchPredictor::Options options;
  options.gbt.n_rounds = 160;
  options.gbt.max_depth = 6;

  core::CrossArchPredictor reference(options);
  reference.train(s.dataset, s.split.train);
  reference.save(reference_path);

  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    // Child: checkpoint every 2 rounds until killed. SIGKILL gives no
    // chance to flush anything — only completed atomic renames survive.
    core::CrossArchPredictor victim(options);
    victim.train_checkpointed(s.dataset, {ckpt_path, /*every=*/2, false, {}},
                              s.split.train);
    victim.save(model_path);
    _exit(0);
  }
  // Parent: the checkpoint file appearing (atomic rename) proves the
  // child is mid-fit with at least 2 rounds on disk; kill it then.
  while (!std::filesystem::exists(ckpt_path)) {
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, WNOHANG), 0)
        << "child finished before it could be killed; raise n_rounds";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(kill(pid, SIGKILL), 0);
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_FALSE(std::filesystem::exists(model_path));  // really interrupted
  ASSERT_TRUE(std::filesystem::exists(ckpt_path + ".manifest"));

  core::CrossArchPredictor resumed(options);
  resumed.train_checkpointed(s.dataset, {ckpt_path, /*every=*/2, /*resume=*/true, {}},
                             s.split.train);
  resumed.save(model_path);

  const std::string expected = read_file(reference_path);
  ASSERT_FALSE(expected.empty());
  EXPECT_EQ(read_file(model_path), expected);
  // Successful completion cleans up the checkpoint pair.
  EXPECT_FALSE(std::filesystem::exists(ckpt_path));
  EXPECT_FALSE(std::filesystem::exists(ckpt_path + ".manifest"));
}

TEST_F(EndToEnd, TrainResumeRejectsForeignCheckpoint) {
  // A checkpoint from a different configuration must not silently seed
  // the fit.
  const auto& s = state();
  const std::string dir = ::testing::TempDir();
  const std::string ckpt_path = dir + "/mphpc_foreign.model.ckpt";

  core::CrossArchPredictor::Options options;
  options.gbt.n_rounds = 20;
  options.gbt.max_depth = 4;
  core::CrossArchPredictor donor(options);
  donor.train(s.dataset, s.split.train);
  donor.save(ckpt_path);
  {
    std::ofstream manifest(ckpt_path + ".manifest");
    manifest << "mphpc-train-checkpoint v1\nrows 1\nfeatures 1\noptions bogus\n";
  }

  core::CrossArchPredictor resumed(options);
  EXPECT_THROW(resumed.train_checkpointed(
                   s.dataset, {ckpt_path, /*every=*/2, /*resume=*/true, {}},
                   s.split.train),
               std::runtime_error);
  std::filesystem::remove(ckpt_path);
  std::filesystem::remove(ckpt_path + ".manifest");
}

struct CliResult {
  int exit_code = -1;
  std::string output;  ///< stdout and stderr together
};

/// Runs the mphpc binary with `args` and collects its exit code and output.
CliResult run_cli(const std::string& args) {
  const std::string command = std::string(MPHPC_CLI_BIN) + " " + args + " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  CliResult result;
  if (pipe == nullptr) return result;
  std::array<char, 256> buffer{};
  while (std::fgets(buffer.data(), static_cast<int>(buffer.size()), pipe) != nullptr) {
    result.output += buffer.data();
  }
  const int status = ::pclose(pipe);
  if (WIFEXITED(status)) result.exit_code = WEXITSTATUS(status);
  return result;
}

TEST(Cli, RejectsUnknownFlagsAndMalformedNumbers) {
  // Each line must fail in argument parsing (exit 2, naming the flag)
  // before any dataset is built or daemon started.
  const std::pair<const char*, const char*> cases[] = {
      {"train --round 50", "--round"},           // typo of --rounds
      {"train --rounds abc", "--rounds"},        // not a number
      {"train --rounds 50x", "--rounds"},        // trailing garbage
      {"sched-scale --kill-prob 0.5.1", "--kill-prob"},
      {"train --out", "--out"},                  // missing value
      {"evaluate --checkpoint-every 2", "--checkpoint-every"},  // train-only
      {"train --tree-method exact", "--tree-method"},  // removed: GBT is hist
      {"serve --state-dir unused --quantize", "--quantize"},  // removed knob
      // Out of range: each would build a dataset before failing.
      {"sched-scale --jobs -1", "--jobs"},
      {"sched-scale --depth -3", "--depth"},     // 0 is unlimited, not negative
      {"sched-scale --kill-prob 1.5", "--kill-prob"},
      {"sched-faults --mttr-h -1", "--mttr-h"},
      {"train --bins 1", "--bins"},              // 0 is auto; 2..256 otherwise
      {"train --bins 257", "--bins"},
      {"train --rounds 0", "--rounds"},
      {"serve --state-dir unused --workers 0", "--workers"},
      {"sched-faults --node-mtbf-h inf", "--node-mtbf-h"},
  };
  for (const auto& [args, flag] : cases) {
    const CliResult r = run_cli(args);
    EXPECT_EQ(r.exit_code, 2) << args << "\n" << r.output;
    EXPECT_NE(r.output.find(flag), std::string::npos) << args << "\n" << r.output;
  }
}

// --------------------------------------------------------- serve intake ----

/// The daemon's request-line cap (kMaxLineBytes in serve/server.cpp).
constexpr std::size_t kMaxLineBytes = std::size_t{1} << 20U;

struct ServeRun {
  std::vector<serve::JsonValue> replies;
  double last_reply_s = 0.0;  ///< arrival of the last reply, after spawn
  long peak_rss_kb = 0;       ///< the child's ru_maxrss
  int exit_code = -1;
};

/// A fresh directory for one test, holding a tiny model for `mphpc serve`.
std::string serve_test_dir(const std::string& tag) {
  const std::string dir = ::testing::TempDir() + "/mphpc_intake_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const CliResult r = run_cli("train --inputs 2 --rounds 5 --depth 2 --out " +
                              dir + "/model.txt");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  return dir;
}

/// Runs `mphpc serve` in stdio mode with the file `input` as stdin until it
/// drains at EOF. A regular file hands the daemon full 64 KiB reads, so a
/// line ends in the same read on every run.
ServeRun run_stdio_serve(const std::string& dir, const std::string& input) {
  ServeRun run;
  int out[2];
  if (::pipe(out) != 0) return run;
  const std::string state = input + ".state";
  const std::string model = dir + "/model.txt";
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 0, input.c_str(), O_RDONLY, 0);
  posix_spawn_file_actions_adddup2(&actions, out[1], 1);
  posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  std::array<std::string, 6> args = {MPHPC_CLI_BIN, "serve", "--state-dir",
                                     state,         "--model", model};
  std::array<char*, 7> argv{};
  for (std::size_t i = 0; i < args.size(); ++i) argv[i] = args[i].data();
  const auto start = std::chrono::steady_clock::now();
  pid_t pid = -1;
  const int spawned =
      ::posix_spawn(&pid, MPHPC_CLI_BIN, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  if (spawned != 0) {
    ::close(out[0]);
    return run;
  }

  std::string pending;
  std::array<char, 4096> buf{};
  pollfd pfd{out[0], POLLIN, 0};
  while (::poll(&pfd, 1, 60'000) > 0) {
    const ssize_t n = ::read(out[0], buf.data(), buf.size());
    if (n <= 0) break;
    pending.append(buf.data(), static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
      run.replies.push_back(serve::JsonValue::parse(pending.substr(0, nl)));
      run.last_reply_s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
      pending.erase(0, nl + 1);
    }
  }
  ::close(out[0]);
  ::kill(pid, SIGKILL);  // no-op after a clean drain; ends a hung daemon
  int status = 0;
  rusage usage{};
  if (::wait4(pid, &status, 0, &usage) == pid && WIFEXITED(status)) {
    run.exit_code = WEXITSTATUS(status);
  }
  run.peak_rss_kb = usage.ru_maxrss;
  return run;
}

void write_filled(std::ofstream& out, char fill, std::size_t bytes) {
  const std::string block(64 * 1024, fill);
  for (; bytes >= block.size(); bytes -= block.size()) out << block;
  out << block.substr(0, bytes);
}

std::string string_field(const serve::JsonValue& reply, std::string_view key) {
  const auto* value = reply.find(key);
  return value != nullptr && value->is_string() ? value->as_string() : "";
}

std::size_t count_oversized(const ServeRun& run) {
  std::size_t n = 0;
  for (const auto& r : run.replies) {
    if (string_field(r, "error") == "request line exceeds 1 MiB") ++n;
  }
  return n;
}

bool is_stats_reply(const serve::JsonValue& reply, const std::string& id) {
  return string_field(reply, "op") == "stats" && string_field(reply, "id") == id;
}

TEST(ServeIntake, OversizedTailIsDroppedWithoutBufferingOrStalling) {
  // An oversized line, then 64 MiB more with no newline, then a request.
  // The daemon must neither buffer the tail nor rescan it on every read:
  // against a run without the tail, the request is answered less than 2 s
  // later and the peak RSS grows by less than 16 MB.
  const std::string dir = serve_test_dir("tail");
  const std::string stats = "{\"op\":\"stats\",\"id\":\"after\"}\n";
  for (const std::size_t tail_mib : {std::size_t{0}, std::size_t{64}}) {
    std::ofstream out(dir + "/in" + std::to_string(tail_mib), std::ios::binary);
    write_filled(out, 'x', kMaxLineBytes + 1024);
    out << '\n';
    write_filled(out, 'y', tail_mib << 20U);
    if (tail_mib > 0) out << '\n';
    out << stats;
  }
  const ServeRun base = run_stdio_serve(dir, dir + "/in0");
  const ServeRun tail = run_stdio_serve(dir, dir + "/in64");
  std::filesystem::remove_all(dir);

  for (const ServeRun* run : {&base, &tail}) {
    EXPECT_EQ(run->exit_code, 0);
    ASSERT_FALSE(run->replies.empty());
    EXPECT_TRUE(is_stats_reply(run->replies.back(), "after"));
  }
  EXPECT_EQ(count_oversized(base), 1u);
  EXPECT_EQ(count_oversized(tail), 2u);
  EXPECT_EQ(tail.replies.size(), 3u);
  EXPECT_LT(tail.last_reply_s - base.last_reply_s, 2.0);
  EXPECT_LT(tail.peak_rss_kb - base.peak_rss_kb, 16L * 1024L)
      << "base " << base.peak_rss_kb << " KB, tail " << tail.peak_rss_kb << " KB";
}

TEST(ServeIntake, LineOneByteOverTheCapIsRejectedWhenItEndsInOneRead) {
  // kMaxLineBytes + 1 bytes and the newline arrive in the same read. The
  // line is a valid request padded with spaces, so only the length check
  // can reject it; the next request is still served.
  const std::string dir = serve_test_dir("boundary");
  const std::string big = "{\"op\":\"stats\",\"id\":\"big\"}";
  {
    std::ofstream out(dir + "/in", std::ios::binary);
    out << big;
    write_filled(out, ' ', kMaxLineBytes + 1 - big.size());
    out << "\n{\"op\":\"stats\",\"id\":\"next\"}\n";
  }
  const ServeRun run = run_stdio_serve(dir, dir + "/in");
  std::filesystem::remove_all(dir);

  EXPECT_EQ(run.exit_code, 0);
  ASSERT_EQ(run.replies.size(), 2u);
  EXPECT_EQ(string_field(run.replies[0], "code"), "bad_request");
  EXPECT_EQ(count_oversized(run), 1u);
  EXPECT_TRUE(is_stats_reply(run.replies[1], "next"));
}

// ------------------------------------------------------ serve transport ----

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

/// Connects to the daemon's socket, retrying while it starts up.
int connect_socket(const std::string& path) {
  sockaddr_un addr{};
  if (path.size() >= sizeof addr.sun_path) return -1;
  addr.sun_family = AF_UNIX;
  std::copy(path.begin(), path.end(), addr.sun_path);
  for (int attempt = 0; attempt < 1000; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

/// Sends all of `data`; false when the peer is gone or stalls for 2 s.
bool send_all(int fd, std::string_view data) {
  while (!data.empty()) {
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 2000) <= 0) return false;
    const ssize_t n = ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) return false;
    data.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

/// Reads reply lines until `want` arrived, the peer closed, or it stayed
/// silent for `idle_ms`. `eof` reports whether the peer closed.
std::vector<std::string> read_lines(int fd, std::size_t want, int idle_ms,
                                    bool* eof = nullptr) {
  std::vector<std::string> lines;
  std::string pending;
  std::array<char, 65536> buf{};
  if (eof != nullptr) *eof = false;
  while (lines.size() < want) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, idle_ms) <= 0) break;
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n <= 0) {
      if (eof != nullptr) *eof = true;
      break;
    }
    pending.append(buf.data(), static_cast<std::size_t>(n));
    for (std::size_t nl; (nl = pending.find('\n')) != std::string::npos;) {
      lines.push_back(pending.substr(0, nl));
      pending.erase(0, nl + 1);
    }
  }
  return lines;
}

/// One request on a fresh connection; the reply line, or "" after 2 s.
std::string ask(const std::string& socket, const std::string& line) {
  const int fd = connect_socket(socket);
  if (fd < 0) return "";
  const auto lines = send_all(fd, line + "\n") ? read_lines(fd, 1, 2000)
                                               : std::vector<std::string>();
  ::close(fd);
  return lines.empty() ? "" : lines.front();
}

/// `mphpc serve --socket` as a child process; SIGKILLed and reaped on
/// scope exit unless the test already reaped it.
struct SocketDaemon {
  pid_t pid = -1;

  SocketDaemon(const std::string& dir, const std::string& socket) {
    std::array<std::string, 8> args = {
        MPHPC_CLI_BIN, "serve",   "--state-dir", dir + "/state",
        "--model",     dir + "/model.txt", "--socket", socket};
    std::array<char*, 9> argv{};
    for (std::size_t i = 0; i < args.size(); ++i) argv[i] = args[i].data();
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
    posix_spawn_file_actions_addopen(&actions, 2, "/dev/null", O_WRONLY, 0);
    if (::posix_spawn(&pid, MPHPC_CLI_BIN, &actions, nullptr, argv.data(),
                      environ) != 0) {
      pid = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  SocketDaemon(const SocketDaemon&) = delete;
  SocketDaemon& operator=(const SocketDaemon&) = delete;
  ~SocketDaemon() {
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
  }

  /// SIGTERMs the daemon and waits up to `timeout_ms` for it to exit;
  /// its exit code, or -1 when it is still running.
  int terminate(double timeout_ms) {
    const auto start = Clock::now();
    ::kill(pid, SIGTERM);
    int status = 0;
    while (ms_since(start) < timeout_ms) {
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        pid = -1;
        return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return -1;
  }
};

TEST(ServeTransport, NonReadingClientDoesNotStallOthers) {
  // Client A pipelines predicts and never reads. The daemon must drop A
  // once its unsent replies pass the outbound cap, keep serving other
  // clients meanwhile, still answer a half-closed client in full, and
  // drain promptly on SIGTERM.
  const std::string dir = serve_test_dir("transport");
  const std::string socket = dir + "/serve.sock";
  SocketDaemon daemon(dir, socket);
  ASSERT_GT(daemon.pid, 0);
  ASSERT_NE(ask(socket, R"({"op":"stats","id":"up"})"), "");

  const std::string predict =
      R"({"op":"predict","id":"p","profile":{"app":"CoMD","system":"quartz",)"
      R"("counters":{"total_instructions":1e9}}})"
      "\n";
  const int a = connect_socket(socket);
  ASSERT_GE(a, 0);
  std::string burst;
  for (int i = 0; i < 256; ++i) burst += predict;
  std::size_t a_sent = 0;
  bool a_dropped = false;
  while (a_sent < 200'000) {
    errno = 0;
    if (!send_all(a, burst)) {
      a_dropped = errno == EPIPE || errno == ECONNRESET;
      break;
    }
    a_sent += 256;
  }

  const int b = connect_socket(socket);
  ASSERT_GE(b, 0);
  const auto b_start = Clock::now();
  EXPECT_TRUE(send_all(b, predict));
  const auto b_reply = read_lines(b, 1, 2000);
  const double b_ms = ms_since(b_start);
  ::close(b);
  EXPECT_EQ(b_reply.size(), 1u) << "no reply to B within 2 s";
  if (!b_reply.empty()) {
    EXPECT_NE(b_reply.front().find("\"ok\":true"), std::string::npos)
        << b_reply.front();
  }
  EXPECT_LT(b_ms, 100.0);

  bool a_eof = false;
  const std::size_t a_received = read_lines(a, a_sent, 1000, &a_eof).size();
  ::close(a);
  EXPECT_TRUE(a_dropped) << "A stopped after " << a_sent
                         << " predicts without being disconnected";
  EXPECT_TRUE(a_eof);
  EXPECT_LT(a_received, a_sent);

  const std::string stats = ask(socket, R"({"op":"stats","id":"s"})");
  ASSERT_NE(stats, "");
  const serve::JsonValue stats_reply = serve::JsonValue::parse(stats);
  const auto* dropped = stats_reply.find("counters")->find("dropped");
  EXPECT_TRUE(dropped != nullptr && dropped->as_number() > 0.0) << stats;

  const int c = connect_socket(socket);
  ASSERT_GE(c, 0);
  std::string eight;
  for (int i = 0; i < 8; ++i) eight += predict;
  EXPECT_TRUE(send_all(c, eight));
  ::shutdown(c, SHUT_WR);
  bool c_eof = false;
  const auto c_replies = read_lines(c, 9, 2000, &c_eof);
  ::close(c);
  EXPECT_EQ(c_replies.size(), 8u);
  EXPECT_TRUE(c_eof);

  EXPECT_EQ(daemon.terminate(5000), 143) << "SIGTERM did not drain within 5 s";
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace mphpc
