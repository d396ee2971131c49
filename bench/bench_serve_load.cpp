// bench_serve_load — loopback load generator for `mphpc serve`.
//
// --socket PATH hammers an already-running daemon (typically the
// `--workers N` supervised fleet in the CI fleet smoke) from closed-loop
// client threads mixing predict and feedback traffic, and prints one
// JSON object with latency percentiles, throughput and client-visible
// errors. Serve latency is measured by perfbench (`serve_p50_ms`), not
// here.
//
//   bench_serve_load --socket PATH [--requests N] [--clients C]
//                    [--feedback-every K]
//
// --emit-jsonl FILE [--predicts P] [--feedbacks F] instead writes the
// request corpus as a JSONL session (predict lines then feedback lines,
// no shutdown) for the CI serve smoke to pipe into the daemon.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "arch/system_catalog.hpp"
#include "common/json_writer.hpp"
#include "common/timer.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace {

using namespace mphpc;

/// One (app, input) pair profiled on every system: a predict line per
/// system plus a feedback line carrying all four measured times.
struct Corpus {
  std::vector<std::string> predicts;
  std::vector<std::string> feedbacks;
};

void profile_json(JsonWriter& w, const sim::RunProfile& p) {
  w.begin_object("profile");
  w.field("app", p.app);
  w.field("system", arch::to_string(p.system));
  w.field("scale", workload::to_string(p.config.scale_class));
  w.field("nodes", p.config.nodes);
  w.field("ranks", p.config.ranks);
  w.field("cores", p.config.cores);
  w.field("gpus", p.config.gpus);
  w.field("device", arch::to_string(p.device));
  w.field("input_index", p.input_index);
  w.field("input_scale", p.input_scale);
  w.field("time_s", p.time_s);
  w.begin_object("counters");
  for (const arch::CounterKind kind : arch::kAllCounterKinds) {
    w.field(arch::to_string(kind), sim::get(p.counters, kind));
  }
  w.end_object();
  w.end_object();
}

std::string request_id(char prefix, int id) {
  std::string s(1, prefix);
  s += std::to_string(id);
  return s;
}

std::string predict_line(const sim::RunProfile& p, int id) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "predict");
  w.field("id", request_id('p', id));
  profile_json(w, p);
  w.end_object();
  return w.str();
}

std::string feedback_line(const sim::RunProfile& p,
                          const std::array<double, arch::kNumSystems>& times,
                          int id) {
  JsonWriter w;
  w.begin_object();
  w.field("op", "feedback");
  w.field("id", request_id('f', id));
  profile_json(w, p);
  w.begin_object("times");
  for (const arch::SystemId sys : arch::kAllSystems) {
    w.field(arch::to_string(sys),
            times[static_cast<std::size_t>(sys)]);
  }
  w.end_object();
  w.end_object();
  return w.str();
}

Corpus build_corpus(int inputs_per_app, std::uint64_t seed) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const sim::Profiler profiler(seed);
  Corpus corpus;
  int id = 0;
  for (const workload::AppSignature& sig : apps.all()) {
    for (const auto& input : workload::make_inputs(sig, inputs_per_app, seed)) {
      std::array<double, arch::kNumSystems> times{};
      std::vector<sim::RunProfile> runs;
      for (const arch::SystemId sys : arch::kAllSystems) {
        runs.push_back(profiler.profile(sig, input,
                                        workload::ScaleClass::kOneNode,
                                        systems.get(sys)));
        times[static_cast<std::size_t>(sys)] = runs.back().time_s;
      }
      for (const sim::RunProfile& run : runs) {
        corpus.predicts.push_back(predict_line(run, id));
        corpus.feedbacks.push_back(feedback_line(run, times, id));
        ++id;
      }
    }
  }
  return corpus;
}

int connect_with_retry(const std::string& socket_path) {
  sockaddr_un addr = {};
  addr.sun_family = AF_UNIX;
  std::copy(socket_path.begin(), socket_path.end(), addr.sun_path);
  for (int attempt = 0; attempt < 200; ++attempt) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) ==
        0) {
      return fd;
    }
    ::close(fd);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return -1;
}

bool send_line(int fd, const std::string& line) {
  std::string out = line + "\n";
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_line(int fd, std::string& buffer, std::string& line) {
  for (;;) {
    const std::size_t pos = buffer.find('\n');
    if (pos != std::string::npos) {
      line = buffer.substr(0, pos);
      buffer.erase(0, pos + 1);
      return true;
    }
    char chunk[16384];
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

struct ClientResult {
  std::vector<double> latency_ms;
  long long ok = 0;
  long long errors = 0;
  long long resets = 0;  ///< connections lost mid-request and re-dialed
};

/// Closed-loop client: sends its assigned request lines one at a time and
/// times each round trip. Every `feedback_every`-th request is a feedback
/// so the daemon refits and hot-swaps while predicts are in flight.
///
/// A connection reset (a supervised worker SIGKILLed with this client's
/// request in flight) is NOT an error: the client re-dials — the
/// supervisor's socket stays live across worker deaths — and retries the
/// same request. Only a reply that arrives and is wrong, or a daemon
/// that stops answering entirely, counts against `errors`.
ClientResult run_client(const std::string& socket_path, const Corpus& corpus,
                        int requests, int feedback_every, int offset) {
  ClientResult result;
  int fd = connect_with_retry(socket_path);
  if (fd < 0) {
    result.errors = requests;
    return result;
  }
  std::string buffer;
  std::string reply;
  result.latency_ms.reserve(static_cast<std::size_t>(requests));
  for (int i = 0; i < requests; ++i) {
    const int global = offset + i;
    const bool feedback = feedback_every > 0 && global % feedback_every == 0;
    const auto& lines = feedback ? corpus.feedbacks : corpus.predicts;
    const std::string& line =
        lines[static_cast<std::size_t>(global) % lines.size()];
    bool answered = false;
    for (int attempt = 0; attempt < 5 && !answered; ++attempt) {
      const Timer timer;
      if (send_line(fd, line) && read_line(fd, buffer, reply)) {
        result.latency_ms.push_back(timer.millis());
        answered = true;
        break;
      }
      ::close(fd);
      buffer.clear();  // a dead worker's partial reply is garbage
      ++result.resets;
      fd = connect_with_retry(socket_path);
      if (fd < 0) {
        result.errors += requests - i;
        return result;
      }
    }
    if (!answered) {
      ++result.errors;
      continue;
    }
    if (reply.find("\"ok\":true") != std::string::npos) {
      ++result.ok;
    } else {
      ++result.errors;
    }
  }
  ::close(fd);
  return result;
}

double percentile(std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(idx, sorted.size() - 1)];
}

int emit_jsonl(const std::string& path, int predicts, int feedbacks) {
  const Corpus corpus = build_corpus(/*inputs_per_app=*/2, /*seed=*/11);
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return 1;
  }
  for (int i = 0; i < predicts; ++i) {
    out << corpus.predicts[static_cast<std::size_t>(i) % corpus.predicts.size()]
        << '\n';
  }
  for (int i = 0; i < feedbacks; ++i) {
    out << corpus.feedbacks[static_cast<std::size_t>(i) %
                            corpus.feedbacks.size()]
        << '\n';
  }
  std::fprintf(stderr, "wrote %d predicts + %d feedbacks to %s\n", predicts,
               feedbacks, path.c_str());
  return 0;
}

/// Hammers an already-running daemon (typically the
/// `--workers N` supervised fleet) on `socket_path`. The caller owns the
/// daemon's lifecycle — no shutdown is sent — so ci.sh can kill -9 a
/// worker mid-load and assert the client-visible outcome: every request
/// answered correctly or with an explicit error code, resets absorbed by
/// re-dialing, zero silent drops.
int run_socket(const std::string& socket_path, int requests, int clients,
                 int feedback_every) {
  const Corpus corpus = build_corpus(/*inputs_per_app=*/2, /*seed=*/11);
  std::fprintf(stderr, "running %d requests over %d clients against %s...\n",
               requests, clients, socket_path.c_str());
  const Timer wall;
  std::vector<ClientResult> results(static_cast<std::size_t>(clients));
  {
    std::vector<std::thread> workers;
    const int share = requests / clients;
    for (int c = 0; c < clients; ++c) {
      const int n = c == clients - 1 ? requests - share * (clients - 1) : share;
      workers.emplace_back([&, c, n] {
        results[static_cast<std::size_t>(c)] =
            run_client(socket_path, corpus, n, feedback_every, c * share);
      });
    }
    for (std::thread& w : workers) w.join();
  }
  const double elapsed_s = wall.seconds();

  std::vector<double> latencies;
  long long ok = 0;
  long long errors = 0;
  long long resets = 0;
  for (const ClientResult& r : results) {
    latencies.insert(latencies.end(), r.latency_ms.begin(), r.latency_ms.end());
    ok += r.ok;
    errors += r.errors;
    resets += r.resets;
  }
  std::sort(latencies.begin(), latencies.end());

  JsonWriter json;
  json.begin_object();
  json.begin_object("config");
  json.field("socket", socket_path);
  json.field("requests", requests);
  json.field("clients", clients);
  json.field("feedback_every", feedback_every);
  json.end_object();
  json.begin_object("results");
  json.field("elapsed_s", elapsed_s);
  json.field("throughput_rps", static_cast<double>(ok + errors) / elapsed_s);
  json.field("ok", ok);
  json.field("errors", errors);
  json.field("resets", resets);
  json.begin_object("latency_ms");
  json.field("p50", percentile(latencies, 0.50));
  json.field("p90", percentile(latencies, 0.90));
  json.field("p99", percentile(latencies, 0.99));
  json.field("max", latencies.empty() ? 0.0 : latencies.back());
  json.end_object();
  json.end_object();
  json.end_object();
  std::printf("%s\n", json.str().c_str());
  return errors == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string emit_path;
  std::string socket_path;
  int requests = 2000;
  int clients = 4;
  int feedback_every = 16;
  int predicts = 8;
  int feedbacks = 16;
  const auto usage = [&] {
    std::fprintf(stderr,
                 "usage: %s --socket PATH [--requests N] [--clients C] "
                 "[--feedback-every K] | --emit-jsonl FILE [--predicts P] "
                 "[--feedbacks F]\n",
                 argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (arg == "--emit-jsonl") emit_path = next();
    else if (arg == "--socket") socket_path = next();
    else if (arg == "--requests") requests = std::atoi(next());
    else if (arg == "--clients") clients = std::atoi(next());
    else if (arg == "--feedback-every") feedback_every = std::atoi(next());
    else if (arg == "--predicts") predicts = std::atoi(next());
    else if (arg == "--feedbacks") feedbacks = std::atoi(next());
    else return usage();
  }
  if (!emit_path.empty()) return emit_jsonl(emit_path, predicts, feedbacks);
  if (socket_path.empty()) return usage();
  if (requests < 1 || clients < 1 || clients > requests) {
    std::fprintf(stderr, "bad --requests/--clients\n");
    return 2;
  }
  return run_socket(socket_path, requests, clients, feedback_every);
}
