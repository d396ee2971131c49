// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded by the harness around its calls into each library
// layer (the library itself is not instrumented). A span has a name whose
// first dotted component is its layer ("ml.gbt_fit" -> ml), start and end
// in microseconds since the tracer was created, the index of its parent
// span (-1 for roots) and, for serve requests, the request id. Spans stay
// in memory until write_jsonl() at the end of the run.
//
// A span's self time is its duration minus the part of its interval that
// its children cover (the union of the child intervals). A layer's self
// time sums its spans, so concurrent spans (serve requests, the per-vCPU
// scheduler runs) add up to more than wall time: it is busy time.
#pragma once

#include <algorithm>
#include <chrono>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Span {
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
  int parent = -1;
  long long request = -1;  ///< serve request id, -1 elsewhere
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }
  [[nodiscard]] double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Opens a span under the innermost open one; -1 when disabled.
  int begin(std::string name) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), now_us(), 0.0, parent, -1});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  /// Adds an already-timed span (e.g. one serve request).
  void add(Span span) {
    if (enabled_) spans_.push_back(std::move(span));
  }

  /// Self time of every span, summed per layer, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds_by_layer() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_us, s.end_us);
      }
    }
    std::map<std::string, double> by_layer;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      auto& kids = children[i];
      std::sort(kids.begin(), kids.end());
      double covered = 0.0;
      double run_lo = 0.0;
      double run_hi = -1.0;
      for (const auto& [lo, hi] : kids) {
        if (lo > run_hi) {
          if (run_hi > run_lo) covered += run_hi - run_lo;
          run_lo = lo;
          run_hi = hi;
        } else {
          run_hi = std::max(run_hi, hi);
        }
      }
      if (run_hi > run_lo) covered += run_hi - run_lo;
      const Span& s = spans_[i];
      by_layer[layer_of(s.name)] += (s.end_us - s.start_us - covered) * 1e-6;
    }
    return by_layer;
  }

  /// One JSON object per line: name, start_us, end_us, parent, request.
  void write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\":\"" << s.name << "\",\"start_us\":" << s.start_us
          << ",\"end_us\":" << s.end_us << ",\"parent\":" << s.parent;
      if (s.request >= 0) out << ",\"request\":" << s.request;
      out << "}\n";
    }
  }

  [[nodiscard]] static std::string layer_of(const std::string& name) {
    return name.substr(0, name.find('.'));
  }

 private:
  bool enabled_;
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span that also times its scope whether or not tracing is on.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.begin(std::move(name))),
        start_(Tracer::Clock::now()) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { close(); }

  /// The span's index in the tracer (-1 when tracing is off).
  [[nodiscard]] int id() const noexcept { return id_; }

  /// Ends the span now; returns its duration in seconds.
  double close() {
    if (!closed_) {
      seconds_ = std::chrono::duration<double>(Tracer::Clock::now() - start_).count();
      tracer_.end(id_);
      closed_ = true;
    }
    return seconds_;
  }

 private:
  Tracer& tracer_;
  int id_;
  Tracer::Clock::time_point start_;
  double seconds_ = 0.0;
  bool closed_ = false;
};

}  // namespace perfbench
