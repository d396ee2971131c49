// Machine-assignment strategies (paper §VII): Round-Robin, Random,
// User+RR (GPU apps to GPU machines, round-robin within the class), and
// the Model-based strategy of Algorithm 2, which places each job on its
// predicted-fastest machine, falling back to the next-fastest while the
// preferred machine is full.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sched/job.hpp"
#include "sched/machine.hpp"

namespace mphpc::sched {

/// Set of machines as a bit mask over arch::SystemId (bit i = system i).
using MachineMask = std::uint32_t;
inline constexpr MachineMask kAnyMachine = (MachineMask{1} << arch::kNumSystems) - 1;
[[nodiscard]] constexpr MachineMask machine_bit(arch::SystemId id) noexcept {
  return MachineMask{1} << static_cast<unsigned>(id);
}

/// Strategy interface: `Machine(j, i, M)` in the paper's notation, where
/// `started_index` is the count of jobs started so far (the paper's i).
class MachineAssigner {
 public:
  virtual ~MachineAssigner() = default;

  [[nodiscard]] virtual arch::SystemId assign(const Job& job,
                                              std::size_t started_index,
                                              const ClusterView& view) = 0;

  /// Called once by the simulation engine with the full job list before
  /// any assign() call. Assigners whose per-job preference is a pure
  /// function of the job (Model-based, Oracle) memoize it here, so
  /// repeated backfill passes replay a cached ordering instead of
  /// re-deriving it. Default: no-op.
  // lint:allow-next-line contract-coverage -- no-op default has no precondition
  virtual void prime(std::span<const Job> jobs) { (void)jobs; }

  // ---- What an assign() call touches -------------------------------
  // The scheduler's indexed backfill pass does not call assign() on a
  // candidate wider than the free count of every machine reachable() says
  // the call could return: the call would be rejected anyway. Its side
  // effects are replayed instead. An assigner declares its per-call state
  // as independent counters ("state keys"): state_key(job) names the one a
  // call on `job` advances, and skip(key, n) advances it as if n calls had
  // been made and their results dropped. Keys must be independent — a
  // call on key k neither reads nor writes another key's counter — which
  // is what makes it exact for the pass to charge skipped calls lazily,
  // one key at a time, before the next call on that key. An assigner with
  // per-call state must override state_keys, state_key and skip; the
  // defaults declare a pure one.

  static constexpr std::size_t kNoStateKey = static_cast<std::size_t>(-1);

  /// Number of state keys, for the job set passed to the latest prime().
  /// 0 means assign() is pure.
  [[nodiscard]] virtual std::size_t state_keys() const noexcept { return 0; }

  /// The key a call on `job` advances (< state_keys()), or kNoStateKey
  /// when that call is pure. A pure function of the job after prime().
  [[nodiscard]] virtual std::size_t state_key(const Job& /*job*/) const {
    return kNoStateKey;
  }

  /// Advances key `key` as if n calls had been made and their results
  /// dropped. A pure assigner has no key, so the default always fails its
  /// precondition.
  virtual void skip(std::size_t key, std::size_t n);

  /// Machines a call on a job of key `key` (kNoStateKey for pure calls)
  /// can return at `started_index` under `view`, as a mask over
  /// arch::SystemId. Default: any machine.
  // lint:allow-next-line contract-coverage -- default returns every machine for any input
  [[nodiscard]] virtual MachineMask reachable(std::size_t /*key*/,
                                              std::size_t /*started_index*/,
                                              const ClusterView& /*view*/) const {
    return kAnyMachine;
  }

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Memoized per-job machine orderings. A job's predicted RPV and observed
/// runtimes never change during a simulation, so its fastest-first order
/// can be computed once at prime() time and replayed on every scheduling
/// and backfill pass. Jobs are keyed densely by Job::id; when ids are
/// negative or far sparser than the job count the cache stays disabled
/// (lookup() returns kUnknown) and the assigner computes per call — the
/// cache can only change cost, never results.
class JobOrderCache {
 public:
  using Order = std::array<arch::SystemId, arch::kNumSystems>;

  enum class State : std::uint8_t {
    kUnknown = 0,  ///< not primed / id outside the cache — compute per call
    kOrdered = 1,  ///< cached fastest-first order available
    kNoOrder = 2,  ///< primed, but this job bypasses the model path
  };

  /// Rebuilds the cache from a job list. `order_of` maps a job to its
  /// machine order, or nullopt for jobs that take a non-model path (e.g.
  /// an implausible RPV under the guarded assigner).
  void prime(std::span<const Job> jobs,
             const std::function<std::optional<Order>(const Job&)>& order_of);

  /// Looks up a job; on kOrdered, `*order` points at the cached order
  /// (valid until the next prime()).
  [[nodiscard]] State lookup(const Job& job, const Order** order) const noexcept;

  /// True when the latest prime() enabled the dense tables (every lookup
  /// of a primed job resolves to kOrdered or kNoOrder).
  [[nodiscard]] bool primed() const noexcept { return !states_.empty(); }

 private:
  std::vector<Order> orders_;
  std::vector<State> states_;
};

/// Rotates through the machines for each consecutive job.
class RoundRobinAssigner final : public MachineAssigner {
 public:
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  /// Only machines[started_index % M]: the choice ignores the job.
  [[nodiscard]] MachineMask reachable(std::size_t key, std::size_t started_index,
                                      const ClusterView& view) const override;
  [[nodiscard]] std::string name() const override { return "Round-Robin"; }
};

/// Uniformly random machine.
class RandomAssigner final : public MachineAssigner {
 public:
  explicit RandomAssigner(std::uint64_t seed) noexcept : rng_(seed) {}
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  /// One key: the RNG, which each call steps exactly once.
  [[nodiscard]] std::size_t state_keys() const noexcept override { return 1; }
  [[nodiscard]] std::size_t state_key(const Job& /*job*/) const override { return 0; }
  void skip(std::size_t key, std::size_t n) override;
  [[nodiscard]] std::string name() const override { return "Random"; }

 private:
  Rng rng_;
};

/// Mimics typical user behaviour: GPU-enabled apps round-robin over the
/// GPU systems, CPU-only apps round-robin over the CPU systems.
class UserRoundRobinAssigner final : public MachineAssigner {
 public:
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  /// Two keys: the GPU rotation (kGpuKey) and the CPU rotation (kCpuKey).
  static constexpr std::size_t kGpuKey = 0;
  static constexpr std::size_t kCpuKey = 1;
  [[nodiscard]] std::size_t state_keys() const noexcept override { return 2; }
  [[nodiscard]] std::size_t state_key(const Job& job) const override {
    return job.gpu_capable ? kGpuKey : kCpuKey;
  }
  void skip(std::size_t key, std::size_t n) override;
  /// The GPU pair for kGpuKey, the CPU pair for kCpuKey.
  [[nodiscard]] MachineMask reachable(std::size_t key, std::size_t started_index,
                                      const ClusterView& view) const override;
  [[nodiscard]] std::string name() const override { return "User+RR"; }

 private:
  std::size_t gpu_next_ = 0;
  std::size_t cpu_next_ = 0;
};

/// Algorithm 2: predicted-fastest machine, skipping full machines; if all
/// machines are full, the overall predicted-fastest (the job waits there).
class ModelBasedAssigner final : public MachineAssigner {
 public:
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  void prime(std::span<const Job> jobs) override;
  [[nodiscard]] std::string name() const override { return "Model-based"; }

 private:
  JobOrderCache cache_;
};

/// An upper-bound variant used in ablations: like Model-based but with
/// oracle knowledge of the true fastest machine.
class OracleAssigner final : public MachineAssigner {
 public:
  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  void prime(std::span<const Job> jobs) override;
  [[nodiscard]] std::string name() const override { return "Oracle"; }

 private:
  JobOrderCache cache_;
};

/// Degraded-mode Algorithm 2: validates each job's predicted RPV before
/// acting on it (finite, positive, within core::RpvGuardOptions bounds).
/// Implausible predictions — NaN/inf from a corrupt model, negative or
/// wildly out-of-range ratios — never reach the placement logic; the job
/// is placed by the user-preference heuristic instead and a fallback
/// counter is incremented, so one poisoned prediction cannot crash or
/// steer a long scheduling run.
class GuardedModelBasedAssigner final : public MachineAssigner {
 public:
  GuardedModelBasedAssigner() = default;
  explicit GuardedModelBasedAssigner(const core::RpvGuardOptions& bounds) noexcept
      : bounds_(bounds) {}

  [[nodiscard]] arch::SystemId assign(const Job& job, std::size_t started_index,
                                      const ClusterView& view) override;
  void prime(std::span<const Job> jobs) override;
  /// Pure once every primed job took the model path. Otherwise calls on
  /// implausible jobs go to the User+RR fallback and advance its keys;
  /// calls on plausible jobs stay pure (kNoStateKey).
  [[nodiscard]] std::size_t state_keys() const noexcept override {
    return primed_pure_ ? 0 : fallback_.state_keys();
  }
  [[nodiscard]] std::size_t state_key(const Job& job) const override;
  /// Forwards to the fallback and counts the skipped calls as fallbacks.
  void skip(std::size_t key, std::size_t n) override;
  [[nodiscard]] MachineMask reachable(std::size_t key, std::size_t started_index,
                                      const ClusterView& view) const override;
  [[nodiscard]] std::string name() const override { return "Model-based (guarded)"; }

  /// Calls answered by the fallback heuristic instead of the model,
  /// counting backfill candidates that were rejected or skipped.
  [[nodiscard]] long long fallbacks() const noexcept { return fallbacks_; }

 private:
  core::RpvGuardOptions bounds_{};
  UserRoundRobinAssigner fallback_;
  long long fallbacks_ = 0;
  bool primed_pure_ = false;
  JobOrderCache cache_;
};

}  // namespace mphpc::sched
