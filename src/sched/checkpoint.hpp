// Checkpoint/restart model for the scheduling simulation.
//
// Without checkpointing, a killed attempt loses all of its partial work
// and the job restarts from zero (sched/faults.hpp). A CheckpointPolicy
// makes attempts durable: after every `interval_s` seconds of *work* the
// job spends `overhead_s` seconds of wall time writing a checkpoint, and
// a later kill resumes the job with
//   remaining = runtime - work saved by the last completed checkpoint
// instead of from scratch. The policy is a pure arithmetic model — it
// adds no randomness — so simulations stay bit-reproducible, and a
// zero-interval (disabled) policy leaves every code path's arithmetic
// exactly as the restart-from-zero scheduler (golden-tested).
//
// The classic interval choice is Young/Daly: for per-checkpoint cost C
// and mean time between failures M, the loss-minimising interval is
// approximately sqrt(2 C M). `young_daly_interval` implements it and
// `trace_node_mtbf_s` recovers the effective per-node MTBF of a
// pre-generated FaultTrace so the two can be composed.
#pragma once

#include <vector>

#include "sched/faults.hpp"
#include "sched/job.hpp"
#include "sched/machine.hpp"

namespace mphpc::sched {

/// Fixed-interval checkpointing with a constant per-checkpoint write cost.
/// interval_s counts *work* seconds (checkpoint writes do not advance the
/// job); interval_s == 0 disables checkpointing entirely.
struct CheckpointPolicy {
  double interval_s = 0.0;  ///< work seconds between checkpoint writes
  double overhead_s = 0.0;  ///< wall seconds per checkpoint write

  [[nodiscard]] bool enabled() const noexcept { return interval_s > 0.0; }

  /// Completed checkpoint writes during an attempt doing `work_s` seconds
  /// of work: one per full interval strictly before the attempt finishes
  /// (a checkpoint exactly at completion would save nothing).
  [[nodiscard]] long long checkpoints_during(double work_s) const noexcept;

  /// Wall-clock duration of an attempt doing `work_s` seconds of work:
  /// the work plus every checkpoint write. Returns `work_s` unchanged
  /// (same bits) when the policy is disabled.
  [[nodiscard]] double attempt_duration(double work_s) const noexcept;

  /// How a kill at `elapsed_s` wall seconds into an attempt of `work_s`
  /// seconds of work splits the occupied time. Always reconciles:
  /// saved + lost + overhead == elapsed (and lost <= interval_s when the
  /// policy is enabled).
  struct KillAccount {
    double saved_work_s = 0.0;     ///< durably checkpointed (recoverable)
    double lost_work_s = 0.0;      ///< executed but not yet checkpointed
    double overhead_paid_s = 0.0;  ///< wall spent writing checkpoints
    long long checkpoints = 0;     ///< completed checkpoint writes
  };
  [[nodiscard]] KillAccount account_kill(double elapsed_s, double work_s) const;
};

/// Chooses the checkpoint policy per attempt instead of one fixed policy
/// for the whole simulation. The engine calls begin() once at simulation
/// start, policy_for() for every attempt it starts, and
/// observe_node_failure() for every node-failure event it replays — all
/// strictly in simulated-time order, so a deterministic planner keeps the
/// simulation bit-reproducible. A planner instance accumulates
/// per-simulation state: create one per simulate() call and never share
/// an instance across concurrent simulations.
class CheckpointPlanner {
 public:
  virtual ~CheckpointPlanner() = default;

  /// Simulation start; `total_nodes` is the cluster-wide node inventory.
  virtual void begin(int total_nodes) { (void)total_nodes; }

  /// Policy for the next attempt of `job`, started at simulated time
  /// `now_s`. Must return a valid policy (non-negative interval/overhead).
  [[nodiscard]] virtual CheckpointPolicy policy_for(const Job& job,
                                                    double now_s) = 0;

  /// A node failure was replayed at `time_s`.
  virtual void observe_node_failure(double time_s) { (void)time_s; }
};

/// Adaptive Young/Daly: re-estimates the cluster's per-node MTBF online
/// from the failures observed so far and hands every new attempt the
/// sqrt(2 * C * MTBF) interval for the current estimate. The estimate is
/// Bayesian-flavoured: a prior MTBF with `prior_weight` pseudo-failures is
/// blended with the observed failure count over the elapsed node-time, so
/// early attempts are not whipsawed by the first few (or zero) failures.
class AdaptiveYoungDalyPlanner final : public CheckpointPlanner {
 public:
  /// `overhead_s` is the per-checkpoint write cost (0 disables
  /// checkpointing regardless of the estimate); `prior_mtbf_s` seeds the
  /// estimate before any failure is seen (<= 0 means "assume no failures"
  /// until one is observed).
  AdaptiveYoungDalyPlanner(double overhead_s, double prior_mtbf_s,
                           double prior_weight = 4.0);

  void begin(int total_nodes) override;
  [[nodiscard]] CheckpointPolicy policy_for(const Job& job,
                                            double now_s) override;
  void observe_node_failure(double time_s) override;

  /// Current per-node MTBF estimate at simulated time `now_s`
  /// (+infinity while nothing suggests failures happen at all).
  [[nodiscard]] double estimated_mtbf_s(double now_s) const;

  [[nodiscard]] long long observed_failures() const noexcept {
    return failures_;
  }

 private:
  double overhead_s_ = 0.0;
  double prior_mtbf_s_ = 0.0;
  double prior_weight_ = 4.0;
  double total_nodes_ = 0.0;
  long long failures_ = 0;
};

/// Young/Daly optimal checkpoint interval sqrt(2 * overhead_s * mtbf_s)
/// (the first-order optimum for overhead << MTBF). Requires both positive.
[[nodiscard]] double young_daly_interval(double overhead_s, double mtbf_s);

/// Effective per-node MTBF of a fault trace over [0, horizon_s): total
/// node-time divided by the number of node-failure events inside the
/// horizon. Random per-attempt job kills (trace.kill_probability) are not
/// time-based and are excluded. Returns +infinity when the trace has no
/// failures in the horizon.
[[nodiscard]] double trace_node_mtbf_s(const FaultTrace& trace,
                                       const std::vector<Machine>& machines,
                                       double horizon_s);

}  // namespace mphpc::sched
