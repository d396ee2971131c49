// Event-driven multi-resource FCFS + EASY-backfilling scheduler
// (paper Algorithm 1), with optional fault injection.
//
// All jobs are submitted at t = 0 (a batch workload, as in the paper's
// 50,000-job experiment) unless Job::submit_s says otherwise. At every
// event time the scheduler:
//   1. starts queue-head jobs while their assigned machine has room;
//   2. if the head is blocked, reserves it at the earliest time its
//      assigned machine can fit it (the shadow time);
//   3. backfills later queued jobs that can start immediately without
//      delaying the head's reservation (classic EASY: a backfill on the
//      reserved machine must either finish before the shadow time or fit
//      in the nodes left over at it). The backfill scan depth is bounded,
//      as production schedulers do.
// Runtime estimates are exact (the simulation knows each job's runtime),
// which is the paper's setting: observed runtimes drive the simulation.
//
// With a FaultTrace (sched/faults.hpp) the event loop additionally
// replays node-down/node-up events (a down shrinks the machine's free
// pool, killing the latest-finishing running job when no node is idle)
// and per-attempt random job kills. Killed jobs are resubmitted with
// capped exponential backoff until RetryPolicy::max_attempts is
// exhausted, after which they are abandoned. Replaying FaultTrace::none()
// reproduces the fault-free simulation bit-identically.
#pragma once

#include <vector>

#include "sched/assigners.hpp"
#include "sched/checkpoint.hpp"
#include "sched/faults.hpp"
#include "sched/job.hpp"
#include "sched/machine.hpp"

namespace mphpc::sched {

/// Which backfill pass simulate()'s one event engine runs. The engine
/// (calendar event queues with an explicit (time, kind, seq) total order,
/// an FCFS queue indexed by (width, assigner state key), O(1)-amortised
/// event handling, built for 10^6-job traces) is the same for both.
///
/// kCalendar takes the indexed pass, which skips job classes that cannot
/// start on any machine their assign() call can reach. kReference takes
/// the full rescan, which calls assign() on every queued job behind the
/// blocked head; it is kept as the oracle the indexed pass is tested
/// against. Both give bit-identical SimulationResults (bounded-depth
/// stateless runs aside; see backfill_depth), kReference just does more
/// work.
enum class SimEngineKind { kCalendar, kReference };

struct SchedulerOptions {
  /// Maximum queued jobs examined per backfill pass. The paper's
  /// Algorithm 1 scans the whole queue; production schedulers often cap
  /// the scan. 0 means unlimited (the default, matching the paper).
  /// The full rescan stops at the depth-th job after the head. The
  /// indexed pass counts by one of two rules:
  ///   - stateless assigner (MachineAssigner::state_keys() == 0): only
  ///     candidates it visits count, i.e. those that fit a machine the
  ///     call can reach. Bounded-depth Round-Robin therefore counts only
  ///     candidates that fit its current target machine, and so sees
  ///     deeper than the full rescan; no CLI or bench runs Round-Robin
  ///     with a depth.
  ///   - stateful assigner: the pass stops where the full rescan does,
  ///     at the depth-th job after the head, so both passes give
  ///     identical results.
  int backfill_depth = 0;
  /// Per-job checkpoint/restart policy. The default (interval 0) keeps
  /// the restart-from-zero behaviour bit-identically.
  CheckpointPolicy checkpoint{};
  /// Optional per-attempt policy source (per-app tiers, adaptive
  /// Young/Daly, ...). When set it overrides `checkpoint`. The planner is
  /// mutated during the run (it observes failures in simulated-time
  /// order), so pass a fresh instance per simulate() call and never share
  /// one across concurrent simulations.
  CheckpointPlanner* planner = nullptr;
  SimEngineKind engine = SimEngineKind::kCalendar;
};

struct SimulationResult {
  /// Time the last job finalized (completed, or was abandoned).
  double makespan_s = 0.0;
  double avg_bounded_slowdown = 0.0;  ///< bound tau = 10 s; completed jobs
  double avg_wait_s = 0.0;            ///< completed jobs only
  /// Node-seconds of work committed per machine (utilization numerator;
  /// completed attempts only). With checkpointing enabled this counts
  /// pure work; checkpoint writes land in
  /// checkpoint_overhead_node_seconds instead.
  std::array<double, arch::kNumSystems> node_seconds{};
  /// Node-seconds of partial work discarded by kills, per machine. With
  /// checkpointing enabled each kill loses at most one interval of work.
  std::array<double, arch::kNumSystems> lost_node_seconds{};
  /// Node-seconds of capacity offline (failed, not yet repaired), per
  /// machine, accumulated over [0, makespan_s].
  std::array<double, arch::kNumSystems> downtime_node_seconds{};
  /// Node-seconds spent writing checkpoints, per machine (both completed
  /// and killed attempts). Zero when the policy is disabled.
  std::array<double, arch::kNumSystems> checkpoint_overhead_node_seconds{};
  /// Node-seconds of killed-attempt work preserved by checkpoints, per
  /// machine: occupied time that later attempts did not have to redo.
  /// Zero when the policy is disabled.
  std::array<double, arch::kNumSystems> recovered_node_seconds{};
  long long checkpoints_written = 0;  ///< completed checkpoint writes
  long long jobs_killed = 0;     ///< kill events (node failures + random)
  long long total_retries = 0;   ///< resubmissions after kills
  std::size_t completed_jobs = 0;
  std::size_t abandoned_jobs = 0;
  std::vector<JobOutcome> outcomes;  ///< indexed like the input jobs
};

/// Runs the fault-free simulation. Jobs must all fit on at least the
/// machine each strategy assigns them to (every machine in the default
/// cluster has >= 2 nodes, so any 1-2 node job fits eventually).
[[nodiscard]] SimulationResult simulate(const std::vector<Job>& jobs,
                                        const std::vector<Machine>& machines,
                                        MachineAssigner& assigner,
                                        const SchedulerOptions& options = {});

/// Runs the simulation replaying `faults`. Passing FaultTrace::none()
/// is exactly the overload above.
[[nodiscard]] SimulationResult simulate(const std::vector<Job>& jobs,
                                        const std::vector<Machine>& machines,
                                        MachineAssigner& assigner,
                                        const FaultTrace& faults,
                                        const SchedulerOptions& options = {});

/// Average bounded slowdown over the *completed* outcomes, bound tau
/// (seconds). Abandoned jobs are excluded; returns 0 when no job
/// completed (e.g. faults abandoned every job).
[[nodiscard]] double average_bounded_slowdown(const std::vector<JobOutcome>& outcomes,
                                              double tau = 10.0);

}  // namespace mphpc::sched
