// Tests for src/sched: assigners, the FCFS+EASY scheduler, fault
// injection, metrics.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <string>

#include "arch/system_catalog.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "sched/assigners.hpp"
#include "sched/checkpoint.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/event_queue.hpp"
#include "sched/faults.hpp"
#include "sched/machine.hpp"

namespace mphpc::sched {
namespace {

using arch::SystemId;

Job make_job(int id, double q, double r, double l, double c, int nodes = 1,
             bool gpu = false) {
  Job job;
  job.id = id;
  job.gpu_capable = gpu;
  job.nodes_required = nodes;
  job.runtime = {q, r, l, c};
  job.predicted = core::Rpv::relative_to(job.runtime, SystemId::kQuartz);
  return job;
}

std::vector<Machine> tiny_cluster(int q = 2, int r = 2, int l = 2, int c = 2) {
  return {{SystemId::kQuartz, q},
          {SystemId::kRuby, r},
          {SystemId::kLassen, l},
          {SystemId::kCorona, c}};
}

// ---------------------------------------------------------------- cluster ----

TEST(Machine, DefaultClusterMatchesSystemCatalog) {
  const arch::SystemCatalog catalog;
  const auto machines = default_cluster(catalog);
  ASSERT_EQ(machines.size(), 4u);
  for (const auto& m : machines) {
    EXPECT_EQ(m.total_nodes, catalog.get(m.id).nodes);
  }
}

TEST(ClusterView, ReportsOccupancy) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 0, 1, 2};
  const ClusterView view(machines, free);
  EXPECT_EQ(view.free_nodes(SystemId::kQuartz), 2);
  EXPECT_TRUE(view.is_full(SystemId::kRuby, 1));
  EXPECT_FALSE(view.is_full(SystemId::kLassen, 1));
  EXPECT_TRUE(view.is_full(SystemId::kLassen, 2));
  EXPECT_EQ(view.total_nodes(SystemId::kCorona), 2);
}

// --------------------------------------------------------------- assigners ----

TEST(RoundRobinAssigner, CyclesThroughMachines) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  RoundRobinAssigner assigner;
  const Job job = make_job(0, 1, 1, 1, 1);
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kQuartz);
  EXPECT_EQ(assigner.assign(job, 1, view), SystemId::kRuby);
  EXPECT_EQ(assigner.assign(job, 2, view), SystemId::kLassen);
  EXPECT_EQ(assigner.assign(job, 3, view), SystemId::kCorona);
  EXPECT_EQ(assigner.assign(job, 4, view), SystemId::kQuartz);
}

TEST(RandomAssigner, CoversAllMachinesDeterministically) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  RandomAssigner a(7);
  RandomAssigner b(7);
  std::array<int, 4> hits{};
  const Job job = make_job(0, 1, 1, 1, 1);
  for (int i = 0; i < 400; ++i) {
    const SystemId ma = a.assign(job, 0, view);
    EXPECT_EQ(ma, b.assign(job, 0, view));  // same seed, same stream
    hits[static_cast<std::size_t>(ma)]++;
  }
  for (const int h : hits) EXPECT_GT(h, 50);
}

TEST(UserRoundRobinAssigner, SeparatesGpuAndCpuJobs) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  UserRoundRobinAssigner assigner;
  const Job gpu_job = make_job(0, 1, 1, 1, 1, 1, /*gpu=*/true);
  const Job cpu_job = make_job(1, 1, 1, 1, 1, 1, /*gpu=*/false);
  EXPECT_EQ(assigner.assign(gpu_job, 0, view), SystemId::kLassen);
  EXPECT_EQ(assigner.assign(gpu_job, 1, view), SystemId::kCorona);
  EXPECT_EQ(assigner.assign(gpu_job, 2, view), SystemId::kLassen);
  EXPECT_EQ(assigner.assign(cpu_job, 3, view), SystemId::kQuartz);
  EXPECT_EQ(assigner.assign(cpu_job, 4, view), SystemId::kRuby);
}

TEST(ModelBasedAssigner, PicksPredictedFastest) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  ModelBasedAssigner assigner;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);  // lassen fastest
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kLassen);
}

TEST(ModelBasedAssigner, FallsBackWhenFull) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 0, 2};  // lassen full
  const ClusterView view(machines, free);
  ModelBasedAssigner assigner;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);  // lassen > ruby > corona > quartz
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kRuby);
}

TEST(ModelBasedAssigner, AllFullReturnsFastest) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {0, 0, 0, 0};
  const ClusterView view(machines, free);
  ModelBasedAssigner assigner;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kLassen);
}

TEST(OracleAssigner, UsesTrueRuntimes) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  OracleAssigner assigner;
  Job job = make_job(0, 1.0, 5.0, 2.0, 8.0);
  // Mislead the prediction; the oracle must ignore it.
  job.predicted = core::Rpv({5.0, 0.1, 2.0, 3.0});
  EXPECT_EQ(assigner.assign(job, 0, view), SystemId::kQuartz);
}

// --------------------------------------------------------------- scheduler ----

TEST(EasyScheduler, SingleJobRunsImmediately) {
  const auto machines = tiny_cluster();
  RoundRobinAssigner assigner;
  const std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.makespan_s, 10.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 0.0);
  EXPECT_EQ(result.outcomes[0].machine, SystemId::kQuartz);
}

TEST(EasyScheduler, SerializesWhenMachineSaturated) {
  // One machine with one node; all jobs forced onto quartz.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 1},
                                         {SystemId::kRuby, 1},
                                         {SystemId::kLassen, 1},
                                         {SystemId::kCorona, 1}};
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;
  const std::vector<Job> jobs = {make_job(0, 5, 5, 5, 5), make_job(1, 7, 7, 7, 7),
                                 make_job(2, 3, 3, 3, 3)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.makespan_s, 15.0);  // 5 + 7 + 3 in order
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 5.0);
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_s, 12.0);
}

TEST(EasyScheduler, BackfillsShortJobBehindBlockedHead) {
  // quartz has 2 nodes. Job0 (2 nodes, runs 10) occupies it. Job1 needs 2
  // nodes -> blocked, reserved at t=10. Job2 (1 node, runs 5) fits in the
  // spare-free window? No free nodes -> cannot. Instead: Job0 uses 1 node,
  // leaving 1 free; Job1 needs 2 (blocked); Job2 needs 1 and runs 5 <= 10.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 2},
                                         {SystemId::kRuby, 2},
                                         {SystemId::kLassen, 2},
                                         {SystemId::kCorona, 2}};
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;
  std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10, 1),
                           make_job(1, 4, 4, 4, 4, 2),
                           make_job(2, 5, 5, 5, 5, 1)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 0.0);
  // Head job 1 is blocked until job 0 finishes at t=10.
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 10.0);
  // Job 2 backfills at t=0 (ends at 5 <= shadow time 10, fits in 1 node).
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_s, 0.0);
  EXPECT_DOUBLE_EQ(result.makespan_s, 14.0);
}

TEST(EasyScheduler, BackfillDoesNotDelayReservation) {
  // Same setup, but the backfill candidate runs 20 s: starting it would
  // push job 1 past its reservation, so it must NOT backfill.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 2},
                                         {SystemId::kRuby, 2},
                                         {SystemId::kLassen, 2},
                                         {SystemId::kCorona, 2}};
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;
  std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10, 1),
                           make_job(1, 4, 4, 4, 4, 2),
                           make_job(2, 20, 20, 20, 20, 1)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 10.0);
  EXPECT_GE(result.outcomes[2].start_s, 10.0);  // had to wait
}

TEST(EasyScheduler, CrossMachineBackfillAllowed) {
  // Head blocked on quartz; a later job assigned to ruby starts right away.
  const std::vector<Machine> machines = {{SystemId::kQuartz, 1},
                                         {SystemId::kRuby, 1},
                                         {SystemId::kLassen, 1},
                                         {SystemId::kCorona, 1}};
  class Alternate final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job& job, std::size_t, const ClusterView&) override {
      return job.id == 2 ? SystemId::kRuby : SystemId::kQuartz;
    }
    std::string name() const override { return "alternate"; }
  } assigner;
  std::vector<Job> jobs = {make_job(0, 10, 10, 10, 10), make_job(1, 4, 4, 4, 4),
                           make_job(2, 6, 6, 6, 6)};
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_DOUBLE_EQ(result.outcomes[2].start_s, 0.0);
  EXPECT_EQ(result.outcomes[2].machine, SystemId::kRuby);
}

TEST(EasyScheduler, AllJobsComplete) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  RoundRobinAssigner assigner;
  std::vector<Job> jobs;
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 20), rng.uniform(1, 20),
                            rng.uniform(1, 20), rng.uniform(1, 20),
                            rng.bernoulli(0.3) ? 2 : 1));
  }
  const auto result = simulate(jobs, machines, assigner);
  EXPECT_EQ(result.outcomes.size(), jobs.size());
  for (const auto& o : result.outcomes) {
    EXPECT_GE(o.start_s, 0.0);
    EXPECT_GT(o.end_s, o.start_s);
  }
  EXPECT_GT(result.makespan_s, 0.0);
}

TEST(EasyScheduler, NodeCapacityNeverExceeded) {
  const auto machines = tiny_cluster(2, 2, 2, 2);
  RoundRobinAssigner assigner;
  std::vector<Job> jobs;
  Rng rng(6);
  for (int i = 0; i < 100; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 10), rng.uniform(1, 10),
                            rng.uniform(1, 10), rng.uniform(1, 10),
                            rng.bernoulli(0.4) ? 2 : 1));
  }
  const auto result = simulate(jobs, machines, assigner);
  // Sweep events per machine and verify concurrent node usage <= capacity.
  for (const auto& machine : machines) {
    std::vector<std::pair<double, int>> events;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      if (result.outcomes[j].machine != machine.id) continue;
      events.emplace_back(result.outcomes[j].start_s, jobs[j].nodes_required);
      events.emplace_back(result.outcomes[j].end_s, -jobs[j].nodes_required);
    }
    std::sort(events.begin(), events.end(),
              [](const auto& a, const auto& b) {
                // Releases before acquisitions at the same instant.
                return a.first != b.first ? a.first < b.first : a.second < b.second;
              });
    int in_use = 0;
    for (const auto& [t, delta] : events) {
      in_use += delta;
      EXPECT_LE(in_use, machine.total_nodes);
      EXPECT_GE(in_use, 0);
    }
  }
}

TEST(EasyScheduler, Deterministic) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  std::vector<Job> jobs;
  Rng rng(7);
  for (int i = 0; i < 100; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 9), rng.uniform(1, 9),
                            rng.uniform(1, 9), rng.uniform(1, 9)));
  }
  RandomAssigner a1(3);
  RandomAssigner a2(3);
  const auto r1 = simulate(jobs, machines, a1);
  const auto r2 = simulate(jobs, machines, a2);
  EXPECT_EQ(r1.makespan_s, r2.makespan_s);
  EXPECT_EQ(r1.avg_bounded_slowdown, r2.avg_bounded_slowdown);
}

TEST(EasyScheduler, OracleBeatsWorstCasePlacement) {
  // Jobs are 10x faster on lassen; an informed assigner must beat one that
  // always picks quartz.
  const auto machines = tiny_cluster(2, 2, 2, 2);
  std::vector<Job> jobs;
  for (int i = 0; i < 40; ++i) jobs.push_back(make_job(i, 20, 18, 2, 16));
  OracleAssigner oracle;
  const auto fast = simulate(jobs, machines, oracle);
  RoundRobinAssigner rr;
  const auto slow = simulate(jobs, machines, rr);
  EXPECT_LT(fast.makespan_s, slow.makespan_s);
}

TEST(BoundedSlowdown, ComputesBoundedRatio) {
  std::vector<JobOutcome> outcomes;
  // wait 10, run 10 -> slowdown 2.
  outcomes.push_back({SystemId::kQuartz, 10.0, 20.0});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 2.0);
  // Very short job: bound by tau=10 -> (90 + 1)/10 = 9.1.
  outcomes.clear();
  outcomes.push_back({SystemId::kQuartz, 90.0, 91.0});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 9.1);
}

TEST(BoundedSlowdown, NeverBelowOne) {
  std::vector<JobOutcome> outcomes;
  outcomes.push_back({SystemId::kQuartz, 0.0, 1.0});  // no wait, short run
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 1.0);
}

TEST(BoundedSlowdown, RejectsBadTau) {
  EXPECT_THROW(average_bounded_slowdown({}, 0.0), mphpc::ContractViolation);
}

TEST(BoundedSlowdown, EmptyAndAllAbandonedReturnZero) {
  EXPECT_DOUBLE_EQ(average_bounded_slowdown({}), 0.0);
  std::vector<JobOutcome> outcomes;
  outcomes.push_back({SystemId::kQuartz, 10.0, 20.0, 0.0, 4, /*abandoned=*/true});
  outcomes.push_back({SystemId::kRuby, 5.0, 6.0, 0.0, 4, /*abandoned=*/true});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 0.0);
}

TEST(BoundedSlowdown, SkipsAbandonedOutcomes) {
  std::vector<JobOutcome> outcomes;
  outcomes.push_back({SystemId::kQuartz, 10.0, 20.0});  // slowdown 2
  outcomes.push_back({SystemId::kRuby, 500.0, 501.0, 0.0, 4, /*abandoned=*/true});
  EXPECT_DOUBLE_EQ(average_bounded_slowdown(outcomes), 2.0);
}

// ------------------------------------------------------------ guarded RPV ----

TEST(GuardedModelBasedAssigner, FollowsModelWhenPlausible) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  GuardedModelBasedAssigner guarded;
  ModelBasedAssigner plain;
  const Job job = make_job(0, 10.0, 5.0, 2.0, 8.0);
  EXPECT_EQ(guarded.assign(job, 0, view), plain.assign(job, 0, view));
  EXPECT_EQ(guarded.fallbacks(), 0);
}

TEST(GuardedModelBasedAssigner, FallsBackOnImplausiblePredictions) {
  const auto machines = tiny_cluster();
  std::array<int, 4> free = {2, 2, 2, 2};
  const ClusterView view(machines, free);
  GuardedModelBasedAssigner assigner;

  Job nan_job = make_job(0, 10.0, 5.0, 2.0, 8.0);
  nan_job.predicted =
      core::Rpv({std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0, 1.0});
  // CPU-only job: the user-preference fallback starts at quartz.
  EXPECT_EQ(assigner.assign(nan_job, 0, view), SystemId::kQuartz);
  EXPECT_EQ(assigner.fallbacks(), 1);

  Job negative_job = make_job(1, 10.0, 5.0, 2.0, 8.0);
  negative_job.predicted = core::Rpv({1.0, -0.5, 1.0, 1.0});
  EXPECT_EQ(assigner.assign(negative_job, 1, view), SystemId::kRuby);
  EXPECT_EQ(assigner.fallbacks(), 2);

  Job huge_job = make_job(2, 10.0, 5.0, 2.0, 8.0, 1, /*gpu=*/true);
  huge_job.predicted = core::Rpv({1.0, 1.0, 1e9, 1.0});  // above max_ratio
  EXPECT_EQ(assigner.assign(huge_job, 2, view), SystemId::kLassen);
  EXPECT_EQ(assigner.fallbacks(), 3);

  // A plausible job afterwards goes back through the model path.
  const Job good_job = make_job(3, 10.0, 5.0, 2.0, 8.0);
  EXPECT_EQ(assigner.assign(good_job, 3, view), SystemId::kLassen);
  EXPECT_EQ(assigner.fallbacks(), 3);
}

// ------------------------------------------ assigner order memoization ----

void expect_results_identical(const SimulationResult& a, const SimulationResult& b);

// Re-keys a workload with ids far sparser than the job count, which keeps
// the JobOrderCache disabled (see assigners.hpp): the same jobs then take
// the compute-per-call path. Fault-free scheduling is otherwise
// id-independent, so memoized and unmemoized runs must agree exactly.
std::vector<Job> with_sparse_ids(std::vector<Job> jobs) {
  for (auto& job : jobs) job.id = job.id * 1'000'000 + 17;
  return jobs;
}

TEST(ModelBasedAssigner, PrimedAssignMatchesUnprimed) {
  const auto machines = tiny_cluster();
  std::vector<Job> jobs;
  Rng rng(31);
  for (int i = 0; i < 50; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 9), rng.uniform(1, 9),
                            rng.uniform(1, 9), rng.uniform(1, 9)));
  }
  ModelBasedAssigner primed;
  primed.prime(jobs);
  ModelBasedAssigner fresh;
  const std::array<std::array<int, 4>, 4> patterns = {
      {{2, 2, 2, 2}, {0, 2, 2, 2}, {2, 0, 0, 2}, {0, 0, 0, 0}}};
  for (const auto& free_nodes : patterns) {
    auto free = free_nodes;
    const ClusterView view(machines, free);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(primed.assign(jobs[i], i, view), fresh.assign(jobs[i], i, view));
    }
  }
}

TEST(ModelBasedAssigner, MemoizedSimulationGolden) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  std::vector<Job> jobs;
  Rng rng(32);
  for (int i = 0; i < 200; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.bernoulli(0.3) ? 2 : 1));
  }
  ModelBasedAssigner memoized;
  ModelBasedAssigner per_call;
  const auto a = simulate(jobs, machines, memoized);
  const auto b = simulate(with_sparse_ids(jobs), machines, per_call);
  expect_results_identical(a, b);
}

TEST(GuardedModelBasedAssigner, MemoizedSimulationGoldenWithFallbacks) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  std::vector<Job> jobs;
  Rng rng(33);
  for (int i = 0; i < 150; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 20), rng.uniform(1, 20),
                            rng.uniform(1, 20), rng.uniform(1, 20), 1,
                            rng.bernoulli(0.4)));
    if (i % 3 == 0) {
      // Poisoned prediction: must take the (stateful) fallback path, whose
      // round-robin counters have to advance identically with and without
      // the memoized plausibility verdict.
      jobs.back().predicted = core::Rpv({1.0, 1e9, 1.0, 1.0});
    }
  }
  GuardedModelBasedAssigner memoized;
  GuardedModelBasedAssigner per_call;
  const auto a = simulate(jobs, machines, memoized);
  const auto b = simulate(with_sparse_ids(jobs), machines, per_call);
  expect_results_identical(a, b);
  EXPECT_GT(memoized.fallbacks(), 0);
  EXPECT_EQ(memoized.fallbacks(), per_call.fallbacks());
}

// ------------------------------------------------------------ fault traces ----

TEST(FaultModel, GenerateIsDeterministicPerSeed) {
  const auto machines = tiny_cluster(8, 8, 8, 8);
  const RetryPolicy retry;
  const auto model_a = FaultModel::uniform(3600.0, 600.0, 0.1, retry, 42);
  const auto model_b = FaultModel::uniform(3600.0, 600.0, 0.1, retry, 42);
  const auto model_c = FaultModel::uniform(3600.0, 600.0, 0.1, retry, 43);
  const auto a = model_a.generate(machines, 50'000.0);
  const auto b = model_b.generate(machines, 50'000.0);
  const auto c = model_c.generate(machines, 50'000.0);

  ASSERT_EQ(a.events.size(), b.events.size());
  ASSERT_GT(a.events.size(), 0u);
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    EXPECT_EQ(a.events[i].time_s, b.events[i].time_s);
    EXPECT_EQ(a.events[i].machine, b.events[i].machine);
    EXPECT_EQ(a.events[i].delta, b.events[i].delta);
  }
  // A different seed must produce a different trace.
  bool differs = c.events.size() != a.events.size();
  for (std::size_t i = 0; !differs && i < a.events.size(); ++i) {
    differs = a.events[i].time_s != c.events[i].time_s;
  }
  EXPECT_TRUE(differs);
}

TEST(FaultModel, TraceIsWellFormed) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto model = FaultModel::uniform(1800.0, 900.0, 0.0, {}, 9);
  const auto trace = model.generate(machines, 40'000.0);
  ASSERT_GT(trace.events.size(), 0u);
  EXPECT_EQ(trace.events.size() % 2, 0u);  // downs pair with ups

  std::array<int, arch::kNumSystems> down{};
  double last_t = 0.0;
  for (const NodeEvent& e : trace.events) {
    EXPECT_GE(e.time_s, last_t);  // sorted
    last_t = e.time_s;
    auto& d = down[static_cast<std::size_t>(e.machine)];
    d -= e.delta;
    EXPECT_GE(d, 0);  // never repair a node that is not down
    EXPECT_LE(d, 3);  // never exceed the machine's inventory
  }
  for (const int d : down) EXPECT_EQ(d, 0);  // every down has its up
}

TEST(FaultModel, DisabledModelGeneratesEmptyTrace) {
  const auto machines = tiny_cluster();
  EXPECT_FALSE(FaultModel::none().enabled());
  const auto trace = FaultModel::none().generate(machines, 1e6);
  EXPECT_FALSE(trace.enabled());
  EXPECT_TRUE(trace.events.empty());
}

// -------------------------------------------------------- faulty scheduling ----

/// Field-by-field equality of two simulation results (bit-identical
/// doubles; == is exact).
void expect_results_identical(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.makespan_s, b.makespan_s);
  EXPECT_EQ(a.avg_bounded_slowdown, b.avg_bounded_slowdown);
  EXPECT_EQ(a.avg_wait_s, b.avg_wait_s);
  EXPECT_EQ(a.node_seconds, b.node_seconds);
  EXPECT_EQ(a.lost_node_seconds, b.lost_node_seconds);
  EXPECT_EQ(a.downtime_node_seconds, b.downtime_node_seconds);
  EXPECT_EQ(a.checkpoint_overhead_node_seconds, b.checkpoint_overhead_node_seconds);
  EXPECT_EQ(a.recovered_node_seconds, b.recovered_node_seconds);
  EXPECT_EQ(a.checkpoints_written, b.checkpoints_written);
  EXPECT_EQ(a.jobs_killed, b.jobs_killed);
  EXPECT_EQ(a.total_retries, b.total_retries);
  EXPECT_EQ(a.completed_jobs, b.completed_jobs);
  EXPECT_EQ(a.abandoned_jobs, b.abandoned_jobs);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t j = 0; j < a.outcomes.size(); ++j) {
    EXPECT_EQ(a.outcomes[j].machine, b.outcomes[j].machine);
    EXPECT_EQ(a.outcomes[j].start_s, b.outcomes[j].start_s);
    EXPECT_EQ(a.outcomes[j].end_s, b.outcomes[j].end_s);
    EXPECT_EQ(a.outcomes[j].attempts, b.outcomes[j].attempts);
    EXPECT_EQ(a.outcomes[j].abandoned, b.outcomes[j].abandoned);
  }
}

std::vector<Job> random_workload(int n, std::uint64_t seed) {
  std::vector<Job> jobs;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.bernoulli(0.3) ? 2 : 1, rng.bernoulli(0.4)));
  }
  return jobs;
}

TEST(FaultyScheduler, NoneTraceReproducesFaultFreeRunBitIdentically) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(150, 21);
  RandomAssigner a1(3);
  RandomAssigner a2(3);
  const auto fault_free = simulate(jobs, machines, a1);
  const auto with_none = simulate(jobs, machines, a2, FaultTrace::none());
  expect_results_identical(fault_free, with_none);
  EXPECT_EQ(with_none.jobs_killed, 0);
  EXPECT_EQ(with_none.total_retries, 0);
  EXPECT_EQ(with_none.completed_jobs, jobs.size());
  EXPECT_EQ(with_none.abandoned_jobs, 0u);
}

TEST(FaultyScheduler, NodeFailureKillsAndReschedulesJob) {
  // quartz has 2 nodes; one 2-node job runs [0, 100). A node goes down at
  // t=10 (no idle node -> the job is killed) and is repaired at t=50.
  // With base delay 5 and no jitter the retry is queued at t=15, but the
  // machine cannot fit 2 nodes until the repair, so attempt 2 runs
  // [50, 150).
  const auto machines = tiny_cluster();
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;

  FaultTrace trace;
  trace.events = {{10.0, SystemId::kQuartz, -1}, {50.0, SystemId::kQuartz, +1}};
  trace.retry = {/*max_attempts=*/4, /*base_delay_s=*/5.0, /*multiplier=*/2.0,
                 /*max_delay_s=*/3600.0, /*jitter=*/0.0};

  const std::vector<Job> jobs = {make_job(0, 100, 100, 100, 100, /*nodes=*/2)};
  const auto result = simulate(jobs, machines, assigner, trace);

  EXPECT_EQ(result.jobs_killed, 1);
  EXPECT_EQ(result.total_retries, 1);
  EXPECT_EQ(result.completed_jobs, 1u);
  EXPECT_EQ(result.abandoned_jobs, 0u);
  EXPECT_EQ(result.outcomes[0].attempts, 2);
  EXPECT_FALSE(result.outcomes[0].abandoned);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 50.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].end_s, 150.0);
  EXPECT_DOUBLE_EQ(result.makespan_s, 150.0);
  const auto q = static_cast<std::size_t>(SystemId::kQuartz);
  EXPECT_DOUBLE_EQ(result.lost_node_seconds[q], 20.0);      // 2 nodes x 10 s
  EXPECT_DOUBLE_EQ(result.downtime_node_seconds[q], 40.0);  // 1 node, [10, 50)
  EXPECT_DOUBLE_EQ(result.node_seconds[q], 200.0);          // 2 nodes x 100 s
}

TEST(FaultyScheduler, CertainKillsAbandonEveryJob) {
  const auto machines = tiny_cluster();
  RoundRobinAssigner assigner;
  const auto jobs = random_workload(20, 33);

  FaultTrace trace;
  trace.kill_probability = 1.0;  // every attempt dies mid-run
  trace.retry.max_attempts = 3;
  trace.seed = 5;

  const auto result = simulate(jobs, machines, assigner, trace);
  EXPECT_EQ(result.completed_jobs, 0u);
  EXPECT_EQ(result.abandoned_jobs, jobs.size());
  EXPECT_EQ(result.jobs_killed, static_cast<long long>(jobs.size()) * 3);
  EXPECT_EQ(result.total_retries, static_cast<long long>(jobs.size()) * 2);
  EXPECT_DOUBLE_EQ(result.avg_bounded_slowdown, 0.0);
  for (const JobOutcome& o : result.outcomes) {
    EXPECT_TRUE(o.abandoned);
    EXPECT_EQ(o.attempts, 3);
    EXPECT_GE(o.end_s, o.start_s);
  }
}

TEST(FaultyScheduler, NodeSecondsReconcile) {
  // Committed + lost + downtime + idle node-seconds must equal
  // makespan x capacity on every machine, with idle >= 0.
  const auto machines = tiny_cluster(4, 4, 4, 4);
  const auto jobs = random_workload(200, 8);
  const auto model = FaultModel::uniform(2000.0, 300.0, 0.15, {}, 17);
  const auto trace = model.generate(machines, 50'000.0);
  ASSERT_TRUE(trace.enabled());
  RoundRobinAssigner assigner;
  const auto result = simulate(jobs, machines, assigner, trace);
  EXPECT_GT(result.jobs_killed, 0);

  for (const Machine& machine : machines) {
    const auto k = static_cast<std::size_t>(machine.id);
    const double capacity = result.makespan_s * machine.total_nodes;
    const double used = result.node_seconds[k] + result.lost_node_seconds[k] +
                        result.downtime_node_seconds[k];
    EXPECT_GE(result.node_seconds[k], 0.0);
    EXPECT_GE(result.lost_node_seconds[k], 0.0);
    EXPECT_GE(result.downtime_node_seconds[k], 0.0);
    EXPECT_LE(used, capacity + 1e-6);  // idle = capacity - used >= 0
  }
}

TEST(FaultyScheduler, EveryKilledJobIsRescheduledOrAbandoned) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(150, 12);
  RetryPolicy retry;
  retry.max_attempts = 3;
  retry.base_delay_s = 2.0;
  const auto model = FaultModel::uniform(1500.0, 400.0, 0.2, retry, 99);
  const auto trace = model.generate(machines, 100'000.0);
  RoundRobinAssigner assigner;
  const auto result = simulate(jobs, machines, assigner, trace);

  EXPECT_GT(result.jobs_killed, 0);
  EXPECT_EQ(result.completed_jobs + result.abandoned_jobs, jobs.size());
  long long extra_attempts = 0;
  for (const JobOutcome& o : result.outcomes) {
    EXPECT_GE(o.attempts, 1);
    EXPECT_LE(o.attempts, retry.max_attempts);
    if (o.abandoned) {
      EXPECT_EQ(o.attempts, retry.max_attempts);
    }
    extra_attempts += o.attempts - 1;
  }
  // Each retry is exactly one extra attempt by some job.
  EXPECT_EQ(result.total_retries, extra_attempts);
}

TEST(FaultyScheduler, DeterministicAcrossThreadConfigs) {
  // The simulation must be bit-identical no matter how many pool threads
  // exist or how many simulations run concurrently (exercised under TSan).
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(120, 4);
  const auto model = FaultModel::uniform(2500.0, 500.0, 0.1, {}, 31);
  const auto trace = model.generate(machines, 50'000.0);

  RoundRobinAssigner reference_assigner;
  const auto reference = simulate(jobs, machines, reference_assigner, trace);
  EXPECT_GT(reference.jobs_killed, 0);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<SimulationResult> results(threads);
    pool.parallel_for(0, threads, [&](std::size_t i) {
      RoundRobinAssigner assigner;
      results[i] = simulate(jobs, machines, assigner, trace);
    });
    for (const auto& result : results) {
      expect_results_identical(reference, result);
    }
  }
}

// ------------------------------------------------------ checkpoint/restart ----

TEST(CheckpointPolicy, DisabledPolicyIsPassThrough) {
  const CheckpointPolicy off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.checkpoints_during(1e6), 0);
  // Bit-identical, not just approximately equal: the disabled policy must
  // not perturb the restart-from-zero arithmetic.
  EXPECT_EQ(off.attempt_duration(123.456), 123.456);
  const auto account = off.account_kill(50.0, 100.0);
  EXPECT_EQ(account.saved_work_s, 0.0);
  EXPECT_EQ(account.lost_work_s, 50.0);
  EXPECT_EQ(account.overhead_paid_s, 0.0);
  EXPECT_EQ(account.checkpoints, 0);
}

TEST(CheckpointPolicy, CountsWritesStrictlyBeforeCompletion) {
  const CheckpointPolicy policy{30.0, 5.0};
  ASSERT_TRUE(policy.enabled());
  EXPECT_EQ(policy.checkpoints_during(100.0), 3);  // at work 30, 60, 90
  EXPECT_EQ(policy.checkpoints_during(90.0), 2);   // none at completion
  EXPECT_EQ(policy.checkpoints_during(30.0), 0);
  EXPECT_EQ(policy.checkpoints_during(30.5), 1);
  EXPECT_DOUBLE_EQ(policy.attempt_duration(100.0), 115.0);  // 100 + 3 x 5
  EXPECT_DOUBLE_EQ(policy.attempt_duration(90.0), 100.0);   // 90 + 2 x 5
}

TEST(CheckpointPolicy, KillAccountingSplitsElapsedExactly) {
  const CheckpointPolicy policy{30.0, 5.0};  // cycle = 35 wall seconds
  // Killed at wall 50 of a 100 s-work attempt: checkpoint 1 completed at
  // wall 35, then 15 s into the second interval.
  auto account = policy.account_kill(50.0, 100.0);
  EXPECT_EQ(account.checkpoints, 1);
  EXPECT_DOUBLE_EQ(account.saved_work_s, 30.0);
  EXPECT_DOUBLE_EQ(account.overhead_paid_s, 5.0);
  EXPECT_DOUBLE_EQ(account.lost_work_s, 15.0);

  // Killed mid-write at wall 33: the interval being written is not yet
  // durable (lost), the partial write counts as overhead.
  account = policy.account_kill(33.0, 100.0);
  EXPECT_EQ(account.checkpoints, 0);
  EXPECT_DOUBLE_EQ(account.saved_work_s, 0.0);
  EXPECT_DOUBLE_EQ(account.lost_work_s, 30.0);
  EXPECT_DOUBLE_EQ(account.overhead_paid_s, 3.0);

  // Killed past the last write (wall 110 of a 115 s attempt): only the
  // final uncheckpointed stretch is lost.
  account = policy.account_kill(110.0, 100.0);
  EXPECT_EQ(account.checkpoints, 3);
  EXPECT_DOUBLE_EQ(account.saved_work_s, 90.0);
  EXPECT_DOUBLE_EQ(account.overhead_paid_s, 15.0);
  EXPECT_DOUBLE_EQ(account.lost_work_s, 5.0);

  // Invariants: the split always reconciles and a kill never loses more
  // than one interval of work.
  for (const double elapsed : {0.0, 10.0, 30.0, 34.9, 35.0, 69.0, 100.0, 114.0}) {
    const auto a = policy.account_kill(elapsed, 100.0);
    EXPECT_DOUBLE_EQ(a.saved_work_s + a.lost_work_s + a.overhead_paid_s, elapsed);
    EXPECT_LE(a.lost_work_s, policy.interval_s);
  }
}

TEST(CheckpointPolicy, YoungDalyInterval) {
  EXPECT_DOUBLE_EQ(young_daly_interval(50.0, 100.0), 100.0);  // sqrt(2*50*100)
  EXPECT_DOUBLE_EQ(young_daly_interval(60.0, 30.0 * 24.0 * 3600.0),
                   std::sqrt(2.0 * 60.0 * 30.0 * 24.0 * 3600.0));
  EXPECT_THROW(young_daly_interval(0.0, 100.0), mphpc::ContractViolation);
  EXPECT_THROW(young_daly_interval(10.0, 0.0), mphpc::ContractViolation);
}

TEST(CheckpointPolicy, TraceNodeMtbfCountsFailuresInHorizon) {
  const auto machines = tiny_cluster(2, 2, 2, 2);  // 8 nodes
  FaultTrace trace;
  trace.events = {{100.0, SystemId::kQuartz, -1}, {200.0, SystemId::kQuartz, +1},
                  {300.0, SystemId::kRuby, -1},   {400.0, SystemId::kRuby, +1},
                  {500.0, SystemId::kLassen, -1}, {600.0, SystemId::kLassen, +1},
                  {700.0, SystemId::kCorona, -1}, {800.0, SystemId::kCorona, +1},
                  {1500.0, SystemId::kQuartz, -1}};  // outside the horizon
  // 4 failures in [0, 1000) over 8 node-kiloseconds -> MTBF 2000 s.
  EXPECT_DOUBLE_EQ(trace_node_mtbf_s(trace, machines, 1000.0), 2000.0);
  // No failures in a tiny horizon -> infinite MTBF.
  EXPECT_TRUE(std::isinf(trace_node_mtbf_s(trace, machines, 50.0)));
}

TEST(CheckpointedScheduler, KillResumesFromLastCheckpoint) {
  // Mirror of NodeFailureKillsAndReschedulesJob with a {4 s, 1 s} policy.
  // Attempt 1 does 100 s of work -> 24 writes -> 124 s wall; the kill at
  // wall 10 lands exactly after write 2 (cycle 5), so 8 s of work is
  // durable. Attempt 2 resumes with 92 s remaining (22 writes, 114 s wall)
  // at the t=50 repair and ends at 164.
  const auto machines = tiny_cluster();
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  } assigner;

  FaultTrace trace;
  trace.events = {{10.0, SystemId::kQuartz, -1}, {50.0, SystemId::kQuartz, +1}};
  trace.retry = {/*max_attempts=*/4, /*base_delay_s=*/5.0, /*multiplier=*/2.0,
                 /*max_delay_s=*/3600.0, /*jitter=*/0.0};

  SchedulerOptions options;
  options.checkpoint = {4.0, 1.0};
  const std::vector<Job> jobs = {make_job(0, 100, 100, 100, 100, /*nodes=*/2)};
  const auto result = simulate(jobs, machines, assigner, trace, options);

  EXPECT_EQ(result.jobs_killed, 1);
  EXPECT_EQ(result.completed_jobs, 1u);
  EXPECT_EQ(result.outcomes[0].attempts, 2);
  EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 50.0);
  EXPECT_DOUBLE_EQ(result.outcomes[0].end_s, 164.0);
  const auto q = static_cast<std::size_t>(SystemId::kQuartz);
  EXPECT_DOUBLE_EQ(result.node_seconds[q], 184.0);       // 92 s work x 2 nodes
  EXPECT_DOUBLE_EQ(result.recovered_node_seconds[q], 16.0);  // 8 s x 2 nodes
  EXPECT_DOUBLE_EQ(result.lost_node_seconds[q], 0.0);    // kill right at a write
  // Kill: 2 writes paid; completion: 22 writes -> (2 + 22) x 1 s x 2 nodes.
  EXPECT_DOUBLE_EQ(result.checkpoint_overhead_node_seconds[q], 48.0);
  EXPECT_EQ(result.checkpoints_written, 24);
  EXPECT_DOUBLE_EQ(result.downtime_node_seconds[q], 40.0);
}

TEST(CheckpointedScheduler, NodeSecondsReconcileWithCheckpointing) {
  // committed + lost + recovered + overhead + downtime + idle == capacity
  // per machine, and each kill loses at most one interval of work.
  const auto machines = tiny_cluster(4, 4, 4, 4);
  const auto jobs = random_workload(200, 8);
  const auto model = FaultModel::uniform(2000.0, 300.0, 0.15, {}, 17);
  const auto trace = model.generate(machines, 50'000.0);
  ASSERT_TRUE(trace.enabled());
  RoundRobinAssigner assigner;
  SchedulerOptions options;
  options.checkpoint = {5.0, 0.5};
  const auto result = simulate(jobs, machines, assigner, trace, options);
  EXPECT_GT(result.jobs_killed, 0);
  EXPECT_GT(result.checkpoints_written, 0);

  double total_recovered = 0.0;
  double total_lost = 0.0;
  for (const Machine& machine : machines) {
    const auto k = static_cast<std::size_t>(machine.id);
    const double capacity = result.makespan_s * machine.total_nodes;
    const double used = result.node_seconds[k] + result.lost_node_seconds[k] +
                        result.recovered_node_seconds[k] +
                        result.checkpoint_overhead_node_seconds[k] +
                        result.downtime_node_seconds[k];
    EXPECT_GE(result.node_seconds[k], 0.0);
    EXPECT_GE(result.lost_node_seconds[k], 0.0);
    EXPECT_GE(result.recovered_node_seconds[k], 0.0);
    EXPECT_GE(result.checkpoint_overhead_node_seconds[k], 0.0);
    EXPECT_LE(used, capacity + 1e-6);  // idle = capacity - used >= 0
    total_recovered += result.recovered_node_seconds[k];
    total_lost += result.lost_node_seconds[k];
  }
  EXPECT_GT(total_recovered, 0.0);
  // Jobs take at most 2 nodes, so each kill loses <= interval x 2.
  EXPECT_LE(total_lost, static_cast<double>(result.jobs_killed) *
                            options.checkpoint.interval_s * 2.0);
}

TEST(CheckpointedScheduler, CheckpointingRecoversWorkUnderIdenticalTrace) {
  // The acceptance property: under the same fault trace, checkpointing
  // turns lost node-seconds into recovered ones and cannot lose more per
  // kill than restart-from-zero.
  const auto machines = tiny_cluster(4, 4, 4, 4);
  const auto jobs = random_workload(200, 8);
  const auto model = FaultModel::uniform(2000.0, 300.0, 0.15, {}, 17);
  const auto trace = model.generate(machines, 50'000.0);
  RoundRobinAssigner a1;
  const auto without = simulate(jobs, machines, a1, trace);
  RoundRobinAssigner a2;
  SchedulerOptions options;
  options.checkpoint = {5.0, 0.5};
  const auto with = simulate(jobs, machines, a2, trace, options);

  const auto total = [](const std::array<double, arch::kNumSystems>& v) {
    double s = 0.0;
    for (const double x : v) s += x;
    return s;
  };
  EXPECT_GT(total(without.lost_node_seconds), 0.0);
  EXPECT_GT(total(with.recovered_node_seconds), 0.0);
  EXPECT_LT(total(with.lost_node_seconds), total(without.lost_node_seconds));
  EXPECT_EQ(total(without.recovered_node_seconds), 0.0);
  EXPECT_EQ(without.checkpoints_written, 0);
}

TEST(CheckpointedScheduler, ZeroIntervalGoldenIdenticalToNoPolicy) {
  // A disabled policy (interval 0, even with a nonzero overhead setting)
  // must be bit-identical to the scheduler without any policy, across
  // thread configurations (exercised under TSan).
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(120, 4);
  const auto model = FaultModel::uniform(2500.0, 500.0, 0.1, {}, 31);
  const auto trace = model.generate(machines, 50'000.0);

  RoundRobinAssigner reference_assigner;
  const auto reference = simulate(jobs, machines, reference_assigner, trace);
  EXPECT_GT(reference.jobs_killed, 0);

  SchedulerOptions zero;
  zero.checkpoint = {0.0, 5.0};  // interval 0 -> disabled
  for (const std::size_t threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<SimulationResult> results(threads);
    pool.parallel_for(0, threads, [&](std::size_t i) {
      RoundRobinAssigner assigner;
      results[i] = simulate(jobs, machines, assigner, trace, zero);
    });
    for (const auto& result : results) {
      expect_results_identical(reference, result);
      EXPECT_EQ(result.checkpoints_written, 0);
    }
  }
}

TEST(RetryPolicy, BackoffIsCappedAndJittered) {
  RetryPolicy policy;
  policy.base_delay_s = 10.0;
  policy.multiplier = 2.0;
  policy.max_delay_s = 60.0;
  policy.jitter = 0.0;
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.5), 10.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(2, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(3, 0.5), 40.0);
  EXPECT_DOUBLE_EQ(policy.delay_s(4, 0.5), 60.0);   // capped
  EXPECT_DOUBLE_EQ(policy.delay_s(50, 0.5), 60.0);  // stays capped

  policy.jitter = 0.5;
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.0), 5.0);   // -50 %
  EXPECT_DOUBLE_EQ(policy.delay_s(1, 0.5), 10.0);  // midpoint
  EXPECT_GT(policy.delay_s(1, 0.999), 14.9);       // approx +50 %
  EXPECT_THROW(policy.delay_s(0, 0.5), mphpc::ContractViolation);
}

// ------------------------------------------------- calendar event queue ----

struct EventOrder {
  bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
    return event_before(a, b);
  }
};

TEST(CalendarQueue, EmptyQueueReportsInfiniteNextTime) {
  CalendarQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_EQ(queue.next_time(), std::numeric_limits<double>::infinity());
}

void expect_events_equal(const SimEvent& a, const SimEvent& b) {
  EXPECT_EQ(a.time_s, b.time_s);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.seq, b.seq);
  EXPECT_EQ(a.sub, b.sub);
}

TEST(CalendarQueue, PopsMatchReferenceOrderUnderMonotoneChurn) {
  // Interleaved pushes and pops against a sorted-multiset oracle, with
  // pushes constrained to never predate the last pop (the engine's
  // monotone access pattern). Duplicate timestamps are forced often so
  // the (time, kind, seq, sub) tie-break is exercised, not just times.
  CalendarQueue queue;
  std::multiset<SimEvent, EventOrder> oracle;
  Rng rng(404);
  double now = 0.0;
  for (int step = 0; step < 20'000; ++step) {
    if (oracle.empty() || rng.bernoulli(0.55)) {
      SimEvent event;
      // Quantized offsets make exact-time collisions common.
      event.time_s = now + static_cast<double>(rng.below(64)) * 0.25;
      event.kind = static_cast<std::uint32_t>(rng.below(2));
      event.seq = rng.below(16);
      event.sub = rng.below(4);
      queue.push(event);
      oracle.insert(event);
    } else {
      ASSERT_EQ(queue.next_time(), oracle.begin()->time_s);
      const SimEvent popped = queue.pop_front();
      expect_events_equal(popped, *oracle.begin());
      oracle.erase(oracle.begin());
      now = popped.time_s;
    }
    ASSERT_EQ(queue.size(), oracle.size());
  }
  while (!oracle.empty()) {
    expect_events_equal(queue.pop_front(), *oracle.begin());
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, PopOrderIsIndependentOfInsertionOrder) {
  // The same event set pushed forwards and backwards must drain in the
  // identical sequence: ordering is the explicit total order, never a
  // bucket-layout or insertion-order accident.
  std::vector<SimEvent> events;
  Rng rng(7);
  for (int i = 0; i < 2'000; ++i) {
    events.push_back({static_cast<double>(rng.below(50)),
                      static_cast<std::uint32_t>(rng.below(2)), rng.below(8),
                      rng.below(3)});
  }
  CalendarQueue forward;
  CalendarQueue backward;
  for (const SimEvent& e : events) forward.push(e);
  for (auto it = events.rbegin(); it != events.rend(); ++it) backward.push(*it);
  while (!forward.empty()) {
    ASSERT_FALSE(backward.empty());
    expect_events_equal(forward.pop_front(), backward.pop_front());
  }
  EXPECT_TRUE(backward.empty());
}

TEST(CalendarQueue, BurstGrowthThenDrainKeepsOrder) {
  // A 50k-event burst forces repeated grow rebuilds; the full drain then
  // forces shrink rebuilds. Order must survive every geometry change.
  CalendarQueue queue;
  std::multiset<SimEvent, EventOrder> oracle;
  Rng rng(11);
  for (int i = 0; i < 50'000; ++i) {
    const SimEvent event{rng.uniform() * 1e4, 1,
                         static_cast<std::uint64_t>(i), 0};
    queue.push(event);
    oracle.insert(event);
  }
  while (!oracle.empty()) {
    expect_events_equal(queue.pop_front(), *oracle.begin());
    oracle.erase(oracle.begin());
  }
  EXPECT_TRUE(queue.empty());
}

TEST(CalendarQueue, DegenerateTimeDistributionsStaySorted) {
  {
    // Every event at the same instant: span 0 defeats width estimation;
    // the tie-break alone must order the drain.
    CalendarQueue queue;
    for (std::uint64_t seq = 100; seq-- > 0;) {
      queue.push({42.0, 1, seq, 0});
    }
    for (std::uint64_t seq = 0; seq < 100; ++seq) {
      const SimEvent event = queue.pop_front();
      EXPECT_EQ(event.time_s, 42.0);
      EXPECT_EQ(event.seq, seq);
    }
  }
  {
    // Huge timestamps near the exact-slot limit plus tiny gaps: the
    // fmod/full-scan fallbacks must keep exact order.
    CalendarQueue queue;
    std::multiset<SimEvent, EventOrder> oracle;
    Rng rng(13);
    for (int i = 0; i < 500; ++i) {
      const SimEvent event{4.0e15 + rng.uniform() * 4.0, 1,
                           static_cast<std::uint64_t>(i), 0};
      queue.push(event);
      oracle.insert(event);
    }
    while (!oracle.empty()) {
      expect_events_equal(queue.pop_front(), *oracle.begin());
      oracle.erase(oracle.begin());
    }
  }
}

// ---------------------------------------------- engine golden equivalence ----

/// Runs the same simulation through both backfill passes (the indexed
/// pass and the full rescan) with independently constructed assigners and
/// requires bit-identical results.
template <typename MakeAssigner>
void expect_engines_identical(const std::vector<Job>& jobs,
                              const std::vector<Machine>& machines,
                              const FaultTrace& trace, SchedulerOptions options,
                              MakeAssigner make_assigner) {
  auto calendar_assigner = make_assigner();
  auto reference_assigner = make_assigner();
  options.engine = SimEngineKind::kCalendar;
  const auto calendar =
      simulate(jobs, machines, calendar_assigner, trace, options);
  options.engine = SimEngineKind::kReference;
  const auto reference =
      simulate(jobs, machines, reference_assigner, trace, options);
  expect_results_identical(calendar, reference);
}

TEST(EngineGolden, AllAssignersIdenticalUnderFaultsAndCheckpoints) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(1'500, 17);
  const auto model = FaultModel::uniform(2000.0, 400.0, 0.05, {}, 23);
  const auto trace = model.generate(machines, 50'000.0);
  ASSERT_TRUE(trace.enabled());
  SchedulerOptions options;
  options.checkpoint = {40.0, 2.0};
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return RoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return RandomAssigner(9); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return UserRoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return ModelBasedAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return OracleAssigner(); });
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return GuardedModelBasedAssigner(); });
}

TEST(EngineGolden, BoundedDepthIdenticalForStatefulAssigners) {
  // Every assigner takes the one indexed backfill pass. For a stateful
  // assigner (state_keys() > 0) that pass stops at the depth-th job after
  // the head, where the reference engine's rescan stops, so a bounded
  // depth must give identical results. (A stateless assigner counts only
  // the candidates it visits, which intentionally differs — see
  // SchedulerOptions::backfill_depth.)
  const auto machines = tiny_cluster();
  const auto jobs = random_workload(800, 29);
  const auto model = FaultModel::uniform(3000.0, 500.0, 0.08, {}, 41);
  const auto trace = model.generate(machines, 80'000.0);
  for (const int depth : {1, 3, 16}) {
    SchedulerOptions options;
    options.backfill_depth = depth;
    expect_engines_identical(jobs, machines, trace, options,
                             [] { return RandomAssigner(31); });
    expect_engines_identical(jobs, machines, trace, options,
                             [] { return UserRoundRobinAssigner(); });
  }
}

TEST(EngineGolden, GuardedFallbackPathIdentical) {
  // Implausible predictions force GuardedModelBasedAssigner off its pure
  // path: after prime() its state_keys() is the User+RR fallback's, so the
  // indexed pass keys those jobs by fallback state and counts a bounded
  // depth the stateful way. The calendar engine must still match.
  const auto machines = tiny_cluster(3, 3, 3, 3);
  auto jobs = random_workload(800, 5);
  for (std::size_t i = 0; i < jobs.size(); i += 7) {
    jobs[i].predicted =
        core::Rpv({std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0, 1.0});
  }
  const auto model = FaultModel::uniform(2500.0, 400.0, 0.05, {}, 59);
  const auto trace = model.generate(machines, 60'000.0);
  SchedulerOptions options;
  options.backfill_depth = 3;
  expect_engines_identical(jobs, machines, trace, options,
                           [] { return GuardedModelBasedAssigner(); });
}

TEST(EngineGolden, CollidingTimestampsResolveInJobIndexOrder) {
  // Two jobs killed by two simultaneous node failures retry with zero
  // jitter, producing two release events at the *identical* timestamp.
  // The (time, kind, seq) order requires job 0 to re-queue ahead of job 1,
  // observable because only one node is back when scheduling resumes.
  const auto machines = tiny_cluster();  // quartz: 2 nodes
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  };

  FaultTrace trace;
  trace.events = {{10.0, SystemId::kQuartz, -1},
                  {10.0, SystemId::kQuartz, -1},
                  {50.0, SystemId::kQuartz, +1},
                  {80.0, SystemId::kQuartz, +1}};
  trace.retry = {/*max_attempts=*/4, /*base_delay_s=*/5.0, /*multiplier=*/2.0,
                 /*max_delay_s=*/3600.0, /*jitter=*/0.0};

  const std::vector<Job> jobs = {make_job(0, 100, 100, 100, 100),
                                 make_job(1, 100, 100, 100, 100)};
  SchedulerOptions options;
  for (const auto engine : {SimEngineKind::kCalendar, SimEngineKind::kReference}) {
    options.engine = engine;
    QuartzOnly assigner;
    const auto result = simulate(jobs, machines, assigner, trace, options);
    EXPECT_EQ(result.jobs_killed, 2);
    EXPECT_EQ(result.total_retries, 2);
    EXPECT_EQ(result.completed_jobs, 2u);
    // Both retries release at exactly t = 15; the seq tie-break hands the
    // single repaired node at t = 50 to job 0, the t = 80 node to job 1.
    EXPECT_DOUBLE_EQ(result.outcomes[0].start_s, 50.0);
    EXPECT_DOUBLE_EQ(result.outcomes[0].end_s, 150.0);
    EXPECT_DOUBLE_EQ(result.outcomes[1].start_s, 80.0);
    EXPECT_DOUBLE_EQ(result.outcomes[1].end_s, 180.0);
    EXPECT_DOUBLE_EQ(result.makespan_s, 180.0);
  }
  expect_engines_identical(jobs, machines, trace, SchedulerOptions{},
                           [] { return QuartzOnly(); });
}

/// Jobs 1..max_width nodes wide; with arrival_span_s > 0 each job is
/// submitted at a uniform time in [0, arrival_span_s) instead of t = 0.
std::vector<Job> wide_workload(int n, int max_width, double arrival_span_s,
                               std::uint64_t seed) {
  std::vector<Job> jobs;
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    jobs.push_back(make_job(i, rng.uniform(1, 30), rng.uniform(1, 30),
                            rng.uniform(1, 30), rng.uniform(1, 30),
                            static_cast<int>(rng.range(1, max_width)),
                            rng.bernoulli(0.4)));
    if (arrival_span_s > 0.0) jobs.back().submit_s = rng.uniform(0.0, arrival_span_s);
  }
  return jobs;
}

TEST(EngineGolden, WideJobsIdenticalForEveryAssignerAndDepth) {
  // Widths 1-6 on 8-node machines: many size classes, which the indexed
  // pass drops and re-admits as machines fill and drain. Faults make
  // killed jobs re-enter the queue with fresh sequence numbers.
  const auto machines = tiny_cluster(8, 8, 8, 8);
  const auto jobs = wide_workload(1'200, 6, 0.0, 61);
  const auto model = FaultModel::uniform(1500.0, 300.0, 0.05, {}, 67);
  const auto trace = model.generate(machines, 40'000.0);
  ASSERT_TRUE(trace.enabled());
  const SchedulerOptions unlimited;
  expect_engines_identical(jobs, machines, trace, unlimited,
                           [] { return RoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, trace, unlimited,
                           [] { return RandomAssigner(71); });
  expect_engines_identical(jobs, machines, trace, unlimited,
                           [] { return UserRoundRobinAssigner(); });
  expect_engines_identical(jobs, machines, trace, unlimited,
                           [] { return ModelBasedAssigner(); });
  expect_engines_identical(jobs, machines, trace, unlimited,
                           [] { return OracleAssigner(); });
  expect_engines_identical(jobs, machines, trace, unlimited,
                           [] { return GuardedModelBasedAssigner(); });
  for (const int depth : {1, 3, 16}) {
    SchedulerOptions options;
    options.backfill_depth = depth;
    expect_engines_identical(jobs, machines, trace, options,
                             [] { return RandomAssigner(73); });
    expect_engines_identical(jobs, machines, trace, options,
                             [] { return UserRoundRobinAssigner(); });
  }
}

TEST(EngineGolden, GuardedFallbackCountIdentical) {
  // fallbacks() counts every fallback call, including calls on candidates
  // that are assigned and rejected; expect_results_identical cannot see
  // it, so compare it directly.
  const auto machines = tiny_cluster(8, 8, 8, 8);
  auto jobs = wide_workload(1'000, 6, 0.0, 79);
  for (std::size_t i = 0; i < jobs.size(); i += 5) {
    jobs[i].predicted = core::Rpv({1.0, 1e9, 1.0, 1.0});
  }
  const auto model = FaultModel::uniform(2000.0, 300.0, 0.05, {}, 83);
  const auto trace = model.generate(machines, 40'000.0);
  for (const int depth : {0, 3}) {
    SchedulerOptions options;
    options.backfill_depth = depth;
    GuardedModelBasedAssigner calendar_assigner;
    GuardedModelBasedAssigner reference_assigner;
    options.engine = SimEngineKind::kCalendar;
    const auto calendar = simulate(jobs, machines, calendar_assigner, trace, options);
    options.engine = SimEngineKind::kReference;
    const auto reference = simulate(jobs, machines, reference_assigner, trace, options);
    expect_results_identical(calendar, reference);
    EXPECT_GT(reference_assigner.fallbacks(), 0);
    EXPECT_EQ(calendar_assigner.fallbacks(), reference_assigner.fallbacks());
  }
}

TEST(EngineGolden, StaggeredArrivalsIdenticalForStatefulAssigners) {
  // Jobs submitted over time join the queue between passes, so each pass
  // starts from a different queue prefix.
  const auto machines = tiny_cluster(8, 8, 8, 8);
  const auto jobs = wide_workload(1'200, 6, 1'500.0, 89);
  for (const int depth : {0, 3}) {
    SchedulerOptions options;
    options.backfill_depth = depth;
    expect_engines_identical(jobs, machines, FaultTrace::none(), options,
                             [] { return RandomAssigner(97); });
    expect_engines_identical(jobs, machines, FaultTrace::none(), options,
                             [] { return UserRoundRobinAssigner(); });
  }
}

// -------------------------------------------------- checkpoint planners ----

/// Hands every attempt the same policy.
class FixedPlanner final : public CheckpointPlanner {
 public:
  explicit FixedPlanner(const CheckpointPolicy& policy) : policy_(policy) {}
  CheckpointPolicy policy_for(const Job& /*job*/, double /*now_s*/) override {
    return policy_;
  }

 private:
  CheckpointPolicy policy_;
};

TEST(CheckpointPlanner, FixedPlannerMatchesFixedPolicyBitIdentically) {
  // A planner that hands out one policy must reproduce the fixed-policy
  // run exactly, and it must win over the options.checkpoint it overrides.
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(400, 61);
  const auto model = FaultModel::uniform(2000.0, 400.0, 0.1, {}, 67);
  const auto trace = model.generate(machines, 50'000.0);
  // Interval well under the 1-30 s runtimes so attempts actually write.
  const CheckpointPolicy policy{5.0, 0.5};

  SchedulerOptions fixed;
  fixed.checkpoint = policy;
  RoundRobinAssigner a1;
  const auto fixed_run = simulate(jobs, machines, a1, trace, fixed);
  EXPECT_GT(fixed_run.checkpoints_written, 0);

  FixedPlanner planner(policy);
  SchedulerOptions planned;
  planned.planner = &planner;
  planned.checkpoint = {999.0, 9.0};  // must be ignored: planner wins
  RoundRobinAssigner a2;
  const auto planned_run = simulate(jobs, machines, a2, trace, planned);
  expect_results_identical(fixed_run, planned_run);
}

TEST(CheckpointPlanner, DisabledPolicyMatchesPlainRun) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(300, 71);
  const auto model = FaultModel::uniform(2000.0, 400.0, 0.1, {}, 73);
  const auto trace = model.generate(machines, 50'000.0);

  RoundRobinAssigner a1;
  const auto plain = simulate(jobs, machines, a1, trace);

  FixedPlanner planner({});
  SchedulerOptions options;
  options.planner = &planner;
  RoundRobinAssigner a2;
  const auto planned = simulate(jobs, machines, a2, trace, options);
  expect_results_identical(plain, planned);
  EXPECT_EQ(planned.checkpoints_written, 0);
}

TEST(AdaptiveYoungDaly, EstimateBlendsPriorAndObservedFailures) {
  const Job job = make_job(0, 10, 10, 10, 10);
  {
    // No prior, no observations: nothing suggests failures happen, so
    // checkpointing stays off.
    AdaptiveYoungDalyPlanner planner(10.0, /*prior_mtbf_s=*/0.0);
    planner.begin(4);
    EXPECT_TRUE(std::isinf(planner.estimated_mtbf_s(100.0)));
    EXPECT_FALSE(planner.policy_for(job, 100.0).enabled());

    // Two failures over 4 nodes x 100 s of node-time: MTBF = 400 / 2.
    planner.observe_node_failure(50.0);
    planner.observe_node_failure(80.0);
    EXPECT_EQ(planner.observed_failures(), 2);
    EXPECT_DOUBLE_EQ(planner.estimated_mtbf_s(100.0), 200.0);
    const auto policy = planner.policy_for(job, 100.0);
    EXPECT_DOUBLE_EQ(policy.interval_s, young_daly_interval(10.0, 200.0));
    EXPECT_DOUBLE_EQ(policy.overhead_s, 10.0);
  }
  {
    // A prior acts as prior_weight pseudo-failures at the prior MTBF.
    AdaptiveYoungDalyPlanner planner(10.0, /*prior_mtbf_s=*/1000.0,
                                     /*prior_weight=*/4.0);
    planner.begin(4);
    EXPECT_DOUBLE_EQ(planner.estimated_mtbf_s(0.0), 1000.0);
    planner.observe_node_failure(0.0);
    // (4 nodes x 500 s + 4 x 1000) / (1 + 4) = 1200.
    EXPECT_DOUBLE_EQ(planner.estimated_mtbf_s(500.0), 1200.0);
  }
  {
    // Zero overhead disables checkpointing regardless of the estimate.
    AdaptiveYoungDalyPlanner planner(0.0, 1000.0);
    planner.begin(4);
    EXPECT_FALSE(planner.policy_for(job, 100.0).enabled());
  }
}

TEST(AdaptiveYoungDaly, SimulationIsDeterministicAndEngineIdentical) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(400, 81);
  const auto model = FaultModel::uniform(1500.0, 400.0, 0.1, {}, 83);
  const auto trace = model.generate(machines, 80'000.0);

  const auto run = [&](SimEngineKind engine) {
    // Small overhead keeps the Young/Daly interval (~sqrt(2 C MTBF), MTBF
    // near 2000 s here) below the 1-30 s runtimes so checkpoints happen.
    AdaptiveYoungDalyPlanner planner(/*overhead_s=*/0.05,
                                     /*prior_mtbf_s=*/2000.0);
    SchedulerOptions options;
    options.planner = &planner;
    options.engine = engine;
    RoundRobinAssigner assigner;
    auto result = simulate(jobs, machines, assigner, trace, options);
    EXPECT_GT(planner.observed_failures(), 0);
    return result;
  };

  const auto calendar = run(SimEngineKind::kCalendar);
  const auto calendar_again = run(SimEngineKind::kCalendar);
  const auto reference = run(SimEngineKind::kReference);
  expect_results_identical(calendar, calendar_again);
  expect_results_identical(calendar, reference);
  EXPECT_GT(calendar.checkpoints_written, 0);
}

// --------------------------------------------------------- engine digests ----
//
// Both SimEngineKind values run the same event loop; they differ only in
// the backfill pass. Comparing the two therefore cannot see a fault in the
// loop or in its accounting, so every scenario above (and a wider matrix)
// is also pinned to a digest recorded from the engine before its event
// loops were folded into one. A digest value is never edited to make a
// change pass: a changed digest means a changed simulation.

/// FNV-1a over the bit patterns of everything a simulation reports: the
/// makespan and averages, every counter and node-seconds array, each
/// outcome's machine, start, end, attempts and abandoned flag, and the
/// assigner's fallback count (GuardedModelBasedAssigner::fallbacks(), else 0).
std::uint64_t result_digest(const SimulationResult& r, long long fallbacks) {
  std::string bytes;
  const auto put = [&bytes](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) bytes.push_back(static_cast<char>(v >> (8 * i)));
  };
  const auto put_double = [&put](double v) { put(std::bit_cast<std::uint64_t>(v)); };
  put_double(r.makespan_s);
  put_double(r.avg_bounded_slowdown);
  put_double(r.avg_wait_s);
  for (const auto* per_machine : {&r.node_seconds, &r.lost_node_seconds,
                                  &r.downtime_node_seconds,
                                  &r.checkpoint_overhead_node_seconds,
                                  &r.recovered_node_seconds}) {
    for (const double v : *per_machine) put_double(v);
  }
  put(static_cast<std::uint64_t>(r.checkpoints_written));
  put(static_cast<std::uint64_t>(r.jobs_killed));
  put(static_cast<std::uint64_t>(r.total_retries));
  put(r.completed_jobs);
  put(r.abandoned_jobs);
  for (const JobOutcome& o : r.outcomes) {
    put(static_cast<std::uint64_t>(o.machine));
    put_double(o.start_s);
    put_double(o.end_s);
    put(static_cast<std::uint64_t>(o.attempts));
    put(o.abandoned ? 1 : 0);
  }
  put(static_cast<std::uint64_t>(fallbacks));
  return fnv1a(bytes);
}

enum class Assigner { kRoundRobin, kRandom, kUserRoundRobin, kModel, kOracle, kGuarded };
constexpr std::array kAllAssigners = {Assigner::kRoundRobin,     Assigner::kRandom,
                                      Assigner::kUserRoundRobin, Assigner::kModel,
                                      Assigner::kOracle,         Assigner::kGuarded};
constexpr std::array kDepths = {0, 1, 3, 16};

std::unique_ptr<MachineAssigner> make_assigner(Assigner kind, std::uint64_t random_seed) {
  switch (kind) {
    case Assigner::kRoundRobin: return std::make_unique<RoundRobinAssigner>();
    case Assigner::kRandom: return std::make_unique<RandomAssigner>(random_seed);
    case Assigner::kUserRoundRobin: return std::make_unique<UserRoundRobinAssigner>();
    case Assigner::kModel: return std::make_unique<ModelBasedAssigner>();
    case Assigner::kOracle: return std::make_unique<OracleAssigner>();
    case Assigner::kGuarded: return std::make_unique<GuardedModelBasedAssigner>();
  }
  return nullptr;
}

/// The digests one scenario must produce under each engine kind. They are
/// equal except where the two backfill passes count a bounded depth
/// differently (a stateless assigner; see SchedulerOptions::backfill_depth).
struct Pinned {
  // Implicit, so a table entry can name one digest for both kinds.
  Pinned(std::uint64_t both) : calendar(both), reference(both) {}
  Pinned(std::uint64_t c, std::uint64_t r) : calendar(c), reference(r) {}
  std::uint64_t calendar;
  std::uint64_t reference;
};

/// Runs one scenario under both engine kinds, each with a fresh assigner
/// from `make`, and requires each result's digest to equal its pin.
void expect_digests(const std::string& label, const std::vector<Job>& jobs,
                    const std::vector<Machine>& machines, const FaultTrace& trace,
                    SchedulerOptions options,
                    const std::function<std::unique_ptr<MachineAssigner>()>& make,
                    Pinned pinned) {
  for (const auto& [engine, expected] :
       {std::pair{SimEngineKind::kCalendar, pinned.calendar},
        std::pair{SimEngineKind::kReference, pinned.reference}}) {
    const auto assigner = make();
    options.engine = engine;
    const auto result = simulate(jobs, machines, *assigner, trace, options);
    const auto* guarded = dynamic_cast<const GuardedModelBasedAssigner*>(assigner.get());
    const std::uint64_t got = result_digest(result, guarded ? guarded->fallbacks() : 0);
    EXPECT_EQ(got, expected) << label
                             << (engine == SimEngineKind::kCalendar ? " calendar"
                                                                    : " reference")
                             << " digest 0x" << std::hex << got;
  }
}

/// Replaces each job's exact predicted RPV with one from runtimes scaled
/// by up to +-50% noise, and makes every 9th implausible (NaN), so the
/// model-based, oracle and guarded assigners each place jobs differently.
std::vector<Job> with_noisy_predictions(std::vector<Job> jobs, std::uint64_t seed) {
  Rng rng(seed);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    core::SystemTimes noisy = jobs[i].runtime;
    for (double& t : noisy) t *= rng.uniform(0.5, 1.5);
    jobs[i].predicted = core::Rpv::relative_to(noisy, SystemId::kQuartz);
    if (i % 9 == 0) {
      jobs[i].predicted =
          core::Rpv({std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0, 1.0});
    }
  }
  return jobs;
}

/// Scenario label "<assigner index>/depth <d>".
std::string matrix_label(std::size_t a, int depth) {
  return std::to_string(a) + "/depth " + std::to_string(depth);
}

TEST(EngineDigest, AllAssignersUnderFaultsAndCheckpoints) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(1'500, 17);
  const auto trace = FaultModel::uniform(2000.0, 400.0, 0.05, {}, 23).generate(machines, 50'000.0);
  SchedulerOptions options;
  options.checkpoint = {40.0, 2.0};
  const std::array<Pinned, kAllAssigners.size()> pins = {
      0xc441ff6b174f4bf4,
      0x3bdc5e525b9561a2,
      0xa493aff07686f79,
      0x195d4111b9877356,
      0x195d4111b9877356,
      0x195d4111b9877356};
  for (std::size_t a = 0; a < kAllAssigners.size(); ++a) {
    expect_digests(matrix_label(a, 0), jobs, machines, trace, options,
                   [&] { return make_assigner(kAllAssigners[a], 9); }, pins[a]);
  }
}

TEST(EngineDigest, BoundedDepthStatefulAssigners) {
  const auto machines = tiny_cluster();
  const auto jobs = random_workload(800, 29);
  const auto trace = FaultModel::uniform(3000.0, 500.0, 0.08, {}, 41).generate(machines, 80'000.0);
  const std::array<std::array<Pinned, 2>, 3> pins = {{
      {0xa03b8f5f76139fed, 0x7ee3084ea6f3c608},
      {0x9a002507639de7cc, 0x48779eca60e839ee},
      {0x3d173677730b2e25, 0xd4099627fc33f897},
  }};
  const std::array<int, 3> depths = {1, 3, 16};
  for (std::size_t d = 0; d < depths.size(); ++d) {
    SchedulerOptions options;
    options.backfill_depth = depths[d];
    expect_digests("random/depth " + std::to_string(depths[d]), jobs, machines, trace,
                   options, [] { return make_assigner(Assigner::kRandom, 31); }, pins[d][0]);
    expect_digests("user-rr/depth " + std::to_string(depths[d]), jobs, machines, trace,
                   options, [] { return make_assigner(Assigner::kUserRoundRobin, 0); },
                   pins[d][1]);
  }
}

TEST(EngineDigest, GuardedFallbackPath) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  auto jobs = random_workload(800, 5);
  for (std::size_t i = 0; i < jobs.size(); i += 7) {
    jobs[i].predicted = core::Rpv({std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0, 1.0});
  }
  const auto trace = FaultModel::uniform(2500.0, 400.0, 0.05, {}, 59).generate(machines, 60'000.0);
  SchedulerOptions options;
  options.backfill_depth = 3;
  expect_digests("guarded/depth 3", jobs, machines, trace, options,
                 [] { return make_assigner(Assigner::kGuarded, 0); }, 0xea50fc899cef550a);
}

TEST(EngineDigest, CollidingTimestamps) {
  class QuartzOnly final : public MachineAssigner {
   public:
    arch::SystemId assign(const Job&, std::size_t, const ClusterView&) override {
      return SystemId::kQuartz;
    }
    std::string name() const override { return "quartz-only"; }
  };
  FaultTrace trace;
  trace.events = {{10.0, SystemId::kQuartz, -1},
                  {10.0, SystemId::kQuartz, -1},
                  {50.0, SystemId::kQuartz, +1},
                  {80.0, SystemId::kQuartz, +1}};
  trace.retry = {4, 5.0, 2.0, 3600.0, 0.0};
  const std::vector<Job> jobs = {make_job(0, 100, 100, 100, 100),
                                 make_job(1, 100, 100, 100, 100)};
  expect_digests("quartz-only", jobs, tiny_cluster(), trace, {},
                 [] { return std::make_unique<QuartzOnly>(); }, 0x102ad9bb9e3235a1);
}

TEST(EngineDigest, WideJobsEveryAssignerAndDepthUnderFaults) {
  // Round-Robin, model-based and oracle placement are stateless, so the two
  // passes count a bounded depth differently: those rows pin one digest
  // per engine kind.
  const auto machines = tiny_cluster(8, 8, 8, 8);
  const auto jobs = with_noisy_predictions(wide_workload(1'200, 6, 0.0, 61), 63);
  const auto trace = FaultModel::uniform(1500.0, 300.0, 0.05, {}, 67).generate(machines, 40'000.0);
  const std::array<std::array<Pinned, kDepths.size()>, kAllAssigners.size()> pins = {{
      {0x74d280b679e43ef1,
       {0x3fb5cdc838e3c1b4, 0xbfe05ab358994b14},
       {0x2dc900e2fd2dbb8f, 0xf81b324ec07c3cb1},
       {0xd2b49603c2995a95, 0x905ff89e19aa9345}},
      {0x90ee2037910eec42,
       0x78e0bad2200a511d,
       0xf1c8357bc48c8bab,
       0x91dc487cf7f15eee},
      {0x8321976fc8852fd4,
       0xf66f862ac760d5fa,
       0xf6714fce8ee7250b,
       0x3b9df40647b8ae69},
      {0x5961a755a791a87c,
       {0xffb7707c844d4539, 0x14b7a1c2de46ffa0},
       {0xddb2903303b8f460, 0x5d7a7d366715facd},
       {0x280f10d19386209e, 0x4f03e758937b9120}},
      {0x2cf0d208672442b4,
       {0xaa235573a77e0bb5, 0x2a68af90952ed5a5},
       {0xd41297521a13cecf, 0xcc83d486e661498},
       {0x1fc7bf6737d3240e, 0x77e6da3d65753868}},
      {0xe16847bed6791c9d,
       0x2128eaa4777177b6,
       0xcf37a37a3956b1a0,
       0x1bbe45aa24e9fbec},
  }};
  for (std::size_t a = 0; a < kAllAssigners.size(); ++a) {
    for (std::size_t d = 0; d < kDepths.size(); ++d) {
      SchedulerOptions options;
      options.backfill_depth = kDepths[d];
      expect_digests(matrix_label(a, kDepths[d]), jobs, machines, trace, options,
                     [&] { return make_assigner(kAllAssigners[a], 71); }, pins[a][d]);
    }
  }
}

TEST(EngineDigest, GuardedFallbackCount) {
  const auto machines = tiny_cluster(8, 8, 8, 8);
  auto jobs = wide_workload(1'000, 6, 0.0, 79);
  for (std::size_t i = 0; i < jobs.size(); i += 5) {
    jobs[i].predicted = core::Rpv({1.0, 1e9, 1.0, 1.0});
  }
  const auto trace = FaultModel::uniform(2000.0, 300.0, 0.05, {}, 83).generate(machines, 40'000.0);
  const std::array<Pinned, 2> pins = {0x8eb1cb85dd660674, 0x379bd1e388453607};
  const std::array<int, 2> depths = {0, 3};
  for (std::size_t d = 0; d < depths.size(); ++d) {
    SchedulerOptions options;
    options.backfill_depth = depths[d];
    expect_digests("guarded/depth " + std::to_string(depths[d]), jobs, machines, trace,
                   options, [] { return make_assigner(Assigner::kGuarded, 0); }, pins[d]);
  }
}

TEST(EngineDigest, ArrivalsFaultsAndCheckpointsEveryAssignerAndDepth) {
  // The staggered-arrival scenario of EngineGolden, widened: every
  // assigner and depth, with node faults, random kills and checkpoints.
  const auto machines = tiny_cluster(8, 8, 8, 8);
  const auto jobs = with_noisy_predictions(wide_workload(1'200, 6, 1'500.0, 89), 93);
  const auto trace = FaultModel::uniform(1500.0, 300.0, 0.05, {}, 91).generate(machines, 40'000.0);
  const std::array<std::array<Pinned, kDepths.size()>, kAllAssigners.size()> pins = {{
      {0x14fc012400e39ced,
       {0xc079735099afc1f6, 0x3027a692db04cab2},
       {0x1bf32ab4d1a7eef9, 0x9b81ca4e7057c958},
       {0xee4d8fb81fe5685c, 0x5d868c7d49b2c9ea}},
      {0xdb51232d6ac2319f,
       0x6f6016524319d8e8,
       0x3f9bff4d08d67aa1,
       0xfe896d29fcab6e8a},
      {0x8785e141d6aec8a4,
       0x7be69403dcf767fd,
       0x21ef12192a971a4a,
       0xbe60168448bb1b45},
      {0x1a9543931677fb70,
       {0x96a4f2fb53463d07, 0x4d44ff6fcd3289c3},
       {0x7bf71ee74bc23443, 0x736d47f2423bec9e},
       {0x4b020e5fda853680, 0x52a163aba4c3342d}},
      {0xb204a15480194106,
       {0x3c8655a0ed678007, 0x37cf7d0b3b0ea7b},
       {0xc5a7443180c0deb0, 0x49d3feb722e2ef7d},
       {0xbc0f8a64326346a3, 0x1f8145575a770630}},
      {0xc61e99e627c990f1,
       0x589b7341ddae3f8c,
       0x8f88db9499b220cf,
       0x710822de0bd9a9b1},
  }};
  for (std::size_t a = 0; a < kAllAssigners.size(); ++a) {
    for (std::size_t d = 0; d < kDepths.size(); ++d) {
      SchedulerOptions options;
      options.backfill_depth = kDepths[d];
      options.checkpoint = {8.0, 0.5};
      expect_digests(matrix_label(a, kDepths[d]), jobs, machines, trace, options,
                     [&] { return make_assigner(kAllAssigners[a], 97); }, pins[a][d]);
    }
  }
}

TEST(EngineDigest, StaggeredArrivalsFaultFree) {
  const auto machines = tiny_cluster(8, 8, 8, 8);
  const auto jobs = wide_workload(1'200, 6, 1'500.0, 89);
  const std::array<std::array<Pinned, 2>, 2> pins = {{
      {0x483c9d627f849311, 0x29bca9497177d1},
      {0x3cc799b0e03c1de6, 0x73e9ef2fdc8cf5aa},
  }};
  const std::array<int, 2> depths = {0, 3};
  for (std::size_t d = 0; d < depths.size(); ++d) {
    SchedulerOptions options;
    options.backfill_depth = depths[d];
    expect_digests("random/depth " + std::to_string(depths[d]), jobs, machines,
                   FaultTrace::none(), options,
                   [] { return make_assigner(Assigner::kRandom, 97); }, pins[d][0]);
    expect_digests("user-rr/depth " + std::to_string(depths[d]), jobs, machines,
                   FaultTrace::none(), options,
                   [] { return make_assigner(Assigner::kUserRoundRobin, 0); }, pins[d][1]);
  }
}

TEST(EngineDigest, AdaptiveYoungDaly) {
  const auto machines = tiny_cluster(3, 3, 3, 3);
  const auto jobs = random_workload(400, 81);
  const auto trace = FaultModel::uniform(1500.0, 400.0, 0.1, {}, 83).generate(machines, 80'000.0);
  // The planner learns during a run, so each engine kind gets a fresh one.
  for (const auto engine : {SimEngineKind::kCalendar, SimEngineKind::kReference}) {
    AdaptiveYoungDalyPlanner planner(0.05, 2000.0);
    SchedulerOptions options;
    options.planner = &planner;
    options.engine = engine;
    RoundRobinAssigner assigner;
    const std::uint64_t got =
        result_digest(simulate(jobs, machines, assigner, trace, options), 0);
    EXPECT_EQ(got, 0x9f92063a04f90200U) << "digest 0x" << std::hex << got;
  }
}

// ------------------------------------------------------- scale (gated) ----

TEST(SchedScale, MillionJobFaultySimulationCompletes) {
  // The 1M-job scale smoke (the tracked wall-time baseline lives in
  // results/BENCH_sched.json via `mphpc sched-scale`). Too slow for the
  // default tier-1 run; opt in with MPHPC_SCHED_SCALE=1.
  if (std::getenv("MPHPC_SCHED_SCALE") == nullptr) {
    GTEST_SKIP() << "set MPHPC_SCHED_SCALE=1 to run the 1M-job scale smoke";
  }
  const arch::SystemCatalog catalog;
  const auto machines = default_cluster(catalog);
  const auto jobs = random_workload(1'000'000, 77);
  const auto model =
      FaultModel::uniform(/*node_mtbf_s=*/200.0 * 3600.0,
                          /*mttr_s=*/2.0 * 3600.0, /*kill_probability=*/0.02,
                          {}, 7);
  const auto trace = model.generate(machines, 50'000.0);
  GuardedModelBasedAssigner assigner;
  SchedulerOptions options;
  options.backfill_depth = 1000;
  const auto result = simulate(jobs, machines, assigner, trace, options);
  EXPECT_EQ(result.completed_jobs + result.abandoned_jobs, jobs.size());
  EXPECT_GT(result.jobs_killed, 0);
}

}  // namespace
}  // namespace mphpc::sched
