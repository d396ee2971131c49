// Property-based tests: invariants checked over randomized inputs and
// parameter sweeps (seeded, so failures are reproducible).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "arch/system_catalog.hpp"
#include "common/rng.hpp"
#include "core/rpv.hpp"
#include "ml/decision_tree.hpp"
#include "ml/gbt.hpp"
#include "ml/hist_common.hpp"
#include "ml/mean_regressor.hpp"
#include "ml/metrics.hpp"
#include "sched/assigners.hpp"
#include "sched/easy_scheduler.hpp"
#include "sim/profiler.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc {
namespace {

// ------------------------------------------------------ RPV invariants ----

class RpvProperty : public ::testing::TestWithParam<std::uint64_t> {};

core::SystemTimes random_times(Rng& rng) {
  core::SystemTimes times{};
  for (double& t : times) t = rng.uniform(0.1, 100.0);
  return times;
}

TEST_P(RpvProperty, ReferenceEntryIsOne) {
  Rng rng(GetParam());
  for (int i = 0; i < 50; ++i) {
    const auto times = random_times(rng);
    for (const arch::SystemId ref : arch::kAllSystems) {
      EXPECT_DOUBLE_EQ(core::Rpv::relative_to(times, ref).time_ratio(ref), 1.0);
    }
  }
}

TEST_P(RpvProperty, MinMaxBounds) {
  Rng rng(GetParam() + 1);
  for (int i = 0; i < 50; ++i) {
    const auto times = random_times(rng);
    const auto rpv_min = core::Rpv::relative_to_min(times);
    const auto rpv_max = core::Rpv::relative_to_max(times);
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
      EXPECT_LE(rpv_min[k], 1.0 + 1e-12);
      EXPECT_GE(rpv_max[k], 1.0 - 1e-12);
    }
  }
}

TEST_P(RpvProperty, OrderingConsistentAcrossReferences) {
  // The fastest/slowest system must not depend on the reference chosen.
  Rng rng(GetParam() + 2);
  for (int i = 0; i < 50; ++i) {
    const auto times = random_times(rng);
    const auto base = core::Rpv::relative_to(times, arch::SystemId::kQuartz);
    for (const arch::SystemId ref : arch::kAllSystems) {
      const auto rpv = core::Rpv::relative_to(times, ref);
      EXPECT_EQ(rpv.fastest(), base.fastest());
      EXPECT_EQ(rpv.slowest(), base.slowest());
      EXPECT_EQ(rpv.order(), base.order());
    }
  }
}

TEST_P(RpvProperty, OrderIsSortedByTimeRatio) {
  Rng rng(GetParam() + 3);
  const auto times = random_times(rng);
  const auto rpv = core::Rpv::relative_to(times, arch::SystemId::kRuby);
  const auto order = rpv.order();
  for (std::size_t i = 1; i < order.size(); ++i) {
    EXPECT_LE(rpv.time_ratio(order[i - 1]), rpv.time_ratio(order[i]));
  }
  EXPECT_EQ(order[0], rpv.fastest());
  EXPECT_EQ(order[3], rpv.slowest());
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpvProperty, ::testing::Values(1u, 2u, 3u, 4u, 5u));

// --------------------------------------------------- metric invariants ----

class MetricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MetricProperty, PerfectPredictionScoresPerfectly) {
  Rng rng(GetParam());
  ml::Matrix m(20, 4);
  for (double& v : m.flat()) v = rng.uniform(-5.0, 5.0);
  EXPECT_EQ(ml::mean_absolute_error(m, m), 0.0);
  EXPECT_EQ(ml::root_mean_squared_error(m, m), 0.0);
  EXPECT_EQ(ml::same_order_score(m, m), 1.0);
  EXPECT_DOUBLE_EQ(ml::r2_score(m, m), 1.0);
}

TEST_P(MetricProperty, RmseDominatesMae) {
  Rng rng(GetParam() + 10);
  ml::Matrix truth(30, 3);
  ml::Matrix pred(30, 3);
  for (double& v : truth.flat()) v = rng.uniform(-5.0, 5.0);
  for (double& v : pred.flat()) v = rng.uniform(-5.0, 5.0);
  EXPECT_GE(ml::root_mean_squared_error(truth, pred),
            ml::mean_absolute_error(truth, pred) - 1e-12);
}

TEST_P(MetricProperty, SosInvariantUnderMonotoneTransform) {
  // Applying a strictly increasing function to predictions must not
  // change the same-order score.
  Rng rng(GetParam() + 20);
  ml::Matrix truth(25, 4);
  ml::Matrix pred(25, 4);
  for (double& v : truth.flat()) v = rng.uniform(0.0, 10.0);
  for (double& v : pred.flat()) v = rng.uniform(0.0, 10.0);
  ml::Matrix transformed = pred;
  for (double& v : transformed.flat()) v = std::exp(0.3 * v) + 2.0;
  EXPECT_EQ(ml::same_order_score(truth, pred),
            ml::same_order_score(truth, transformed));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetricProperty, ::testing::Values(7u, 8u, 9u));

// -------------------------------------------- perf model monotonicity ----

class PerfModelPerApp : public ::testing::TestWithParam<int> {};

TEST_P(PerfModelPerApp, TimeMonotoneInScale) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const auto& app = apps.all()[static_cast<std::size_t>(GetParam())];
  for (const auto& sys : systems.all()) {
    const auto rc =
        workload::make_run_config(app, sys, workload::ScaleClass::kOneNode);
    double prev = 0.0;
    for (const double scale : {0.5, 1.0, 2.0, 4.0, 8.0}) {
      const double t = sim::predict_time(app, scale, rc, sys).total_s();
      EXPECT_GT(t, prev) << app.name << " on " << sys.name;
      prev = t;
    }
  }
}

TEST_P(PerfModelPerApp, ProfilerFullyDeterministic) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const auto& app = apps.all()[static_cast<std::size_t>(GetParam())];
  const sim::Profiler profiler(99);
  const auto inputs = workload::make_inputs(app, 1, 99);
  for (const auto& sys : systems.all()) {
    for (const auto scale : workload::kAllScaleClasses) {
      const auto a = profiler.profile(app, inputs[0], scale, sys);
      const auto b = profiler.profile(app, inputs[0], scale, sys);
      EXPECT_EQ(a.time_s, b.time_s);
      EXPECT_EQ(a.counters, b.counters);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllApps, PerfModelPerApp, ::testing::Range(0, 20));

// ------------------------------------------------ scheduler invariants ----

class SchedulerProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerProperty, ConservationAndCapacity) {
  Rng rng(GetParam());
  std::vector<sched::Job> jobs;
  const int n = 150;
  for (int i = 0; i < n; ++i) {
    sched::Job job;
    job.id = i;
    job.gpu_capable = rng.bernoulli(0.5);
    job.nodes_required = rng.bernoulli(0.3) ? 2 : 1;
    for (double& t : job.runtime) t = rng.uniform(1.0, 30.0);
    job.predicted = core::Rpv::relative_to(job.runtime, arch::SystemId::kQuartz);
    jobs.push_back(std::move(job));
  }
  const std::vector<sched::Machine> machines = {{arch::SystemId::kQuartz, 4},
                                                {arch::SystemId::kRuby, 3},
                                                {arch::SystemId::kLassen, 2},
                                                {arch::SystemId::kCorona, 2}};
  sched::ModelBasedAssigner assigner;
  const auto result = sched::simulate(jobs, machines, assigner);

  // Every job ran exactly once, with its runtime on its assigned machine.
  ASSERT_EQ(result.outcomes.size(), jobs.size());
  double total_node_seconds = 0.0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto& o = result.outcomes[j];
    const double expected =
        jobs[j].runtime[static_cast<std::size_t>(o.machine)];
    EXPECT_NEAR(o.run_s(), expected, 1e-9);
    EXPECT_LE(o.end_s, result.makespan_s + 1e-9);
    total_node_seconds += expected * jobs[j].nodes_required;
  }
  double accounted = 0.0;
  for (const double ns : result.node_seconds) accounted += ns;
  EXPECT_NEAR(accounted, total_node_seconds, 1e-6);

  // Makespan lower bound: total work cannot exceed cluster capacity.
  int total_nodes = 0;
  for (const auto& m : machines) total_nodes += m.total_nodes;
  EXPECT_GE(result.makespan_s * total_nodes, total_node_seconds - 1e-6);
}

TEST_P(SchedulerProperty, BackfillNeverStarvesHead) {
  // FCFS fairness: with EASY backfilling, a job's start time can exceed
  // an earlier job's start by at most the reservation dynamics — verify
  // the weaker but exact invariant that the queue head at any reservation
  // is never passed by a job that delays it (no job starting later than
  // the head's eventual start occupies the head's machine at that start).
  Rng rng(GetParam() + 100);
  std::vector<sched::Job> jobs;
  for (int i = 0; i < 80; ++i) {
    sched::Job job;
    job.id = i;
    job.nodes_required = rng.bernoulli(0.4) ? 2 : 1;
    for (double& t : job.runtime) t = rng.uniform(1.0, 20.0);
    job.predicted = core::Rpv::relative_to(job.runtime, arch::SystemId::kQuartz);
    jobs.push_back(std::move(job));
  }
  const std::vector<sched::Machine> machines = {{arch::SystemId::kQuartz, 2},
                                                {arch::SystemId::kRuby, 2},
                                                {arch::SystemId::kLassen, 2},
                                                {arch::SystemId::kCorona, 2}};
  sched::RoundRobinAssigner assigner;
  const auto result = sched::simulate(jobs, machines, assigner);
  for (const auto& o : result.outcomes) {
    EXPECT_GE(o.start_s, 0.0);
    EXPECT_GT(o.run_s(), 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerProperty,
                         ::testing::Values(31u, 32u, 33u, 34u));

// ---------------------------------------------- GBT training invariants ----

class GbtProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GbtProperty, TrainingReducesInSampleError) {
  Rng rng(GetParam());
  ml::Matrix x(200, 4);
  ml::Matrix y(200, 2);
  for (std::size_t r = 0; r < 200; ++r) {
    for (std::size_t c = 0; c < 4; ++c) x(r, c) = rng.uniform();
    y(r, 0) = x(r, 0) * 2.0 + x(r, 1);
    y(r, 1) = std::sin(3.0 * x(r, 2));
  }
  ml::MeanRegressor mean;
  mean.fit(x, y);
  const double baseline = ml::mean_absolute_error(y, mean.predict(x));

  ml::GbtOptions options;
  options.n_rounds = 30;
  options.max_depth = 4;
  options.seed = GetParam();
  ml::GbtRegressor model(options);
  model.fit(x, y);
  EXPECT_LT(ml::mean_absolute_error(y, model.predict(x)), 0.5 * baseline);
}

TEST_P(GbtProperty, RefitIsIdempotent) {
  Rng rng(GetParam() + 7);
  ml::Matrix x(100, 3);
  ml::Matrix y(100, 1);
  for (std::size_t r = 0; r < 100; ++r) {
    for (std::size_t c = 0; c < 3; ++c) x(r, c) = rng.uniform();
    y(r, 0) = x(r, 0) - x(r, 2);
  }
  ml::GbtOptions options;
  options.n_rounds = 15;
  options.max_depth = 3;
  ml::GbtRegressor model(options);
  model.fit(x, y);
  const auto first = model.predict(x);
  model.fit(x, y);  // refit replaces state entirely
  const auto second = model.predict(x);
  for (std::size_t i = 0; i < first.flat().size(); ++i) {
    EXPECT_EQ(first.flat()[i], second.flat()[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GbtProperty, ::testing::Values(41u, 42u, 43u));

// ------------------------------------------- hist node partition split ----

// NodePartition::split must equal std::stable_partition on `code <= bin`
// for every node it is asked to split: random codes, random bins (one-sided
// and out-of-range ones included) and item multisets with duplicates, as
// the CART bootstrap produces. Splitting level by level also checks that
// child ranges are registered in node-id order and never disturb siblings.
class NodePartitionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(NodePartitionProperty, SplitMatchesStablePartition) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 40; ++trial) {
    const auto n_rows = static_cast<std::size_t>(rng.range(1, 300));
    const auto n_codes = static_cast<int>(rng.range(1, 256));
    std::vector<std::uint8_t> codes(n_rows);
    for (std::uint8_t& c : codes) {
      c = static_cast<std::uint8_t>(rng.range(0, n_codes - 1));
    }
    // Items: a bootstrap multiset (with replacement, ascending) or an
    // ascending subset without duplicates; trial 0 starts empty.
    std::vector<std::uint32_t> items;
    const std::size_t n_items = trial == 0 ? 0 : rng.below(2 * n_rows + 1);
    for (std::size_t i = 0; i < n_items; ++i) {
      items.push_back(static_cast<std::uint32_t>(rng.below(n_rows)));
    }
    std::sort(items.begin(), items.end());
    if (trial % 2 == 1) items.erase(std::unique(items.begin(), items.end()), items.end());

    ml::hist::NodePartition part;
    part.reset(items);
    std::vector<std::vector<std::uint32_t>> expected = {items};
    std::vector<std::size_t> frontier = {0};
    for (int depth = 0; depth < 5; ++depth) {
      std::vector<std::size_t> next;
      for (const std::size_t nid : frontier) {
        // Bins from -1 (all right) through n_codes (all left).
        const auto bin = static_cast<int>(rng.range(-1, n_codes));
        std::vector<std::uint32_t> want = expected[nid];
        const auto mid = std::stable_partition(
            want.begin(), want.end(),
            [&](std::uint32_t r) { return static_cast<int>(codes[r]) <= bin; });
        const auto n_left = static_cast<std::size_t>(mid - want.begin());
        ASSERT_EQ(part.split(nid, codes.data(), bin), n_left);
        const std::size_t left = expected.size();
        expected.emplace_back(want.begin(), mid);
        expected.emplace_back(mid, want.end());
        next.insert(next.end(), {left, left + 1});
      }
      // Every new child must hold exactly its expected items.
      for (const std::size_t nid : next) {
        const auto got = part.items(nid);
        ASSERT_EQ(std::vector<std::uint32_t>(got.begin(), got.end()), expected[nid])
            << "trial " << trial << " node " << nid;
        ASSERT_EQ(part.count(nid), expected[nid].size());
      }
      frontier = std::move(next);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, NodePartitionProperty, ::testing::Values(51u, 52u, 53u));

}  // namespace
}  // namespace mphpc
