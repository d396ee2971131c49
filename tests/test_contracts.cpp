// Contract-violation death tests for the public entry points of ml/,
// data/, sched/ and sim/, plus ThreadPool stress tests aimed at the TSan
// lane.
//
// The death tests prove the MPHPC_EXPECTS/ENSURES guards actually fire:
// each MPHPC_EXPECT_CONTRACT_DEATH re-runs the statement in a child
// process and asserts it dies with the contract diagnostic on stderr.
// This holds in both checked contract modes. In "abort" mode the handler
// prints and aborts directly; in "throw" mode GoogleTest's death-test
// child would otherwise catch the escaping ContractViolation and report
// "threw an exception" instead of dying, so the wrapper catches it,
// echoes what() to stderr, and aborts — same observable death either
// way. In "assume" mode contract violations are undefined behavior, so
// the whole file compiles out (that lane is benchmarks-only).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <thread>
#include <vector>

#include "arch/system_catalog.hpp"
#include "common/contract.hpp"
#include "common/thread_pool.hpp"
#include "data/split.hpp"
#include "ml/gbt.hpp"
#include "ml/matrix.hpp"
#include "ml/random_forest.hpp"
#include "ml/serialize.hpp"
#include "sched/easy_scheduler.hpp"
#include "sim/counter_synth.hpp"
#include "sim/perf_model.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"
#include "workload/run_config.hpp"

#if MPHPC_CONTRACTS_CHECKED

namespace mphpc {
namespace {

// Death tests fork; "threadsafe" style re-execs the binary so they stay
// valid even though other tests in this process start threads.
class ContractDeathTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  }
};

// Run `stmt` in the death-test child; die with the contract diagnostic on
// stderr whether contracts throw (catch + echo + abort) or abort natively.
#define MPHPC_EXPECT_CONTRACT_DEATH(stmt, kind_regex)         \
  EXPECT_DEATH(                                               \
      {                                                       \
        try {                                                 \
          stmt;                                               \
        } catch (const ::mphpc::ContractViolation& e) {       \
          std::fprintf(stderr, "%s\n", e.what());             \
          std::abort();                                       \
        }                                                     \
      },                                                      \
      kind_regex)

// ------------------------------------------------------------------ ml ----

TEST_F(ContractDeathTest, MatrixRejectsMismatchedData) {
  MPHPC_EXPECT_CONTRACT_DEATH(ml::Matrix(2, 2, {1.0}), "precondition");
}

TEST_F(ContractDeathTest, MatrixAtRejectsOutOfBounds) {
  ml::Matrix m(2, 3);
  MPHPC_EXPECT_CONTRACT_DEATH((void)m.at(2, 0), "precondition");
}

TEST_F(ContractDeathTest, GbtPredictRequiresFit) {
  ml::GbtRegressor model;
  MPHPC_EXPECT_CONTRACT_DEATH((void)model.predict(ml::Matrix(1, 3)), "precondition");
}

TEST_F(ContractDeathTest, GbtFitRejectsBadSubsample) {
  ml::GbtOptions options;
  options.subsample = 0.0;
  ml::GbtRegressor model(options);
  ml::Matrix x(4, 2);
  ml::Matrix y(4, 1);
  MPHPC_EXPECT_CONTRACT_DEATH(model.fit(x, y), "precondition");
}

TEST_F(ContractDeathTest, RandomForestRejectsZeroTrees) {
  ml::ForestOptions options;
  options.n_trees = 0;
  ml::RandomForest model(options);
  ml::Matrix x(4, 2);
  ml::Matrix y(4, 1);
  MPHPC_EXPECT_CONTRACT_DEATH(model.fit(x, y), "precondition");
}

TEST_F(ContractDeathTest, SaveTextRejectsEmptyPath) {
  MPHPC_EXPECT_CONTRACT_DEATH(ml::save_text("model", ""), "precondition");
}

// ---------------------------------------------------------------- data ----

TEST_F(ContractDeathTest, TrainTestSplitRejectsZeroFraction) {
  MPHPC_EXPECT_CONTRACT_DEATH((void)data::train_test_split(10, 0.0, 1), "precondition");
}

TEST_F(ContractDeathTest, KFoldRejectsMoreFoldsThanRows) {
  MPHPC_EXPECT_CONTRACT_DEATH((void)data::k_fold(3, 4, 1), "precondition");
}

// --------------------------------------------------------------- sched ----

TEST_F(ContractDeathTest, BoundedSlowdownRejectsNonPositiveTau) {
  MPHPC_EXPECT_CONTRACT_DEATH((void)sched::average_bounded_slowdown({}, 0.0), "precondition");
}

TEST_F(ContractDeathTest, SimulateRejectsEmptyCluster) {
  sched::RoundRobinAssigner assigner;
  MPHPC_EXPECT_CONTRACT_DEATH((void)sched::simulate({}, {}, assigner), "precondition");
}

// ----------------------------------------------------------------- sim ----

TEST_F(ContractDeathTest, PredictTimeRejectsNonPositiveScale) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const auto& app = apps.get("CoMD");
  const auto& sys = systems.get("quartz");
  const auto rc =
      workload::make_run_config(app, sys, workload::ScaleClass::kOneNode);
  MPHPC_EXPECT_CONTRACT_DEATH((void)sim::predict_time(app, 0.0, rc, sys), "precondition");
}

TEST_F(ContractDeathTest, SynthesizeCountersRejectsNonPositiveScale) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const auto& app = apps.get("CoMD");
  const auto& sys = systems.get("quartz");
  const auto rc =
      workload::make_run_config(app, sys, workload::ScaleClass::kOneNode);
  const auto breakdown = sim::predict_time(app, 1.0, rc, sys);
  Rng rng(7);
  MPHPC_EXPECT_CONTRACT_DEATH(
      (void)sim::synthesize_counters(app, 0.0, rc, sys, breakdown, rng),
      "precondition");
}

TEST_F(ContractDeathTest, RunCampaignRejectsZeroInputs) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  sim::CampaignOptions options;
  options.inputs_per_app = 0;
  MPHPC_EXPECT_CONTRACT_DEATH((void)sim::run_campaign(apps, systems, options), "precondition");
}

// ------------------------------------------------------------- macros -----

TEST_F(ContractDeathTest, AssertFiresOnFalse) {
  MPHPC_EXPECT_CONTRACT_DEATH(MPHPC_ASSERT(1 + 1 == 3), "assertion");
}

TEST_F(ContractDeathTest, UnreachableFires) {
  MPHPC_EXPECT_CONTRACT_DEATH(MPHPC_UNREACHABLE("hit supposedly dead branch"), "unreachable");
}

TEST(Contracts, PassingChecksAreSilent) {
  MPHPC_EXPECTS(2 > 1);
  MPHPC_ENSURES(1 < 2);
  MPHPC_ASSERT(true);
}

}  // namespace
}  // namespace mphpc

#endif  // MPHPC_CONTRACTS_CHECKED

// ------------------------------------------------- ThreadPool stress ------
// Aimed at the TSan lane: hammer the submit/parallel_for/parallel_chunks
// completion paths, which is where a missed happens-before edge or a
// condvar lifetime bug would surface as a data race.

namespace mphpc {
namespace {

TEST(ThreadPoolStress, ParallelForManyRounds) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 512;
  for (int round = 0; round < 100; ++round) {
    std::vector<int> hits(kN, 0);
    pool.parallel_for(0, kN, [&](std::size_t i) { hits[i] += 1; });
    const int total = std::accumulate(hits.begin(), hits.end(), 0);
    ASSERT_EQ(total, static_cast<int>(kN));
  }
}

TEST(ThreadPoolStress, ParallelChunksReducesDeterministically) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  for (int round = 0; round < 100; ++round) {
    std::vector<double> partial(pool.size() + 1, 0.0);
    const std::size_t chunks = pool.parallel_chunks(
        0, kN, [&](std::size_t c, std::size_t lo, std::size_t hi) {
          for (std::size_t i = lo; i < hi; ++i) {
            partial[c] += static_cast<double>(i);
          }
        });
    ASSERT_LE(chunks, partial.size());
    double sum = 0.0;
    for (std::size_t c = 0; c < chunks; ++c) sum += partial[c];
    ASSERT_EQ(sum, static_cast<double>(kN * (kN - 1) / 2));
  }
}

TEST(ThreadPoolStress, ConcurrentCallersShareOnePool) {
  ThreadPool pool(4);
  constexpr int kCallers = 4;
  constexpr std::size_t kN = 256;
  std::vector<long> results(kCallers, 0);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int round = 0; round < 25; ++round) {
        std::vector<long> local(kN, 0);
        pool.parallel_for(0, kN, [&](std::size_t i) {
          local[i] = static_cast<long>(i);
        });
        results[t] = std::accumulate(local.begin(), local.end(), 0L);
      }
    });
  }
  for (auto& c : callers) c.join();
  for (const long r : results) {
    EXPECT_EQ(r, static_cast<long>(kN * (kN - 1) / 2));
  }
}

// Regression: parallel_chunks used to deadlock when called from a worker
// thread — the blocked caller waited on done_cv while its chunks sat behind
// occupied workers. Every outer chunk here issues a nested parallel region
// on the same (tiny) pool, so without help-draining all workers end up
// blocked inside inner waits with the inner chunks still queued.
TEST(ThreadPoolStress, NestedParallelChunksFromWorkers) {
  ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 500;
  for (int round = 0; round < 25; ++round) {
    std::vector<double> outer(kOuter, 0.0);
    pool.parallel_for(0, kOuter, [&](std::size_t i) {
      std::vector<double> partial(pool.size() + 1, 0.0);
      const std::size_t chunks = pool.parallel_chunks(
          0, kInner, [&](std::size_t c, std::size_t lo, std::size_t hi) {
            for (std::size_t j = lo; j < hi; ++j) {
              partial[c] += static_cast<double>(j);
            }
          });
      for (std::size_t c = 0; c < chunks; ++c) outer[i] += partial[c];
    });
    for (const double v : outer) {
      ASSERT_EQ(v, static_cast<double>(kInner * (kInner - 1) / 2));
    }
  }
}

// Two levels of nesting (output loop -> per-tree loop -> per-feature loop is
// the shape the histogram GBT trainer creates) must also make progress.
TEST(ThreadPoolStress, DoublyNestedParallelFor) {
  ThreadPool pool(3);
  std::vector<long> totals(4, 0);
  pool.parallel_for(0, totals.size(), [&](std::size_t i) {
    std::vector<long> mid(4, 0);
    pool.parallel_for(0, mid.size(), [&](std::size_t m) {
      std::vector<long> leaf(64, 0);
      pool.parallel_for(0, leaf.size(), [&](std::size_t j) {
        leaf[j] = static_cast<long>(j);
      });
      mid[m] = std::accumulate(leaf.begin(), leaf.end(), 0L);
    });
    totals[i] = std::accumulate(mid.begin(), mid.end(), 0L);
  });
  for (const long t : totals) EXPECT_EQ(t, 4L * (64L * 63L / 2L));
}

TEST(ThreadPoolStress, SubmitWaitIdleChurn) {
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(3);
    std::atomic<int> done{0};
    for (int i = 0; i < 64; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
    pool.wait_idle();
    EXPECT_EQ(done.load(), 64);
  }  // destructor joins with an empty queue every round
}

TEST(ThreadPoolStress, DestructionWithPendingWork) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 128; ++i) {
      pool.submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
    }
  }  // destructor must drain the queue before joining
  EXPECT_EQ(done.load(), 128);
}

}  // namespace
}  // namespace mphpc
