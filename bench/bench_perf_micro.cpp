// Infrastructure micro-benchmarks (google-benchmark): simulator run rate,
// dataset assembly, model fit/predict throughput, scheduler event rate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <new>

#include "arch/system_catalog.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "ml/compiled_ensemble.hpp"
#include "ml/gbt.hpp"
#include "ml/random_forest.hpp"
#include "sched/easy_scheduler.hpp"
#include "sched/workload_gen.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

// Global allocation counter so the serve-path benches can assert the
// steady-state single-row predict is allocation-free (the hot request
// path of `mphpc serve`). Counts every operator new in the process.
// GCC pattern-matches replaced new/delete pairs against the builtin
// allocator and mis-flags the (correct) malloc/free implementations.
// lint:allow-file raw-new -- replacing the global allocator to count it
// is the one place 'operator new/delete' definitions are the point
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
std::atomic<std::size_t> g_alloc_count{0};

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace mphpc;

const workload::AppCatalog& apps() {
  static const workload::AppCatalog catalog;
  return catalog;
}

const arch::SystemCatalog& systems() {
  static const arch::SystemCatalog catalog;
  return catalog;
}

// One simulated profile (analytic model + counter synthesis).
void BM_ProfileOneRun(benchmark::State& state) {
  const sim::Profiler profiler(1);
  const auto& app = apps().get("CoMD");
  const auto inputs = workload::make_inputs(app, 1, 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile(
        app, inputs[0], workload::ScaleClass::kOneNode, systems().get("lassen")));
  }
}
BENCHMARK(BM_ProfileOneRun);

// Full campaign sweep at a reduced size, per-run rate reported.
void BM_Campaign(benchmark::State& state) {
  sim::CampaignOptions options;
  options.inputs_per_app = static_cast<int>(state.range(0));
  std::size_t runs = 0;
  for (auto _ : state) {
    const auto profiles = sim::run_campaign(apps(), systems(), options);
    runs += profiles.size();
    benchmark::DoNotOptimize(profiles.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(runs));
}
BENCHMARK(BM_Campaign)->Arg(2)->Arg(8);

// Dataset assembly from a fixed campaign.
void BM_BuildDataset(benchmark::State& state) {
  sim::CampaignOptions options;
  options.inputs_per_app = 8;
  const auto profiles = sim::run_campaign(apps(), systems(), options);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::build_dataset(profiles).num_rows());
  }
}
BENCHMARK(BM_BuildDataset);

struct FitFixture {
  ml::Matrix x;
  ml::Matrix y;

  static const FitFixture& get() {
    static const FitFixture f = [] {
      sim::CampaignOptions options;
      options.inputs_per_app = 6;
      const auto ds = core::build_dataset(run_campaign(apps(), systems(), options));
      return FitFixture{ds.features(), ds.targets()};
    }();
    return f;
  }
};

void BM_GbtFit(benchmark::State& state) {
  const auto& f = FitFixture::get();
  ml::GbtOptions options;
  options.n_rounds = static_cast<int>(state.range(0));
  options.max_depth = 6;
  for (auto _ : state) {
    ml::GbtRegressor model(options);
    model.fit(f.x, f.y);
    benchmark::DoNotOptimize(model.fitted());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 4);
}
BENCHMARK(BM_GbtFit)->Arg(20)->Arg(50)->Unit(benchmark::kMillisecond);

// The paper-scale fixture: the full counter feature set at 24 inputs per
// application. Its 200-round fit is the tracked histogram-trainer
// configuration (BENCH_gbt.json).
struct MethodFixture {
  ml::Matrix x;
  ml::Matrix y;

  static const MethodFixture& get() {
    static const MethodFixture f = [] {
      sim::CampaignOptions options;
      options.inputs_per_app = 24;
      const auto ds = core::build_dataset(
          run_campaign(apps(), systems(), options, &ThreadPool::shared()));
      return MethodFixture{ds.features(), ds.targets()};
    }();
    return f;
  }
};

void BM_GbtFitHist(benchmark::State& state) {
  const auto& f = MethodFixture::get();
  ml::GbtOptions options;
  options.n_rounds = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::GbtRegressor model(options);
    model.fit(f.x, f.y, &ThreadPool::shared());
    benchmark::DoNotOptimize(model.fitted());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) *
                          static_cast<std::int64_t>(f.y.cols()));
}
BENCHMARK(BM_GbtFitHist)->Arg(20)->Arg(200)->Unit(benchmark::kMillisecond);

void BM_GbtPredict(benchmark::State& state) {
  const auto& f = FitFixture::get();
  ml::GbtOptions options;
  options.n_rounds = 50;
  options.max_depth = 6;
  ml::GbtRegressor model(options);
  model.fit(f.x, f.y);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(f.x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(f.x.rows()));
}
BENCHMARK(BM_GbtPredict)->Unit(benchmark::kMillisecond);

// ------------------------------------------- compiled batch inference ----
// Reference node-walking predict vs the compiled engine
// (ml/compiled_ensemble.hpp; the bin-code pool for these hist-trained
// models) on the same model and a 4096-row batch.
// Single-threaded on both sides so the ratio is the per-core speedup.

ml::Matrix tiled_rows(const ml::Matrix& src, std::size_t rows) {
  ml::Matrix out(rows, src.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    const auto s = src.row(r % src.rows());
    std::copy(s.begin(), s.end(), out.row(r).begin());
  }
  return out;
}

const ml::GbtRegressor& predict_gbt_model() {
  static const ml::GbtRegressor model = [] {
    const auto& f = FitFixture::get();
    ml::GbtOptions options;
    options.n_rounds = 50;
    options.max_depth = 6;
    ml::GbtRegressor m(options);
    m.fit(f.x, f.y);
    return m;
  }();
  return model;
}

void BM_GbtPredictRef(benchmark::State& state) {
  const auto& model = predict_gbt_model();
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredictRef)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_GbtPredictCompiled(benchmark::State& state) {
  const auto compiled = ml::CompiledEnsemble::compile(predict_gbt_model());
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_GbtPredictCompiled)->Arg(4096)->Unit(benchmark::kMillisecond);

// The served model's shape: the Fig. 2 profile (GbtOptions{}: 400 rounds,
// depth 8, four outputs) fit on the paper-scale fixture.
const ml::GbtRegressor& serve_gbt_model() {
  static const ml::GbtRegressor model = [] {
    const auto& f = MethodFixture::get();
    ml::GbtRegressor m(ml::GbtOptions{});
    m.fit(f.x, f.y, &ThreadPool::shared());
    return m;
  }();
  return model;
}

// Compile-time cost of the served model (paid at train/load/refit): the
// bin-code pool, laid out straight from the fitted trees.
void BM_GbtCompile(benchmark::State& state) {
  const auto& model = serve_gbt_model();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ml::CompiledEnsemble::compile(model).n_nodes());
  }
}
BENCHMARK(BM_GbtCompile)->Unit(benchmark::kMillisecond);

// The daemon's model after refits: the Fig. 2 model warm-started for eight
// generations at the serve defaults (20 rounds each on a 4,096-row window,
// consecutive windows wrapping around the fixture). Each generation bins a
// new window, so its thresholds add cuts; the model passes 255 cuts on a
// feature and the pool takes the 64-bit word.
const ml::GbtRegressor& refit_gbt_model() {
  static const ml::GbtRegressor model = [] {
    const auto& f = MethodFixture::get();
    constexpr std::size_t kWindow = 4096;
    ml::GbtRegressor m = serve_gbt_model();
    ml::Matrix x(kWindow, f.x.cols());
    ml::Matrix y(kWindow, f.y.cols());
    for (std::size_t gen = 0; gen < 8; ++gen) {
      for (std::size_t i = 0; i < kWindow; ++i) {
        const std::size_t r = (gen * kWindow + i) % f.x.rows();
        std::copy(f.x.row(r).begin(), f.x.row(r).end(), x.row(i).begin());
        std::copy(f.y.row(r).begin(), f.y.row(r).end(), y.row(i).begin());
      }
      m.warm_start_fit(x, y, 20, &ThreadPool::shared());
    }
    return m;
  }();
  return model;
}

// The serve hot path: one row at a time through the thread-local-scratch
// overload, rotating through the fixture's rows so branch history and
// caches see real traffic. Asserts the steady state allocates nothing.
void predict_row_serve(benchmark::State& state, const ml::GbtRegressor& model) {
  const auto& f = MethodFixture::get();
  const auto compiled = ml::CompiledEnsemble::compile(model);
  std::vector<double> out(compiled.n_outputs());
  // Warm the thread-local scratch so the timed loop is steady state.
  compiled.predict_row(f.x.row(0), out);
  bool allocated = false;
  std::size_t r = 0;
  for (auto _ : state) {
    const std::size_t before = g_alloc_count.load(std::memory_order_relaxed);
    compiled.predict_row(f.x.row(r), out);
    benchmark::DoNotOptimize(out.data());
    allocated |= g_alloc_count.load(std::memory_order_relaxed) != before;
    r = r + 1 == f.x.rows() ? 0 : r + 1;
  }
  if (allocated) state.SkipWithError("predict_row allocated on the hot path");
  state.counters["nodes"] = static_cast<double>(compiled.n_nodes());
  state.counters["word_bits"] = static_cast<double>(compiled.word_bits());
}

void BM_GbtPredictRowServe(benchmark::State& state) {
  predict_row_serve(state, serve_gbt_model());
}
BENCHMARK(BM_GbtPredictRowServe)->Unit(benchmark::kMicrosecond);

void BM_GbtPredictRowServeRefit(benchmark::State& state) {
  predict_row_serve(state, refit_gbt_model());
}
BENCHMARK(BM_GbtPredictRowServeRefit)->Unit(benchmark::kMicrosecond);

const ml::RandomForest& predict_forest_model() {
  static const ml::RandomForest model = [] {
    const auto& f = FitFixture::get();
    ml::ForestOptions options;
    options.n_trees = 25;
    ml::RandomForest m(options);
    m.fit(f.x, f.y);
    return m;
  }();
  return model;
}

void BM_ForestPredictRef(benchmark::State& state) {
  const auto& model = predict_forest_model();
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_ForestPredictRef)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ForestPredictCompiled(benchmark::State& state) {
  const auto compiled = ml::CompiledEnsemble::compile(predict_forest_model());
  const ml::Matrix x =
      tiled_rows(FitFixture::get().x, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(compiled.predict(x).flat().data());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(x.rows()));
}
BENCHMARK(BM_ForestPredictCompiled)->Arg(4096)->Unit(benchmark::kMillisecond);

void BM_ForestFit(benchmark::State& state) {
  const auto& f = FitFixture::get();
  ml::ForestOptions options;
  options.n_trees = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ml::RandomForest model(options);
    model.fit(f.x, f.y);
    benchmark::DoNotOptimize(model.fitted());
  }
}
BENCHMARK(BM_ForestFit)->Arg(10)->Arg(25)->Unit(benchmark::kMillisecond);

// ------------------------------------------------ assignment-path micro ----
// One Model-based assign() per queued job against an empty cluster: the
// per-job machine order is either memoized once by prime() (what the
// simulation engine now does) or re-derived on every call.

struct SchedFixture {
  std::vector<sched::Job> jobs;
  std::vector<sched::Machine> machines;

  static const SchedFixture& get() {
    static const SchedFixture f = [] {
      sim::CampaignOptions options;
      options.inputs_per_app = 4;
      const auto ds = core::build_dataset(run_campaign(apps(), systems(), options));
      core::CrossArchPredictor::Options popt;
      popt.gbt.n_rounds = 30;
      popt.gbt.max_depth = 4;
      core::CrossArchPredictor predictor(popt);
      predictor.train(ds);
      const auto predictions = predictor.predict(ds.features());
      return SchedFixture{sched::sample_jobs(ds, predictions, apps(), 4096, 3),
                          sched::default_cluster(systems())};
    }();
    return f;
  }
};

void assign_micro(benchmark::State& state, bool primed) {
  const auto& f = SchedFixture::get();
  std::array<int, arch::kNumSystems> free_nodes{};
  for (const auto& m : f.machines) {
    free_nodes[static_cast<std::size_t>(m.id)] = m.total_nodes;
  }
  const sched::ClusterView view(f.machines, free_nodes);
  sched::ModelBasedAssigner assigner;
  if (primed) assigner.prime(f.jobs);
  for (auto _ : state) {
    for (const auto& job : f.jobs) {
      benchmark::DoNotOptimize(assigner.assign(job, 0, view));
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(f.jobs.size()));
}

void BM_AssignModelBased(benchmark::State& state) { assign_micro(state, false); }
BENCHMARK(BM_AssignModelBased)->Unit(benchmark::kMicrosecond);

void BM_AssignModelBasedPrimed(benchmark::State& state) { assign_micro(state, true); }
BENCHMARK(BM_AssignModelBasedPrimed)->Unit(benchmark::kMicrosecond);

void BM_SchedulerSimulate(benchmark::State& state) {
  sim::CampaignOptions options;
  options.inputs_per_app = 4;
  const auto ds = core::build_dataset(run_campaign(apps(), systems(), options));
  core::CrossArchPredictor::Options popt;
  popt.gbt.n_rounds = 30;
  popt.gbt.max_depth = 4;
  core::CrossArchPredictor predictor(popt);
  predictor.train(ds);
  const auto predictions = predictor.predict(ds.features());
  const auto jobs = sched::sample_jobs(ds, predictions, apps(),
                                       static_cast<std::size_t>(state.range(0)), 3);
  const auto machines = sched::default_cluster(systems());
  for (auto _ : state) {
    sched::ModelBasedAssigner assigner;
    benchmark::DoNotOptimize(sched::simulate(jobs, machines, assigner).makespan_s);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerSimulate)->Arg(5000)->Arg(20000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
