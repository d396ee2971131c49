// Tests for src/core: RPVs, feature pipeline, dataset assembly, the
// predictor, model selection, importance reporting.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "arch/system_catalog.hpp"
#include "common/error.hpp"
#include "common/strings.hpp"
#include "common/thread_pool.hpp"
#include "core/dataset.hpp"
#include "ml/mean_regressor.hpp"
#include "core/feature_pipeline.hpp"
#include "core/importance.hpp"
#include "core/model_selection.hpp"
#include "core/predictor.hpp"
#include "core/rpv.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc::core {
namespace {

using arch::SystemId;

// ------------------------------------------------------------------- rpv ----

TEST(Rpv, PaperWorkedExample) {
  // TestApp on X=10 min, Y=8 min, Z=21 min -> relative to X: [1.0, 0.8, 2.1].
  // Our vectors have four entries; use a fourth system at 15 min.
  const SystemTimes times = {10.0, 8.0, 21.0, 15.0};
  const Rpv rpv = Rpv::relative_to(times, SystemId::kQuartz);
  EXPECT_DOUBLE_EQ(rpv[0], 1.0);
  EXPECT_DOUBLE_EQ(rpv[1], 0.8);
  EXPECT_DOUBLE_EQ(rpv[2], 2.1);
  EXPECT_DOUBLE_EQ(rpv[3], 1.5);
}

TEST(Rpv, ReferenceEntryIsAlwaysOne) {
  const SystemTimes times = {3.0, 7.0, 2.0, 11.0};
  for (const SystemId ref : arch::kAllSystems) {
    EXPECT_DOUBLE_EQ(Rpv::relative_to(times, ref).time_ratio(ref), 1.0);
  }
}

TEST(Rpv, PlausibilityGuard) {
  const RpvGuardOptions bounds;  // defaults: [1e-3, 1e3]
  EXPECT_TRUE(is_plausible_rpv(Rpv({1.0, 0.8, 2.1, 1.5}), bounds));
  EXPECT_TRUE(is_plausible_rpv(Rpv({1e-3, 1e3, 1.0, 1.0}), bounds));  // inclusive
  EXPECT_FALSE(is_plausible_rpv(
      Rpv({std::numeric_limits<double>::quiet_NaN(), 1.0, 1.0, 1.0}), bounds));
  EXPECT_FALSE(is_plausible_rpv(
      Rpv({std::numeric_limits<double>::infinity(), 1.0, 1.0, 1.0}), bounds));
  EXPECT_FALSE(is_plausible_rpv(Rpv({1.0, -0.5, 1.0, 1.0}), bounds));
  EXPECT_FALSE(is_plausible_rpv(Rpv({1.0, 0.0, 1.0, 1.0}), bounds));
  EXPECT_FALSE(is_plausible_rpv(Rpv({1.0, 1.0, 1e9, 1.0}), bounds));
}

TEST(Rpv, NeutralRpvIsAllOnes) {
  const Rpv rpv = neutral_rpv();
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
  EXPECT_TRUE(is_plausible_rpv(rpv, {}));
}

TEST(Rpv, RelativeToMinAllEntriesAtMostOne) {
  // "min" = lowest performance = largest time.
  const SystemTimes times = {3.0, 7.0, 2.0, 11.0};
  const Rpv rpv = Rpv::relative_to_min(times);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_LE(rpv[k], 1.0);
  EXPECT_DOUBLE_EQ(rpv.time_ratio(SystemId::kCorona), 1.0);
}

TEST(Rpv, RelativeToMaxAllEntriesAtLeastOne) {
  const SystemTimes times = {3.0, 7.0, 2.0, 11.0};
  const Rpv rpv = Rpv::relative_to_max(times);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_GE(rpv[k], 1.0);
  EXPECT_DOUBLE_EQ(rpv.time_ratio(SystemId::kLassen), 1.0);
}

TEST(Rpv, FastestAndSlowest) {
  const SystemTimes times = {3.0, 7.0, 2.0, 11.0};
  const Rpv rpv = Rpv::relative_to(times, SystemId::kQuartz);
  EXPECT_EQ(rpv.fastest(), SystemId::kLassen);
  EXPECT_EQ(rpv.slowest(), SystemId::kCorona);
}

TEST(Rpv, OrderIsSorted) {
  const SystemTimes times = {3.0, 7.0, 2.0, 11.0};
  const auto order = Rpv::relative_to(times, SystemId::kRuby).order();
  EXPECT_EQ(order[0], SystemId::kLassen);
  EXPECT_EQ(order[1], SystemId::kQuartz);
  EXPECT_EQ(order[2], SystemId::kRuby);
  EXPECT_EQ(order[3], SystemId::kCorona);
}

TEST(Rpv, SpeedupIsReciprocal) {
  const SystemTimes times = {10.0, 5.0, 20.0, 10.0};
  const Rpv rpv = Rpv::relative_to(times, SystemId::kQuartz);
  EXPECT_DOUBLE_EQ(rpv.speedup(SystemId::kRuby), 2.0);
  EXPECT_DOUBLE_EQ(rpv.speedup(SystemId::kLassen), 0.5);
}

TEST(Rpv, RejectsNonPositiveTimes) {
  const SystemTimes times = {1.0, 0.0, 1.0, 1.0};
  EXPECT_THROW(Rpv::relative_to(times, SystemId::kQuartz), ContractViolation);
}

// ------------------------------------------------------ feature pipeline ----

class PipelineTest : public ::testing::Test {
 protected:
  workload::AppCatalog apps_;
  arch::SystemCatalog systems_;
  sim::Profiler profiler_{123};

  sim::RunProfile profile(const char* app, const char* system,
                          workload::ScaleClass scale) {
    const auto& sig = apps_.get(app);
    const auto inputs = workload::make_inputs(sig, 1, 123);
    return profiler_.profile(sig, inputs[0], scale, systems_.get(system));
  }
};

TEST_F(PipelineTest, TwentyOneFeatures) {
  EXPECT_EQ(FeaturePipeline::kNumFeatures, 21u);  // paper §V-D
  EXPECT_EQ(FeaturePipeline::feature_names().size(), 21u);
}

TEST_F(PipelineTest, IntensitiesAreRatios) {
  const auto p = profile("CoMD", "quartz", workload::ScaleClass::kOneNode);
  const auto f = FeaturePipeline::raw_features(p);
  double intensity_sum = 0.0;
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE(f[i], 0.0);
    EXPECT_LE(f[i], 1.0);
    intensity_sum += f[i];
  }
  EXPECT_LE(intensity_sum, 1.05);  // jitter can nudge past the exact mix sum
}

TEST_F(PipelineTest, OneHotMatchesSourceSystem) {
  const auto p = profile("CoMD", "lassen", workload::ScaleClass::kOneNode);
  const auto f = FeaturePipeline::raw_features(p);
  EXPECT_EQ(f[17], 0.0);  // quartz
  EXPECT_EQ(f[18], 0.0);  // ruby
  EXPECT_EQ(f[19], 1.0);  // lassen
  EXPECT_EQ(f[20], 0.0);  // corona
}

TEST_F(PipelineTest, UsesGpuFlag) {
  const auto gpu = profile("CoMD", "lassen", workload::ScaleClass::kOneNode);
  EXPECT_EQ(FeaturePipeline::raw_features(gpu)[16], 1.0);
  const auto cpu = profile("SW4lite", "lassen", workload::ScaleClass::kOneNode);
  EXPECT_EQ(FeaturePipeline::raw_features(cpu)[16], 0.0);
}

TEST_F(PipelineTest, NodesAndCores) {
  const auto p = profile("miniVite", "ruby", workload::ScaleClass::kTwoNodes);
  const auto f = FeaturePipeline::raw_features(p);
  EXPECT_EQ(f[14], 2.0);    // nodes
  EXPECT_EQ(f[15], 112.0);  // cores = 2 x 56
}

TEST_F(PipelineTest, StandardizationZeroesMeans) {
  // Fit over a batch of raw rows, then check the standardized columns.
  std::vector<double> raw;
  std::vector<sim::RunProfile> profiles;
  for (const auto app : {"CoMD", "AMG", "SWFFT", "XSBench"}) {
    for (const auto sys : {"quartz", "ruby", "lassen", "corona"}) {
      profiles.push_back(profile(app, sys, workload::ScaleClass::kOneNode));
    }
  }
  for (const auto& p : profiles) {
    const auto f = FeaturePipeline::raw_features(p);
    raw.insert(raw.end(), f.begin(), f.end());
  }
  FeaturePipeline pipeline;
  pipeline.fit(raw, profiles.size());
  double sum = 0.0;
  for (const auto& p : profiles) {
    sum += pipeline.features(p)[FeaturePipeline::kFirstStandardized];
  }
  EXPECT_NEAR(sum / static_cast<double>(profiles.size()), 0.0, 1e-9);
}

TEST_F(PipelineTest, SerializeRoundTrips) {
  std::vector<double> raw;
  const auto p1 = profile("CoMD", "quartz", workload::ScaleClass::kOneCore);
  const auto p2 = profile("AMG", "corona", workload::ScaleClass::kOneNode);
  for (const auto* p : {&p1, &p2}) {
    const auto f = FeaturePipeline::raw_features(*p);
    raw.insert(raw.end(), f.begin(), f.end());
  }
  FeaturePipeline pipeline;
  pipeline.fit(raw, 2);
  const FeaturePipeline restored = FeaturePipeline::deserialize(pipeline.serialize());
  const auto a = pipeline.features(p1);
  const auto b = restored.features(p1);
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

TEST_F(PipelineTest, UnfittedTransformThrows) {
  const FeaturePipeline pipeline;
  FeaturePipeline::FeatureVector f{};
  EXPECT_THROW(pipeline.transform(f), ContractViolation);
}

// ---------------------------------------------------------------- dataset ----

class DatasetTest : public ::testing::Test {
 protected:
  static const Dataset& dataset() {
    static const Dataset ds = [] {
      const workload::AppCatalog apps;
      const arch::SystemCatalog systems;
      sim::CampaignOptions options;
      options.inputs_per_app = 3;
      return build_dataset(sim::run_campaign(apps, systems, options));
    }();
    return ds;
  }
};

TEST_F(DatasetTest, RowCountMatchesCampaign) {
  EXPECT_EQ(dataset().num_rows(), 20u * 3u * 4u * 3u);
}

TEST_F(DatasetTest, HasAllColumns) {
  const std::string csv = dataset().to_csv();
  const std::string header = csv.substr(0, csv.find('\n'));
  std::vector<std::string> expected = {"app", "input", "system", "scale", "time_s"};
  for (const auto& names : {Dataset::feature_column_names(),
                            Dataset::target_column_names(),
                            Dataset::time_column_names()}) {
    expected.insert(expected.end(), names.begin(), names.end());
  }
  ASSERT_EQ(expected.size(), Dataset::kNumColumns);
  EXPECT_EQ(expected.size(), 34u);
  EXPECT_EQ(split(header, ','), expected);
  EXPECT_EQ(expected[5], "branch_intensity");
  EXPECT_EQ(expected[26], "rpv_quartz");
  EXPECT_EQ(expected[33], "time_corona");
}

TEST(DatasetDigest, CliTwoInputCsvBytesPinned) {
  // The bytes `mphpc dataset --inputs 2` writes (480 rows, the CLI's
  // campaign options), pinned by an FNV-1a digest. A change to any label,
  // feature, target or time cell, or to the number format, moves it; the
  // constant is never edited to follow such a change.
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  sim::CampaignOptions options;
  options.inputs_per_app = 2;
  const Dataset ds =
      build_dataset(sim::run_campaign(apps, systems, options, &ThreadPool::shared()));
  ASSERT_EQ(ds.num_rows(), 480u);
  const std::string csv = ds.to_csv();
  EXPECT_EQ(format_hex64(fnv1a_64(csv)), "3c7f03ba0ff4161c");
}

TEST_F(DatasetTest, SourceSystemTargetIsOne) {
  // rpv entry for the row's own system is exactly 1 by construction.
  const auto& ds = dataset();
  const auto y = ds.targets();
  for (std::size_t r = 0; r < ds.num_rows(); ++r) {
    const auto source = arch::parse_system(ds.systems()[r]);
    ASSERT_TRUE(source.has_value());
    EXPECT_DOUBLE_EQ(y(r, static_cast<std::size_t>(*source)), 1.0);
  }
}

TEST_F(DatasetTest, TrueRpvMatchesTargets) {
  const auto& ds = dataset();
  const auto y = ds.targets();
  for (const std::size_t r : {std::size_t{0}, std::size_t{100}, std::size_t{500}}) {
    const Rpv rpv = ds.true_rpv(r);
    for (std::size_t k = 0; k < 4; ++k) EXPECT_DOUBLE_EQ(rpv[k], y(r, k));
  }
}

TEST_F(DatasetTest, FeatureMatrixShape) {
  const auto x = dataset().features();
  EXPECT_EQ(x.rows(), dataset().num_rows());
  EXPECT_EQ(x.cols(), FeaturePipeline::kNumFeatures);
}

TEST_F(DatasetTest, RowSelection) {
  const std::vector<std::size_t> rows = {1, 5, 9};
  const auto x = dataset().features(rows);
  EXPECT_EQ(x.rows(), 3u);
}

TEST_F(DatasetTest, TimesArePositive) {
  const auto& ds = dataset();
  for (std::size_t r = 0; r < ds.num_rows(); r += 37) {
    for (const SystemId id : arch::kAllSystems) EXPECT_GT(ds.time_on(r, id), 0.0);
  }
}

TEST(DatasetBuild, RejectsIncompleteGroups) {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  sim::CampaignOptions options;
  options.inputs_per_app = 1;
  auto profiles = sim::run_campaign(apps, systems, options);
  profiles.pop_back();  // drop one run -> a group is incomplete
  EXPECT_THROW(build_dataset(profiles), ContractViolation);
}

// -------------------------------------------------------------- predictor ----

TEST_F(DatasetTest, PredictorTrainsAndPredicts) {
  CrossArchPredictor::Options options;
  options.gbt.n_rounds = 30;
  options.gbt.max_depth = 4;
  CrossArchPredictor predictor(options);
  predictor.train(dataset());
  ASSERT_TRUE(predictor.trained());

  // Predict for a freshly profiled run.
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const sim::Profiler profiler(321);
  const auto& app = apps.get("CoMD");
  const auto inputs = workload::make_inputs(app, 1, 321);
  const auto profile = profiler.profile(app, inputs[0], workload::ScaleClass::kOneNode,
                                        systems.get("quartz"));
  const Rpv rpv = predictor.predict(profile);
  for (std::size_t k = 0; k < 4; ++k) EXPECT_GT(rpv[k], 0.0);
  // The source-system entry should be near 1.
  EXPECT_NEAR(rpv.time_ratio(SystemId::kQuartz), 1.0, 0.2);
}

TEST_F(DatasetTest, PredictorSaveLoadRoundTrips) {
  CrossArchPredictor::Options options;
  options.gbt.n_rounds = 20;
  options.gbt.max_depth = 3;
  CrossArchPredictor predictor(options);
  predictor.train(dataset());
  const std::string path = ::testing::TempDir() + "/predictor.mphpc";
  predictor.save(path);
  const CrossArchPredictor restored = CrossArchPredictor::load(path);
  const auto x = dataset().features();
  const auto a = predictor.predict(x);
  const auto b = restored.predict(x);
  for (std::size_t i = 0; i < a.flat().size(); ++i) {
    EXPECT_DOUBLE_EQ(a.flat()[i], b.flat()[i]);
  }
}

TEST(Predictor, UntrainedUseThrows) {
  const CrossArchPredictor predictor;
  EXPECT_THROW(predictor.predict(ml::Matrix(1, 21)), ContractViolation);
}

// -------------------------------------------------- predictor load failures ----

CrossArchPredictor small_predictor(const Dataset& dataset) {
  CrossArchPredictor::Options options;
  options.gbt.n_rounds = 20;
  options.gbt.max_depth = 3;
  CrossArchPredictor predictor(options);
  predictor.train(dataset);
  return predictor;
}

/// The serialized text of a small trained predictor.
std::string saved_predictor_text(const Dataset& dataset, const std::string& tag) {
  const std::string path = ::testing::TempDir() + "/predictor_" + tag + ".mphpc";
  small_predictor(dataset).save(path);
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string write_temp(const std::string& tag, const std::string& text) {
  const std::string path = ::testing::TempDir() + "/corrupt_" + tag + ".mphpc";
  std::ofstream out(path);
  out << text;
  return path;
}

TEST(Predictor, LoadMissingFileThrows) {
  EXPECT_THROW(CrossArchPredictor::load("/nonexistent/model.mphpc"),
               std::runtime_error);
}

TEST_F(DatasetTest, LoadRejectsFileWithoutSectionMarker) {
  const std::string text = saved_predictor_text(dataset(), "nomarker");
  const std::size_t marker = text.find("=== model ===");
  ASSERT_NE(marker, std::string::npos);
  // Everything before the marker is a valid pipeline but not a predictor.
  const std::string path = write_temp("nomarker", text.substr(0, marker));
  EXPECT_THROW(CrossArchPredictor::load(path), ParseError);
}

TEST_F(DatasetTest, LoadRejectsTruncatedPipelineSection) {
  const std::string text = saved_predictor_text(dataset(), "truncpipe");
  // Keep only the first pipeline line, then the marker and model: the
  // pipeline deserializer must reject the truncation.
  const std::size_t first_newline = text.find('\n');
  const std::size_t marker = text.find("=== model ===");
  ASSERT_NE(first_newline, std::string::npos);
  ASSERT_NE(marker, std::string::npos);
  ASSERT_LT(first_newline, marker);
  const std::string path = write_temp(
      "truncpipe", text.substr(0, first_newline + 1) + text.substr(marker));
  EXPECT_THROW(CrossArchPredictor::load(path), ParseError);
}

TEST_F(DatasetTest, LoadRejectsCorruptModelSection) {
  const std::string text = saved_predictor_text(dataset(), "badmodel");
  const std::size_t marker = text.find("=== model ===");
  ASSERT_NE(marker, std::string::npos);
  const std::string path =
      write_temp("badmodel", text.substr(0, marker) + "=== model ===\nnot a model\n");
  EXPECT_THROW(CrossArchPredictor::load(path), ParseError);
}

// ------------------------------------------------------- guarded predictor ----

sim::RunProfile sample_profile() {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const sim::Profiler profiler(321);
  const auto& app = apps.get("CoMD");
  const auto inputs = workload::make_inputs(app, 1, 321);
  return profiler.profile(app, inputs[0], workload::ScaleClass::kOneNode,
                          systems.get("quartz"));
}

/// Model text for a GBT of single-leaf trees with the given shape.
std::string leaf_model_text(std::size_t n_out, std::size_t n_feat) {
  std::string text = "gbt " + std::to_string(n_out) + " " + std::to_string(n_feat) +
                     "\nmethod hist 64\nbase";
  for (std::size_t k = 0; k < n_out; ++k) text += " 0.5";
  for (const char* line : {"\nimportance_gain", "\nimportance_count"}) {
    text += line;
    for (std::size_t f = 0; f < n_feat; ++f) text += " 0";
  }
  text += "\n";
  for (std::size_t k = 0; k < n_out; ++k) {
    text += "tree " + std::to_string(k) + " 1\n-1 0 -1 -1 0.25\n";
  }
  return text;
}

TEST_F(DatasetTest, FromTextRejectsModelOfWrongShape) {
  // The pipeline emits 21 features and predict() reads one ratio per
  // system, so a model of any other shape must fail to load, not to predict.
  const std::string text = saved_predictor_text(dataset(), "shape");
  const std::size_t marker = text.find("=== model ===");
  ASSERT_NE(marker, std::string::npos);
  const std::string pipeline = text.substr(0, marker) + "=== model ===\n";
  const CrossArchPredictor good =
      CrossArchPredictor::from_text(pipeline + leaf_model_text(4, 21));
  EXPECT_DOUBLE_EQ(good.predict(sample_profile())[0], 0.75);
  for (const auto& [n_out, n_feat] :
       {std::pair{1, 3}, std::pair{4, 20}, std::pair{3, 21}, std::pair{5, 21}}) {
    EXPECT_THROW((void)CrossArchPredictor::from_text(
                     pipeline + leaf_model_text(static_cast<std::size_t>(n_out),
                                                static_cast<std::size_t>(n_feat))),
                 ParseError)
        << n_out << " outputs, " << n_feat << " features";
  }
}

TEST(GuardedPredictor, DefaultConstructedIsDegraded) {
  GuardedPredictor guarded;
  EXPECT_FALSE(guarded.healthy());
  const Rpv rpv = guarded.predict(sample_profile());
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
  EXPECT_EQ(guarded.fallback_count(), 1);
}

TEST(GuardedPredictor, LoadFailureDegradesInsteadOfThrowing) {
  GuardedPredictor guarded = GuardedPredictor::load("/nonexistent/model.mphpc", {});
  EXPECT_FALSE(guarded.healthy());
  EXPECT_FALSE(guarded.last_error().empty());
  const Rpv rpv = guarded.predict(sample_profile());
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
  EXPECT_EQ(guarded.fallback_count(), 1);
}

TEST_F(DatasetTest, GuardedPredictorLoadOfCorruptFileDegrades) {
  const std::string text = saved_predictor_text(dataset(), "guarded");
  const std::size_t marker = text.find("=== model ===");
  ASSERT_NE(marker, std::string::npos);
  const std::string path =
      write_temp("guarded", text.substr(0, marker) + "=== model ===\ngarbage\n");
  GuardedPredictor guarded = GuardedPredictor::load(path, {});
  EXPECT_FALSE(guarded.healthy());
  EXPECT_FALSE(guarded.last_error().empty());
  const Rpv rpv = guarded.predict(sample_profile());
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
}

TEST_F(DatasetTest, GuardedPredictorPassesThroughPlausiblePredictions) {
  GuardedPredictor guarded(small_predictor(dataset()), {});
  ASSERT_TRUE(guarded.healthy());
  const auto profile = sample_profile();
  const Rpv rpv = guarded.predict(profile);
  EXPECT_TRUE(is_plausible_rpv(rpv, guarded.bounds()));
  EXPECT_EQ(guarded.fallback_count(), 0);
  // Same numbers as the unguarded predictor.
  const Rpv direct = small_predictor(dataset()).predict(profile);
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
    EXPECT_DOUBLE_EQ(rpv[k], direct[k]);
  }
}

TEST_F(DatasetTest, GuardedPredictorRejectsOutOfBoundsPredictions) {
  // Bounds so tight no real cross-architecture RPV can satisfy them: the
  // guard must fall back to the neutral vector rather than let the value
  // through.
  RpvGuardOptions bounds;
  bounds.min_ratio = 0.999;
  bounds.max_ratio = 1.001;
  GuardedPredictor guarded(small_predictor(dataset()), bounds);
  ASSERT_TRUE(guarded.healthy());
  const Rpv rpv = guarded.predict(sample_profile());
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
  EXPECT_EQ(guarded.fallback_count(), 1);
  EXPECT_FALSE(guarded.last_error().empty());
}

// --------------------------------------------------------- batch prediction ----

std::vector<sim::RunProfile> varied_profiles() {
  const workload::AppCatalog apps;
  const arch::SystemCatalog systems;
  const sim::Profiler profiler(77);
  std::vector<sim::RunProfile> out;
  for (const auto* app : {"CoMD", "AMG", "SWFFT", "XSBench"}) {
    const auto& sig = apps.get(app);
    const auto inputs = workload::make_inputs(sig, 2, 77);
    for (const auto* sys : {"quartz", "ruby", "lassen", "corona"}) {
      for (const auto& input : inputs) {
        out.push_back(profiler.profile(sig, input, workload::ScaleClass::kOneNode,
                                       systems.get(sys)));
      }
    }
  }
  return out;
}

TEST_F(DatasetTest, PredictRpvsMatchesPerProfilePredict) {
  const CrossArchPredictor predictor = small_predictor(dataset());
  const auto profiles = varied_profiles();
  ThreadPool pool(4);
  const std::vector<Rpv> batch = predictor.predict_rpvs(profiles, &pool);
  const std::vector<Rpv> serial = predictor.predict_rpvs(profiles);
  ASSERT_EQ(batch.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const Rpv one = predictor.predict(profiles[i]);
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
      EXPECT_EQ(batch[i][k], one[k]) << "profile " << i;
      EXPECT_EQ(serial[i][k], one[k]) << "profile " << i;
    }
  }
}

TEST_F(DatasetTest, GuardedPredictRpvsMatchesPerProfilePredict) {
  GuardedPredictor batch_guard(small_predictor(dataset()), {});
  GuardedPredictor serial_guard(small_predictor(dataset()), {});
  const auto profiles = varied_profiles();
  const std::vector<Rpv> batch = batch_guard.predict_rpvs(profiles);
  ASSERT_EQ(batch.size(), profiles.size());
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const Rpv one = serial_guard.predict(profiles[i]);
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
      EXPECT_EQ(batch[i][k], one[k]) << "profile " << i;
    }
  }
  EXPECT_EQ(batch_guard.fallback_count(), serial_guard.fallback_count());
}

TEST_F(DatasetTest, GuardedPredictRpvsCountsPerRowFallbacks) {
  // Bounds no real RPV satisfies: every row degrades independently to the
  // neutral vector and bumps the counter.
  RpvGuardOptions bounds;
  bounds.min_ratio = 0.999;
  bounds.max_ratio = 1.001;
  GuardedPredictor guarded(small_predictor(dataset()), bounds);
  ASSERT_TRUE(guarded.healthy());
  const auto profiles = varied_profiles();
  const std::vector<Rpv> batch = guarded.predict_rpvs(profiles);
  for (const Rpv& rpv : batch) {
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
  }
  EXPECT_EQ(guarded.fallback_count(),
            static_cast<long long>(profiles.size()));
}

TEST(GuardedPredictor, DegradedPredictRpvsIsAllNeutral) {
  GuardedPredictor guarded;
  const auto profiles = varied_profiles();
  const std::vector<Rpv> batch = guarded.predict_rpvs(profiles);
  ASSERT_EQ(batch.size(), profiles.size());
  for (const Rpv& rpv : batch) {
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
  }
  EXPECT_EQ(guarded.fallback_count(), static_cast<long long>(profiles.size()));
}

// ------------------------------------------- guarded predictor: hot swap ----

TEST_F(DatasetTest, GuardedPredictorSwapPreservesHealthAndSnapshots) {
  GuardedPredictor guarded(small_predictor(dataset()), {});
  const auto before = guarded.snapshot();
  ASSERT_NE(before, nullptr);
  guarded.swap_model(small_predictor(dataset()));
  const auto after = guarded.snapshot();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(before.get(), after.get());  // a swap publishes a new object
  EXPECT_TRUE(guarded.healthy());
  // The old snapshot stays valid for readers that captured it pre-swap.
  EXPECT_TRUE(before->trained());
  (void)before->predict(sample_profile());
}

TEST_F(DatasetTest, GuardedPredictorExactFallbacksUnderConcurrentHotSwap) {
  // Several threads batch-predict in a loop while another thread keeps
  // hot-swapping the model. With bounds no real RPV can satisfy, EVERY
  // row must fall back; the counter being exactly threads*calls*rows
  // proves no row was lost or double-counted across any swap.
  constexpr int kThreads = 4;
  constexpr int kCalls = 20;
  const auto profiles = varied_profiles();
  RpvGuardOptions impossible;
  impossible.min_ratio = 1e-9;
  impossible.max_ratio = 2e-9;
  GuardedPredictor guarded(small_predictor(dataset()), impossible);
  const CrossArchPredictor donor = small_predictor(dataset());

  std::atomic<bool> stop{false};
  std::atomic<long long> non_neutral{0};
  std::atomic<long long> rows_not_flagged{0};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      guarded.swap_model(CrossArchPredictor(donor));
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      for (int c = 0; c < kCalls; ++c) {
        std::vector<std::uint8_t> fallback;
        const std::vector<Rpv> batch =
            guarded.predict_rpvs(profiles, nullptr, &fallback);
        for (std::size_t i = 0; i < batch.size(); ++i) {
          if (fallback[i] == 0) rows_not_flagged++;
          for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
            if (batch[i][k] != 1.0) non_neutral++;
          }
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  swapper.join();

  EXPECT_EQ(rows_not_flagged.load(), 0);
  EXPECT_EQ(non_neutral.load(), 0);
  EXPECT_EQ(guarded.fallback_count(),
            static_cast<long long>(kThreads) * kCalls *
                static_cast<long long>(profiles.size()));
  EXPECT_TRUE(guarded.healthy());  // plausibility fallback never degrades
}

TEST_F(DatasetTest, GuardedPredictorZeroFallbacksUnderConcurrentHotSwap) {
  // Same race, generous bounds: no row may spuriously fall back even when
  // predictions straddle a swap.
  constexpr int kThreads = 4;
  constexpr int kCalls = 20;
  const auto profiles = varied_profiles();
  GuardedPredictor guarded(small_predictor(dataset()), {});
  const CrossArchPredictor donor = small_predictor(dataset());

  std::atomic<bool> stop{false};
  std::atomic<long long> flagged{0};
  std::thread swapper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      guarded.swap_model(CrossArchPredictor(donor));
    }
  });
  std::vector<std::thread> readers;
  readers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    readers.emplace_back([&] {
      for (int c = 0; c < kCalls; ++c) {
        std::vector<std::uint8_t> fallback;
        (void)guarded.predict_rpvs(profiles, nullptr, &fallback);
        for (const std::uint8_t f : fallback) {
          if (f != 0) flagged++;
        }
      }
    });
  }
  for (std::thread& r : readers) r.join();
  stop.store(true);
  swapper.join();

  EXPECT_EQ(flagged.load(), 0);
  EXPECT_EQ(guarded.fallback_count(), 0);
}

TEST_F(DatasetTest, GuardedPredictorForcedDegradedOverridesHealthyModel) {
  GuardedPredictor guarded(small_predictor(dataset()), {});
  ASSERT_TRUE(guarded.healthy());
  guarded.set_forced_degraded(true, "drift tripped in a test");
  EXPECT_FALSE(guarded.healthy());
  EXPECT_TRUE(guarded.forced_degraded());
  const Rpv rpv = guarded.predict(sample_profile());
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) EXPECT_DOUBLE_EQ(rpv[k], 1.0);
  EXPECT_NE(guarded.last_error().find("drift tripped"), std::string::npos);
  guarded.set_forced_degraded(false);
  EXPECT_TRUE(guarded.healthy());
  EXPECT_EQ(guarded.predict(sample_profile()).values(),
            small_predictor(dataset()).predict(sample_profile()).values());
}

// --------------------------------------------------------- model selection ----

TEST(ModelSelection, FactoryProducesAllKinds) {
  for (const ModelKind kind : kAllModelKinds) {
    const auto model = make_model(kind);
    ASSERT_NE(model, nullptr);
    EXPECT_FALSE(model->fitted());
  }
  EXPECT_EQ(make_model(ModelKind::kXgboost)->name(), "xgboost");
  EXPECT_EQ(make_model(ModelKind::kForest)->name(), "decision forest");
}

TEST(ModelSelection, ToStringNames) {
  EXPECT_EQ(to_string(ModelKind::kMean), "mean");
  EXPECT_EQ(to_string(ModelKind::kLinear), "linear");
}

TEST_F(DatasetTest, CompareModelsRanksXgboostAboveMean) {
  const auto x = dataset().features();
  const auto y = dataset().targets();
  ComparisonOptions options;
  options.run_cv = false;
  const std::array<ModelKind, 2> kinds = {ModelKind::kMean, ModelKind::kXgboost};
  // Use a light XGB config through the factory defaults; the full-size
  // comparison lives in the fig2 bench.
  const auto results = compare_models(x, y, kinds, options);
  ASSERT_EQ(results.size(), 2u);
  EXPECT_LT(results[1].test.mae, results[0].test.mae);
  EXPECT_GT(results[1].test.sos, results[0].test.sos);
}

TEST_F(DatasetTest, CrossValidationRuns) {
  const auto x = dataset().features();
  const auto y = dataset().targets();
  std::vector<std::size_t> rows;
  for (std::size_t r = 0; r < 200; ++r) rows.push_back(r);
  const double cv = cross_validated_mae(ModelKind::kLinear, x, y, rows, 5, 1);
  EXPECT_GT(cv, 0.0);
}

TEST(Evaluate, ComputesAllMetrics) {
  const ml::Matrix truth(2, 2, {1, 2, 3, 4});
  const ml::Matrix pred(2, 2, {1, 2, 3, 4});
  const EvalMetrics m = evaluate(truth, pred);
  EXPECT_EQ(m.mae, 0.0);
  EXPECT_EQ(m.rmse, 0.0);
  EXPECT_EQ(m.sos, 1.0);
  EXPECT_EQ(m.r2, 1.0);
}

// -------------------------------------------------------------- importance ----

TEST(Importance, ReportSortedDescending) {
  // A fitted GBT on synthetic data exposes importances.
  ml::Matrix x(100, 3);
  ml::Matrix y(100, 1);
  Rng rng(5);
  for (std::size_t r = 0; r < 100; ++r) {
    x(r, 0) = rng.uniform();
    x(r, 1) = rng.uniform();
    x(r, 2) = rng.uniform();
    y(r, 0) = 5.0 * x(r, 0);
  }
  ml::GbtOptions options;
  options.n_rounds = 20;
  options.max_depth = 3;
  ml::GbtRegressor model(options);
  model.fit(x, y);
  const std::vector<std::string> names = {"relevant", "noise1", "noise2"};
  const auto report = importance_report(model, names);
  ASSERT_EQ(report.size(), 3u);
  EXPECT_EQ(report[0].feature, "relevant");
  for (std::size_t i = 1; i < report.size(); ++i) {
    EXPECT_GE(report[i - 1].importance, report[i].importance);
  }
  const auto top = top_k_features(report, 2);
  EXPECT_EQ(top[0], "relevant");
  const auto idx = top_k_feature_indices(report, names, 1);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0}));
}

TEST(Importance, ModelWithoutImportancesThrows) {
  ml::MeanRegressor model;
  ml::Matrix x(10, 2);
  ml::Matrix y(10, 1);
  for (std::size_t r = 0; r < 10; ++r) y(r, 0) = 1.0;
  model.fit(x, y);
  const std::vector<std::string> names = {"a", "b"};
  EXPECT_THROW(importance_report(model, names), ContractViolation);
}

}  // namespace
}  // namespace mphpc::core
