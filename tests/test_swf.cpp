// Tests for the SWF trace reader (sched/swf.hpp) and the streaming
// workload generator (sched/workload_gen.hpp): both feed externally
// shaped job populations into the scheduling simulation, so parsing must
// fail loudly with context and the mappings must be deterministic.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "arch/system_catalog.hpp"
#include "common/strings.hpp"
#include "core/dataset.hpp"
#include "ml/matrix.hpp"
#include "sched/swf.hpp"
#include "sched/workload_gen.hpp"
#include "sim/runner.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc::sched {
namespace {

using arch::SystemId;

/// Shared reduced-size dataset for mapping tests, built once.
class SwfMapping : public ::testing::Test {
 protected:
  struct State {
    workload::AppCatalog apps;
    core::Dataset dataset;
  };

  static const State& state() {
    static const State s = [] {
      workload::AppCatalog apps;
      arch::SystemCatalog systems;
      sim::CampaignOptions campaign;
      campaign.inputs_per_app = 2;
      auto profiles = sim::run_campaign(apps, systems, campaign);
      core::Dataset dataset = core::build_dataset(profiles);
      return State{std::move(apps), std::move(dataset)};
    }();
    return s;
  }
};

SwfTrace parse(const std::string& text) {
  std::istringstream in(text);
  return parse_swf(in, "<test>");
}

/// One 18-field SWF job line with the given leading fields; the rest 0.
std::string swf_line(long long job, double submit, double run, int procs,
                     int requested = -1, int status = 1) {
  std::ostringstream out;
  out << job << " " << submit << " 0 " << run << " " << procs << " 0 0 "
      << requested << " 0 0 " << status << " 0 0 0 0 0 0 0\n";
  return out.str();
}

// ----------------------------------------------------------- parse_swf ----

TEST(SwfParser, ParsesDirectivesAndJobLines) {
  const auto trace = parse(
      "; Version: 2.2\n"
      ";   MaxNodes: 1024\n"
      "; SomeFutureDirective: kept verbatim\n"
      "; a bare comment without a colon\n"
      "\n" +
      swf_line(1, 0.0, 3600.0, 72, 72) + swf_line(2, 10.5, 120.0, 1));
  ASSERT_EQ(trace.directives.size(), 4u);
  EXPECT_EQ(trace.directives[0].first, "Version");
  EXPECT_EQ(trace.directives[0].second, "2.2");
  EXPECT_EQ(trace.directives[1].first, "MaxNodes");
  EXPECT_EQ(trace.directives[1].second, "1024");
  // Unknown directives are an open vocabulary: preserved, never rejected.
  EXPECT_EQ(trace.directives[2].first, "SomeFutureDirective");
  EXPECT_EQ(trace.directives[3].first, "a bare comment without a colon");
  EXPECT_EQ(trace.directives[3].second, "");

  ASSERT_EQ(trace.jobs.size(), 2u);
  EXPECT_EQ(trace.jobs[0].job_number, 1);
  EXPECT_EQ(trace.jobs[0].submit_s, 0.0);
  EXPECT_EQ(trace.jobs[0].run_s, 3600.0);
  EXPECT_EQ(trace.jobs[0].procs, 72);
  EXPECT_EQ(trace.jobs[0].requested_procs, 72);
  EXPECT_EQ(trace.jobs[0].status, 1);
  EXPECT_EQ(trace.jobs[1].job_number, 2);
  EXPECT_EQ(trace.jobs[1].submit_s, 10.5);
  EXPECT_EQ(trace.jobs[1].requested_procs, -1);
}

TEST(SwfParser, EmptyStreamYieldsEmptyTrace) {
  const auto trace = parse("");
  EXPECT_TRUE(trace.directives.empty());
  EXPECT_TRUE(trace.jobs.empty());
  const auto blank = parse("\n   \n\t\n");
  EXPECT_TRUE(blank.jobs.empty());
}

TEST(SwfParser, TruncatedJobLineDiagnosesOriginAndLineNumber) {
  const std::string text =
      "; Version: 2.2\n" + swf_line(1, 0.0, 60.0, 1) +
      "2 0 0 60 1 0 0 -1 0 0 1 0 0 0 0 0 0\n";  // 17 fields, line 3
  try {
    parse(text);
    FAIL() << "truncated line must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<test>:3"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 18"), std::string::npos) << what;
    EXPECT_NE(what.find("got 17"), std::string::npos) << what;
  }
}

TEST(SwfParser, NonNumericFieldDiagnosesFieldAndToken) {
  try {
    parse("1 0 0 60 abc 0 0 -1 0 0 1 0 0 0 0 0 0 0\n");
    FAIL() << "non-numeric field must throw";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("<test>:1"), std::string::npos) << what;
    EXPECT_NE(what.find("field 5"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
}

TEST(SwfParser, OverlongJobLineIsRejected) {
  const std::string line19 =
      "1 0 0 60 1 0 0 -1 0 0 1 0 0 0 0 0 0 0 99\n";  // 19 fields
  EXPECT_THROW(parse(line19), std::runtime_error);
}

TEST(SwfParser, MissingFileThrows) {
  EXPECT_THROW(read_swf_file("/nonexistent/trace.swf"), std::runtime_error);
}

// ------------------------------------------------------- jobs_from_swf ----

TEST_F(SwfMapping, MapsRuntimeNodesAndSubmitOntoJobs) {
  const auto& s = state();
  const auto trace = parse(swf_line(1, 0.0, 3600.0, 72) +     // 2 nodes
                           swf_line(2, 100.0, 120.0, 1) +     // 1 node
                           swf_line(3, 200.0, 60.0, 720) +    // clamped to 2
                           swf_line(4, -5.0, 30.0, -1, 40));  // requested used
  SwfMapOptions options;
  options.procs_per_node = 36;
  options.max_nodes = 2;
  options.seed = 7;
  SwfMapStats stats;
  const auto jobs = jobs_from_swf(trace, s.dataset, s.apps, options, &stats);

  ASSERT_EQ(jobs.size(), 4u);
  EXPECT_EQ(stats.mapped, 4u);
  EXPECT_EQ(stats.skipped_no_runtime, 0u);
  EXPECT_EQ(stats.skipped_no_procs, 0u);

  // Dense sequential ids in trace order; traced-system runtime is the SWF
  // run time *exactly*, and the predicted RPV matches the (rescaled)
  // runtimes bit-for-bit.
  const double run_s[] = {3600.0, 120.0, 60.0, 30.0};
  const int nodes[] = {2, 1, 2, 2};
  const double submit[] = {0.0, 100.0, 200.0, 0.0};  // negative clamped
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    EXPECT_EQ(jobs[j].id, static_cast<int>(j));
    EXPECT_EQ(jobs[j].runtime[static_cast<std::size_t>(SystemId::kQuartz)],
              run_s[j]);
    EXPECT_EQ(jobs[j].nodes_required, nodes[j]);
    EXPECT_EQ(jobs[j].submit_s, submit[j]);
    ASSERT_LT(jobs[j].row, s.dataset.num_rows());
    EXPECT_EQ(jobs[j].gpu_capable,
              s.apps.get(s.dataset.apps()[jobs[j].row]).gpu_support);
    const auto expected =
        core::Rpv::relative_to(jobs[j].runtime, SystemId::kQuartz);
    EXPECT_EQ(jobs[j].predicted.values(), expected.values());
    for (const double t : jobs[j].runtime) {
      EXPECT_TRUE(std::isfinite(t));
      EXPECT_GT(t, 0.0);
    }
  }
}

TEST_F(SwfMapping, PreservesDatasetRowRpvUpToRescaling) {
  // Each mapped job borrows its dataset row's cross-architecture shape:
  // its runtime vector is a positive scalar multiple of that row's times.
  const auto& s = state();
  const auto trace = parse(swf_line(1, 0.0, 500.0, 36));
  const auto jobs = jobs_from_swf(trace, s.dataset, s.apps, {});
  ASSERT_EQ(jobs.size(), 1u);
  const auto& job = jobs[0];
  ASSERT_LT(job.row, s.dataset.num_rows());
  const double scale =
      job.runtime[0] / s.dataset.time_on(job.row, SystemId::kQuartz);
  EXPECT_GT(scale, 0.0);
  for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
    const double want =
        s.dataset.time_on(job.row, static_cast<SystemId>(k)) * scale;
    EXPECT_LE(std::abs(job.runtime[k] - want),
              1e-12 * std::max(job.runtime[k], want))
        << "system " << k;
  }
}

TEST_F(SwfMapping, SkipsUnusableJobsAndTallies) {
  const auto& s = state();
  const auto trace = parse(swf_line(1, 0.0, -1.0, 36) +      // unknown runtime
                           swf_line(2, 0.0, 0.0, 36) +       // zero runtime
                           swf_line(3, 0.0, 60.0, -1, -1) +  // no proc count
                           swf_line(4, 0.0, 60.0, 36));      // fine
  SwfMapStats stats;
  const auto jobs = jobs_from_swf(trace, s.dataset, s.apps, {}, &stats);
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].id, 0);  // ids stay dense after skips
  EXPECT_EQ(stats.mapped, 1u);
  EXPECT_EQ(stats.skipped_no_runtime, 2u);
  EXPECT_EQ(stats.skipped_no_procs, 1u);
}

TEST_F(SwfMapping, MappingIsDeterministicPerSeed) {
  const auto& s = state();
  std::string text;
  for (int i = 0; i < 50; ++i) {
    text += swf_line(i, 10.0 * i, 60.0 + i, 1 + i);
  }
  const auto trace = parse(text);
  SwfMapOptions options;
  options.seed = 21;
  const auto a = jobs_from_swf(trace, s.dataset, s.apps, options);
  const auto b = jobs_from_swf(trace, s.dataset, s.apps, options);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t j = 0; j < a.size(); ++j) {
    EXPECT_EQ(a[j].row, b[j].row);
    EXPECT_EQ(a[j].runtime, b[j].runtime);
    EXPECT_EQ(a[j].predicted.values(), b[j].predicted.values());
  }
}

// ------------------------------------------- streaming workload (scale) ----

/// Predictions stand-in: the dataset's own true time ratios (tests only
/// need *some* deterministic rows x 4 matrix).
ml::Matrix true_ratio_matrix(const core::Dataset& dataset) {
  ml::Matrix m(dataset.num_rows(), arch::kNumSystems);
  for (std::size_t r = 0; r < dataset.num_rows(); ++r) {
    const double base = dataset.time_on(r, SystemId::kQuartz);
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
      m(r, k) = dataset.time_on(r, static_cast<SystemId>(k)) / base;
    }
  }
  return m;
}

TEST_F(SwfMapping, StreamJobsMatchesSampleJobsBitwise) {
  const auto& s = state();
  const auto predictions = true_ratio_matrix(s.dataset);
  const auto sampled = sample_jobs(s.dataset, predictions, s.apps, 500, 99);

  std::vector<Job> streamed;
  WorkloadOptions options;
  options.count = 500;
  options.seed = 99;
  stream_jobs(
      s.dataset,
      [&predictions](std::size_t row) {
        std::array<double, arch::kNumSystems> ratios{};
        for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
          ratios[k] = predictions(row, k);
        }
        return core::Rpv(ratios);
      },
      s.apps, options, [&streamed](Job&& job) { streamed.push_back(job); });

  ASSERT_EQ(streamed.size(), sampled.size());
  for (std::size_t j = 0; j < sampled.size(); ++j) {
    EXPECT_EQ(streamed[j].id, sampled[j].id);
    EXPECT_EQ(streamed[j].row, sampled[j].row);
    EXPECT_EQ(streamed[j].gpu_capable, sampled[j].gpu_capable);
    EXPECT_EQ(streamed[j].nodes_required, sampled[j].nodes_required);
    EXPECT_EQ(streamed[j].runtime, sampled[j].runtime);
    EXPECT_EQ(streamed[j].predicted.values(), sampled[j].predicted.values());
    EXPECT_EQ(streamed[j].submit_s, sampled[j].submit_s);
  }
}

TEST_F(SwfMapping, ArrivalRateSpreadsSubmitsWithoutPerturbingRows) {
  // Arrivals draw from an independent derived stream: turning them on
  // must keep the sampled rows (row, runtimes, predictions) identical and
  // only add strictly increasing submit times.
  const auto& s = state();
  const auto predicted = [](std::size_t) { return core::Rpv({1, 1, 1, 1}); };

  const auto collect = [&](double rate) {
    std::vector<Job> jobs;
    WorkloadOptions options;
    options.count = 300;
    options.seed = 42;
    options.arrival_rate_per_s = rate;
    stream_jobs(s.dataset, predicted, s.apps, options,
                [&jobs](Job&& job) { jobs.push_back(job); });
    return jobs;
  };

  const auto batch = collect(0.0);
  const auto trickle = collect(0.05);
  ASSERT_EQ(batch.size(), trickle.size());
  double last_submit = 0.0;
  for (std::size_t j = 0; j < batch.size(); ++j) {
    EXPECT_EQ(batch[j].row, trickle[j].row);
    EXPECT_EQ(batch[j].runtime, trickle[j].runtime);
    EXPECT_EQ(batch[j].submit_s, 0.0);
    EXPECT_GT(trickle[j].submit_s, last_submit);
    last_submit = trickle[j].submit_s;
  }
}

/// Every field a scheduler reads from a job, as raw bytes.
std::string job_bytes(const std::vector<Job>& jobs) {
  std::string bytes;
  const auto put = [&bytes](const auto& v) {
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    bytes.append(raw, sizeof v);
  };
  for (const Job& job : jobs) {
    put(job.id);
    put(job.gpu_capable);
    put(job.nodes_required);
    put(job.submit_s);
    for (const double t : job.runtime) put(t);
    for (const double p : job.predicted.values()) put(p);
  }
  return bytes;
}

TEST_F(SwfMapping, SampledAndMappedJobsDigestsPinned) {
  // FNV-1a digests of the jobs sample_jobs and jobs_from_swf draw from
  // this dataset. They pin row sampling and each row's GPU flag, node
  // count and runtimes; the constants are never edited to follow a change.
  const auto& s = state();
  const auto sampled =
      sample_jobs(s.dataset, true_ratio_matrix(s.dataset), s.apps, 2000, 7);
  EXPECT_EQ(format_hex64(fnv1a_64(job_bytes(sampled))), "f1392691ad9312d9");

  std::string text;
  for (int i = 0; i < 200; ++i) text += swf_line(i + 1, 10.0 * i, 60.0 + i, 1 + 3 * i);
  SwfMapOptions options;
  options.seed = 21;
  const auto mapped = jobs_from_swf(parse(text), s.dataset, s.apps, options);
  ASSERT_EQ(mapped.size(), 200u);
  EXPECT_EQ(format_hex64(fnv1a_64(job_bytes(mapped))), "42ffb7e546589bb6");
}

TEST_F(SwfMapping, SampleJobsShapeMismatchThrowsWithBothShapes) {
  const auto& s = state();
  const ml::Matrix wrong(3, arch::kNumSystems);
  try {
    (void)sample_jobs(s.dataset, wrong, s.apps, 10, 1);
    FAIL() << "shape mismatch must throw";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("3x4"), std::string::npos) << what;
    EXPECT_NE(what.find(std::to_string(s.dataset.num_rows()) + "x4"),
              std::string::npos)
        << what;
  }
}

}  // namespace
}  // namespace mphpc::sched
