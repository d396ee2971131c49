#include "sched/workload_gen.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "common/contract.hpp"
#include "common/distributions.hpp"
#include "common/rng.hpp"

namespace mphpc::sched {

std::vector<JobTemplate> job_templates(const core::Dataset& dataset,
                                       const workload::AppCatalog& apps) {
  const auto& app_names = dataset.apps();
  const auto& scale_names = dataset.scales();
  std::vector<JobTemplate> templates(dataset.num_rows());
  for (std::size_t row = 0; row < templates.size(); ++row) {
    JobTemplate& t = templates[row];
    t.gpu_capable = apps.get(app_names[row]).gpu_support;
    t.nodes_required = scale_names[row] == "2node" ? 2 : 1;
    for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
      t.runtime[k] = dataset.time_on(row, static_cast<arch::SystemId>(k));
    }
  }
  return templates;
}

void stream_jobs(const core::Dataset& dataset, const RowRpv& predicted,
                 const workload::AppCatalog& apps, const WorkloadOptions& options,
                 const std::function<void(Job&&)>& sink) {
  MPHPC_EXPECTS(dataset.num_rows() > 0);
  MPHPC_EXPECTS(static_cast<bool>(predicted) && static_cast<bool>(sink));
  MPHPC_EXPECTS(options.count <=
                static_cast<std::size_t>(std::numeric_limits<int>::max()));

  const std::size_t rows = dataset.num_rows();
  const std::vector<JobTemplate> templates = job_templates(dataset, apps);

  // Lazy per-row memo: a trace samples the same few hundred rows over and
  // over, so the predictor runs once per *row*, never once per job.
  std::vector<core::Rpv> row_rpv(rows);
  std::vector<char> row_done(rows, 0);

  Rng rng(options.seed);
  // Arrivals draw from their own derived stream so turning them on (or
  // changing the rate) never perturbs which rows are sampled.
  Rng arrivals(derive_seed(options.seed, "workload-arrivals"));
  double submit = 0.0;
  for (std::size_t j = 0; j < options.count; ++j) {
    const std::size_t row = rng.below(rows);
    if (!row_done[row]) {
      row_rpv[row] = predicted(row);
      row_done[row] = 1;
    }
    const JobTemplate& t = templates[row];
    Job job;
    job.id = static_cast<int>(j);
    job.row = row;
    job.gpu_capable = t.gpu_capable;
    job.nodes_required = t.nodes_required;
    job.runtime = t.runtime;
    job.predicted = row_rpv[row];
    if (options.arrival_rate_per_s > 0.0) {
      submit += exponential(arrivals, options.arrival_rate_per_s);
      job.submit_s = submit;
    }
    sink(std::move(job));
  }
}

std::vector<Job> sample_jobs(const core::Dataset& dataset,
                             const ml::Matrix& predictions,
                             const workload::AppCatalog& apps, std::size_t count,
                             std::uint64_t seed) {
  // Always-on (not a contract macro): a mis-shaped prediction matrix is a
  // caller data error that must fail loudly with context in every build
  // mode, including contract level 0 where MPHPC_EXPECTS compiles away.
  if (predictions.rows() != dataset.num_rows() ||
      predictions.cols() != arch::kNumSystems) {
    throw std::invalid_argument(
        "sample_jobs: predictions matrix is " +
        std::to_string(predictions.rows()) + "x" +
        std::to_string(predictions.cols()) + " but the dataset requires " +
        std::to_string(dataset.num_rows()) + "x" +
        std::to_string(arch::kNumSystems) +
        " (one predicted RPV row per dataset row)");
  }
  MPHPC_EXPECTS(dataset.num_rows() > 0);

  std::vector<Job> jobs;
  jobs.reserve(count);
  stream_jobs(
      dataset,
      [&predictions](std::size_t row) {
        std::array<double, arch::kNumSystems> predicted{};
        for (std::size_t k = 0; k < arch::kNumSystems; ++k) {
          predicted[k] = predictions(row, k);
        }
        return core::Rpv(predicted);
      },
      apps, WorkloadOptions{count, seed, 0.0},
      [&jobs](Job&& job) { jobs.push_back(std::move(job)); });
  return jobs;
}

}  // namespace mphpc::sched
