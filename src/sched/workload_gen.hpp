// Scheduling-workload generation (paper §VII): samples N jobs from the
// MP-HPC dataset with replacement, attaching each job's observed per-system
// runtimes (the simulation ground truth) and the trained model's predicted
// RPV (what the Model-based strategy acts on).
//
// Two entry points share one sampling core:
//  - sample_jobs: the original matrix-backed API (one predicted row per
//    dataset row), materializing the full job vector.
//  - stream_jobs: the scale path. Predictions come from a per-row callback
//    (lazily memoized, so a 10^6-job trace evaluates the predictor once
//    per dataset row, not once per job), jobs are handed to a sink one at
//    a time, and an optional Poisson arrival process spreads submissions
//    over time. Row sampling is bit-compatible with sample_jobs: the same
//    seed draws the same row sequence whether or not arrivals are enabled
//    (arrival jitter comes from an independent derived stream).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/dataset.hpp"
#include "core/predictor.hpp"
#include "sched/job.hpp"
#include "workload/app_catalog.hpp"

namespace mphpc::sched {

/// What every job drawn from one dataset row shares: the app's GPU
/// support, the row's node count and its observed per-system runtimes.
struct JobTemplate {
  bool gpu_capable = false;
  int nodes_required = 1;
  core::SystemTimes runtime{};
};

/// One template per dataset row, built once per sampling call and shared
/// by stream_jobs, sample_jobs and jobs_from_swf.
[[nodiscard]] std::vector<JobTemplate> job_templates(
    const core::Dataset& dataset, const workload::AppCatalog& apps);

/// Parameters of a streamed workload.
struct WorkloadOptions {
  std::size_t count = 0;
  std::uint64_t seed = 0;
  /// Poisson arrival rate (jobs per simulated second). <= 0 keeps the
  /// paper's batch setting: every job submits at t = 0.
  double arrival_rate_per_s = 0.0;
};

/// Predicted RPV for a dataset row. stream_jobs memoizes calls per row,
/// so the provider may be arbitrarily expensive (a compiled model, a
/// true-RPV oracle) without costing per-job time.
using RowRpv = std::function<core::Rpv(std::size_t row)>;

/// Streams `options.count` sampled jobs into `sink`, in job-id order.
void stream_jobs(const core::Dataset& dataset, const RowRpv& predicted,
                 const workload::AppCatalog& apps,
                 const WorkloadOptions& options,
                 const std::function<void(Job&&)>& sink);

/// Samples `count` jobs (rows with replacement) from the dataset.
/// `predictions` must hold the model's predicted RPV entries for every
/// dataset row (rows x 4), e.g. `predictor.predict(dataset.features())`;
/// a shape mismatch throws std::invalid_argument naming both shapes (in
/// every build mode — this guards user-supplied data, not engine state).
[[nodiscard]] std::vector<Job> sample_jobs(const core::Dataset& dataset,
                                           const ml::Matrix& predictions,
                                           const workload::AppCatalog& apps,
                                           std::size_t count, std::uint64_t seed);

}  // namespace mphpc::sched
