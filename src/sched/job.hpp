// Jobs for the multi-resource scheduling simulation (paper §VII): each job
// is one dataset row (an application-input at a resource scale) carrying
// its observed runtime on every system and the model's predicted RPV.
#pragma once

#include <cstddef>

#include "core/rpv.hpp"

namespace mphpc::sched {

struct Job {
  int id = 0;
  std::size_t row = 0;       ///< dataset row the job was drawn from
  bool gpu_capable = false;  ///< app has a GPU code path (drives User+RR)
  int nodes_required = 1;    ///< whole-node allocation (1 or 2 in the study)
  double submit_s = 0.0;     ///< submission time (0 = batch submit, the paper)
  core::SystemTimes runtime{};  ///< observed execution time per system
  core::Rpv predicted;          ///< model-predicted RPV (time ratios)
};

/// Where and when a job ran in the simulation. Under fault injection a job
/// may need several attempts (earlier ones killed by node failures or
/// random kills); start_s/end_s describe the final attempt. An abandoned
/// job exhausted its retry budget: end_s is the kill time of its last
/// attempt and it never completed.
struct JobOutcome {
  arch::SystemId machine = arch::SystemId::kQuartz;
  double start_s = 0.0;
  double end_s = 0.0;
  double submit_s = 0.0;  ///< original submission time
  int attempts = 1;       ///< execution attempts consumed (>= 1 once started)
  bool abandoned = false; ///< true if the retry budget ran out

  [[nodiscard]] double wait_s() const noexcept { return start_s - submit_s; }
  [[nodiscard]] double run_s() const noexcept { return end_s - start_s; }
};

}  // namespace mphpc::sched
