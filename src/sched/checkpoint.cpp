#include "sched/checkpoint.hpp"

#include <cmath>
#include <limits>

#include "common/contract.hpp"

namespace mphpc::sched {

long long CheckpointPolicy::checkpoints_during(double work_s) const noexcept {
  if (!enabled() || work_s <= interval_s) return 0;
  // Largest k with k * interval strictly below the attempt's work. The
  // floor can land one high when work is an exact multiple (floating
  // division rounding up); the correction keeps the "no checkpoint at
  // completion" rule exact.
  auto k = static_cast<long long>(std::floor(work_s / interval_s));
  while (k > 0 && static_cast<double>(k) * interval_s >= work_s) --k;
  return k;
}

double CheckpointPolicy::attempt_duration(double work_s) const noexcept {
  if (!enabled()) return work_s;  // bit-identical to the no-checkpoint path
  return work_s +
         static_cast<double>(checkpoints_during(work_s)) * overhead_s;
}

CheckpointPolicy::KillAccount CheckpointPolicy::account_kill(double elapsed_s,
                                                             double work_s) const {
  MPHPC_EXPECTS(elapsed_s >= 0.0 && work_s > 0.0);
  KillAccount account;
  if (!enabled()) {
    account.lost_work_s = elapsed_s;  // restart-from-zero: everything is lost
    return account;
  }
  const long long total = checkpoints_during(work_s);
  // The attempt alternates `interval` of work with `overhead` of writing;
  // checkpoint j completes at wall offset j * (interval + overhead).
  const double cycle = interval_s + overhead_s;
  auto done = static_cast<long long>(std::floor(elapsed_s / cycle));
  while (done > 0 && static_cast<double>(done) * cycle > elapsed_s) --done;
  if (done > total) done = total;
  const double into_cycle = elapsed_s - static_cast<double>(done) * cycle;
  account.checkpoints = done;
  account.saved_work_s = static_cast<double>(done) * interval_s;
  account.overhead_paid_s = static_cast<double>(done) * overhead_s;
  if (done >= total) {
    // Past the last write: the remainder is the final uncheckpointed
    // stretch of work.
    account.lost_work_s = into_cycle;
  } else if (into_cycle <= interval_s) {
    account.lost_work_s = into_cycle;  // mid-work, nothing of it saved yet
  } else {
    // Mid-write: the full interval being written is not yet durable, and
    // the partial write counts as overhead.
    account.lost_work_s = interval_s;
    account.overhead_paid_s += into_cycle - interval_s;
  }
  return account;
}

AdaptiveYoungDalyPlanner::AdaptiveYoungDalyPlanner(double overhead_s,
                                                   double prior_mtbf_s,
                                                   double prior_weight)
    : overhead_s_(overhead_s),
      prior_mtbf_s_(prior_mtbf_s),
      prior_weight_(prior_weight) {
  MPHPC_EXPECTS(overhead_s >= 0.0);
  MPHPC_EXPECTS(prior_weight > 0.0);
}

void AdaptiveYoungDalyPlanner::begin(int total_nodes) {
  MPHPC_EXPECTS(total_nodes > 0);
  total_nodes_ = static_cast<double>(total_nodes);
  failures_ = 0;
}

double AdaptiveYoungDalyPlanner::estimated_mtbf_s(double now_s) const {
  // Blend `prior_weight_` pseudo-failures at the prior MTBF with the
  // failures actually observed over the node-time elapsed so far:
  //   MTBF ~ (node_time + prior_weight * prior) / (failures + prior_weight)
  // With no prior and no observations the estimate is +infinity (nothing
  // suggests failures happen), which disables checkpointing.
  const double node_time = total_nodes_ * std::max(now_s, 0.0);
  const double prior_mass =
      prior_mtbf_s_ > 0.0 ? prior_weight_ * prior_mtbf_s_ : 0.0;
  const double prior_count = prior_mtbf_s_ > 0.0 ? prior_weight_ : 0.0;
  const double count = static_cast<double>(failures_) + prior_count;
  if (count <= 0.0) return std::numeric_limits<double>::infinity();
  return (node_time + prior_mass) / count;
}

CheckpointPolicy AdaptiveYoungDalyPlanner::policy_for(const Job& job,
                                                      double now_s) {
  (void)job;
  if (overhead_s_ <= 0.0) return {};
  const double mtbf = estimated_mtbf_s(now_s);
  if (!std::isfinite(mtbf) || mtbf <= 0.0) return {};
  return {young_daly_interval(overhead_s_, mtbf), overhead_s_};
}

void AdaptiveYoungDalyPlanner::observe_node_failure(double time_s) {
  MPHPC_EXPECTS(time_s >= 0.0);
  ++failures_;
}

double young_daly_interval(double overhead_s, double mtbf_s) {
  MPHPC_EXPECTS(overhead_s > 0.0 && mtbf_s > 0.0);
  return std::sqrt(2.0 * overhead_s * mtbf_s);
}

double trace_node_mtbf_s(const FaultTrace& trace,
                         const std::vector<Machine>& machines, double horizon_s) {
  MPHPC_EXPECTS(horizon_s > 0.0);
  long long failures = 0;
  for (const NodeEvent& event : trace.events) {
    if (event.time_s >= horizon_s) break;  // events are time-sorted
    if (event.delta < 0) ++failures;
  }
  long long nodes = 0;
  for (const Machine& m : machines) nodes += m.total_nodes;
  MPHPC_EXPECTS(nodes > 0);
  if (failures == 0) return std::numeric_limits<double>::infinity();
  return horizon_s * static_cast<double>(nodes) / static_cast<double>(failures);
}

}  // namespace mphpc::sched
