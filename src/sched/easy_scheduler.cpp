#include "sched/easy_scheduler.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>

#include "common/contract.hpp"
#include "common/rng.hpp"
#include "sched/event_queue.hpp"

namespace mphpc::sched {

namespace {

constexpr double kNoEvent = std::numeric_limits<double>::infinity();

// SimEvent::kind values. Each calendar queue carries a single kind today,
// but keeping them distinct preserves the global (time, kind, seq, sub)
// order — kills drain before releases at equal times, matching the event
// loop's processing order.
constexpr std::uint32_t kKillEvent = 0;
constexpr std::uint32_t kReleaseEvent = 1;

/// One running attempt in a machine's ledger.
struct RunningJob {
  std::size_t job = 0;
  int nodes = 0;
  double start = 0.0;
  double end = 0.0;
  /// Work seconds this attempt performs (runtime minus checkpointed
  /// progress); end - start additionally includes checkpoint overhead.
  double work = 0.0;
  /// The checkpoint policy this attempt runs under — fixed from
  /// SchedulerOptions, or the planner's per-attempt choice at start time.
  /// Completion/kill accounting must use this copy: an adaptive planner
  /// may hand later attempts a different policy.
  CheckpointPolicy policy{};
};

/// Running-job ledger of one machine, ordered by completion time, plus
/// the fault bookkeeping (down nodes and offline node-seconds).
struct MachineState {
  int total = 0;
  int free = 0;
  int down = 0;
  double down_last_change = 0.0;
  double down_node_seconds = 0.0;
  std::multimap<double, RunningJob> running;  ///< end time -> attempt

  /// Earliest time at which `nodes` can be free, and the projected free
  /// node count at that time. With nodes down this can be unreachable
  /// (kNoEvent) until a repair restores capacity.
  [[nodiscard]] std::pair<double, int> earliest_fit(double now, int nodes) const {
    if (free >= nodes) return {now, free};
    int projected = free;
    for (const auto& [end, rj] : running) {
      projected += rj.nodes;
      if (projected >= nodes) return {end, projected};
    }
    return {kNoEvent, projected};
  }

  [[nodiscard]] double next_completion() const noexcept {
    return running.empty() ? kNoEvent : running.begin()->first;
  }

  /// Accrues offline node-seconds up to `t`; call before `down` changes.
  void settle_downtime(double t) noexcept {
    down_node_seconds += (t - down_last_change) * static_cast<double>(down);
    down_last_change = t;
  }
};

/// Where a job's running ledger entry lives, when it is running.
struct RunningRef {
  bool active = false;
  std::size_t machine = 0;
  std::multimap<double, RunningJob>::iterator where;
};

/// Intrusive FCFS queue over job indices, with one sublist per class of
/// jobs sharing a (width, state key) pair — width is nodes_required, the
/// state key is the assigner's MachineAssigner::state_key. The main list
/// is the exact FCFS order (a monotone sequence number is stamped on
/// every push, so resubmissions re-enter at the back). The class
/// sublists let the backfill pass merge only the classes that can still
/// start; their live counts let it charge a class's unreached jobs to its
/// key without walking them. A job is in the queue at most once at a time
/// (queued -> running -> pending -> queued), which is what makes the
/// intrusive per-job links sound.
class FcfsQueue {
 public:
  static constexpr std::size_t kNull = std::numeric_limits<std::size_t>::max();

  /// Sizes the per-job link arrays and discovers the classes. The
  /// assigner must be primed: state keys are read once per job here.
  void init(const std::vector<Job>& jobs, const MachineAssigner& assigner) {
    const std::size_t n = jobs.size();
    next_.assign(n, kNull);
    prev_.assign(n, kNull);
    wnext_.assign(n, kNull);
    wprev_.assign(n, kNull);
    seq_.assign(n, 0);
    cls_.assign(n, 0);
    classes_.clear();
    const std::size_t keys = assigner.state_keys() + 1;  // key slot 0: pure calls
    int max_width = 0;
    for (const Job& job : jobs) max_width = std::max(max_width, job.nodes_required);
    std::vector<std::size_t> slot((static_cast<std::size_t>(max_width) + 1) * keys, kNull);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t key = assigner.state_key(jobs[i]);
      const std::size_t key_slot = key == MachineAssigner::kNoStateKey ? 0 : key + 1;
      MPHPC_ASSERT(key_slot < keys);
      const std::size_t at =
          static_cast<std::size_t>(jobs[i].nodes_required) * keys + key_slot;
      if (slot[at] == kNull) {
        slot[at] = classes_.size();
        classes_.push_back({jobs[i].nodes_required, key});
      }
      cls_[i] = slot[at];
    }
    head_ = tail_ = kNull;
    size_ = 0;
    seq_counter_ = 0;
  }

  void push_back(std::size_t j) {
    MPHPC_ASSERT(j < next_.size());
    seq_[j] = seq_counter_++;
    prev_[j] = tail_;
    next_[j] = kNull;
    if (tail_ == kNull) head_ = j; else next_[tail_] = j;
    tail_ = j;
    Class& c = classes_[cls_[j]];
    wprev_[j] = c.tail;
    wnext_[j] = kNull;
    if (c.tail == kNull) c.head = j; else wnext_[c.tail] = j;
    c.tail = j;
    ++c.live;
    ++size_;
  }

  void erase(std::size_t j) {
    MPHPC_ASSERT(j < next_.size() && size_ > 0);
    if (prev_[j] == kNull) head_ = next_[j]; else next_[prev_[j]] = next_[j];
    if (next_[j] == kNull) tail_ = prev_[j]; else prev_[next_[j]] = prev_[j];
    Class& c = classes_[cls_[j]];
    if (wprev_[j] == kNull) c.head = wnext_[j]; else wnext_[wprev_[j]] = wnext_[j];
    if (wnext_[j] == kNull) c.tail = wprev_[j]; else wprev_[wnext_[j]] = wprev_[j];
    --c.live;
    --size_;
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t front() const noexcept { return head_; }
  [[nodiscard]] std::size_t next(std::size_t j) const noexcept { return next_[j]; }
  [[nodiscard]] std::uint64_t seq(std::size_t j) const noexcept { return seq_[j]; }
  [[nodiscard]] std::size_t num_classes() const noexcept { return classes_.size(); }
  [[nodiscard]] int class_width(std::size_t c) const noexcept {
    return classes_[c].width;
  }
  /// The class's state key (MachineAssigner::kNoStateKey when pure).
  [[nodiscard]] std::size_t class_key(std::size_t c) const noexcept {
    return classes_[c].key;
  }
  [[nodiscard]] std::size_t class_head(std::size_t c) const noexcept {
    return classes_[c].head;
  }
  [[nodiscard]] std::size_t class_live(std::size_t c) const noexcept {
    return classes_[c].live;
  }
  [[nodiscard]] std::size_t wnext(std::size_t j) const noexcept { return wnext_[j]; }

 private:
  struct Class {
    int width = 0;
    std::size_t key = MachineAssigner::kNoStateKey;
    std::size_t head = kNull;
    std::size_t tail = kNull;
    std::size_t live = 0;  ///< queued jobs in the class
  };

  std::vector<std::size_t> next_, prev_;    // main FCFS list
  std::vector<std::size_t> wnext_, wprev_;  // per-class list
  std::vector<std::uint64_t> seq_;
  std::vector<std::size_t> cls_;  // job -> class slot
  std::vector<Class> classes_;
  std::size_t head_ = kNull;
  std::size_t tail_ = kNull;
  std::size_t size_ = 0;
  std::uint64_t seq_counter_ = 0;
};

/// The event engine (Algorithm 1 with fault replay): calendar queues for
/// releases and kills, the class-indexed FCFS queue, per-machine running
/// ledgers, and the job start/completion/kill/node-fault accounting.
/// Each scheduling pass backfills with one of two passes, chosen by
/// SchedulerOptions::engine: the indexed pass, or the full rescan it is
/// tested against (SimEngineKind::kReference). The passes differ only in
/// which candidates they call assign() on, so they give identical results
/// (bounded-depth stateless runs aside; see SchedulerOptions::backfill_depth).
/// Accounting branches on the *attempt's* policy, not on global options:
/// a disabled policy must credit (end - start) node-seconds, which is not
/// bitwise equal to `work` after the now + work round trip.
class Engine {
 public:
  Engine(const std::vector<Job>& jobs, const std::vector<Machine>& machines,
         MachineAssigner& assigner, const FaultTrace& faults,
         const SchedulerOptions& options)
      : jobs_(jobs),
        assigner_(assigner),
        faults_(faults),
        checkpoint_(options.checkpoint),
        planner_(options.planner),
        depth_limit_(options.backfill_depth == 0 ? std::numeric_limits<int>::max()
                                                 : options.backfill_depth),
        rescan_(options.engine == SimEngineKind::kReference),
        view_(machines, free_nodes_) {
    MPHPC_EXPECTS(!machines.empty());
    MPHPC_EXPECTS(options.backfill_depth >= 0);
    MPHPC_EXPECTS(options.checkpoint.interval_s >= 0.0);
    MPHPC_EXPECTS(options.checkpoint.overhead_s >= 0.0);
    MPHPC_EXPECTS(faults.retry.max_attempts >= 1);
    MPHPC_EXPECTS(faults.kill_probability >= 0.0 && faults.kill_probability <= 1.0);
    for (const Machine& m : machines) {
      auto& s = state_[static_cast<std::size_t>(m.id)];
      s.total = m.total_nodes;
      s.free = m.total_nodes;
      free_nodes_[static_cast<std::size_t>(m.id)] = m.total_nodes;
    }
    for (const Job& job : jobs_) {
      for (const Machine& m : machines) {
        MPHPC_EXPECTS(job.nodes_required <= m.total_nodes);
      }
      MPHPC_EXPECTS(job.nodes_required >= 1);
      MPHPC_EXPECTS(job.submit_s >= 0.0);
    }
  }

  [[nodiscard]] SimulationResult run() {
    // One pass over the job list lets order-memoizing assigners cache
    // each job's machine preference before any scheduling decision.
    assigner_.prime(jobs_);
    if (planner_ != nullptr) {
      int total = 0;
      for (const auto& s : state_) total += s.total;
      planner_->begin(total);
    }
    result_.outcomes.resize(jobs_.size());
    attempts_.assign(jobs_.size(), 0);
    saved_fraction_.assign(jobs_.size(), 0.0);
    running_ref_.resize(jobs_.size());
    // Must run after prime(): GuardedModelBasedAssigner only knows its
    // state keys once primed.
    queue_.init(jobs_, assigner_);
    stateful_ = assigner_.state_keys() > 0;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
      if (jobs_[i].submit_s <= 0.0) {
        queue_.push_back(i);
      } else {
        push_release(jobs_[i].submit_s, i);
      }
    }

    double now = 0.0;
    schedule_pass(now);
    while (finalized_ < jobs_.size()) {
      const double next = next_event_time();
      // Repairs are paired with failures, so capacity (and thus progress)
      // always returns; an infinite next event would be an engine bug.
      MPHPC_ASSERT(next != kNoEvent);
      now = next;
      process_completions(now);
      process_kills(now);
      process_node_events(now);
      release_pending(now);
      schedule_pass(now);
    }
    MPHPC_ENSURES(queue_.empty());
    finalize_result();
    return std::move(result_);
  }

 private:
  static constexpr std::uint64_t kNoLimit = std::numeric_limits<std::uint64_t>::max();

  void push_release(double t, std::size_t i) {
    pending_.push({t, kReleaseEvent, static_cast<std::uint64_t>(i), 0});
  }

  void start_job(std::size_t job_index, arch::SystemId m, double now) {
    const Job& job = jobs_[job_index];
    const auto mi = static_cast<std::size_t>(m);
    auto& s = state_[mi];
    const double runtime = job.runtime[mi];
    MPHPC_EXPECTS(runtime > 0.0 && s.free >= job.nodes_required);
    const CheckpointPolicy policy =
        planner_ != nullptr ? planner_->policy_for(job, now) : checkpoint_;
    MPHPC_ASSERT(policy.interval_s >= 0.0 && policy.overhead_s >= 0.0);
    // A resumed attempt only redoes the work past its last checkpoint.
    // Progress is tracked as a fraction of the job so a retry assigned to
    // a *different* machine (different runtime) resumes proportionally.
    // Checkpoints never land exactly at completion, so the saved fraction
    // is strictly below 1 and `work` stays positive. With no policy and no
    // saved progress: work == runtime with the same bits — the
    // restart-from-zero arithmetic is untouched. (The saved-fraction
    // disjunct matters under a planner that disables checkpointing for a
    // later attempt of a job with durable progress: that progress must
    // still be honoured.)
    const double work = policy.enabled() || saved_fraction_[job_index] > 0.0
                            ? runtime * (1.0 - saved_fraction_[job_index])
                            : runtime;
    MPHPC_ASSERT(work > 0.0);
    const double duration = policy.attempt_duration(work);
    s.free -= job.nodes_required;
    free_nodes_[mi] = s.free;
    const int attempt = ++attempts_[job_index];
    const auto it = s.running.emplace(
        now + duration,
        RunningJob{job_index, job.nodes_required, now, now + duration, work, policy});
    running_ref_[job_index] = {true, mi, it};
    result_.outcomes[job_index] = {m, now, now + duration, job.submit_s, attempt, false};
    if (faults_.kill_probability > 0.0) {
      // Per-attempt draw from its own derived stream, so kill decisions
      // are independent of scheduling order and machine choice.
      Rng rng(derive_seed(faults_.seed, "job-kill",
                          static_cast<std::uint64_t>(job.id),
                          static_cast<std::uint64_t>(attempt)));
      if (rng.bernoulli(faults_.kill_probability)) {
        kills_.push({now + rng.uniform() * duration, kKillEvent,
                     static_cast<std::uint64_t>(job_index),
                     static_cast<std::uint64_t>(attempt)});
      }
    }
    ++started_count_;
  }

  [[nodiscard]] double next_event_time() const {
    double next = kNoEvent;
    for (const auto& s : state_) next = std::min(next, s.next_completion());
    next = std::min(next, kills_.next_time());
    if (trace_pos_ < faults_.events.size()) {
      next = std::min(next, faults_.events[trace_pos_].time_s);
    }
    next = std::min(next, pending_.next_time());
    return next;
  }

  void process_completions(double now) {
    for (std::size_t mi = 0; mi < state_.size(); ++mi) {
      auto& s = state_[mi];
      while (!s.running.empty() && s.running.begin()->first <= now) {
        const RunningJob rj = s.running.begin()->second;
        s.free += rj.nodes;
        s.running.erase(s.running.begin());
        running_ref_[rj.job].active = false;
        if (rj.policy.enabled()) {
          // Split the occupied span into committed work and checkpoint
          // overhead so utilization counts real progress only.
          const long long written = rj.policy.checkpoints_during(rj.work);
          result_.node_seconds[mi] += rj.work * static_cast<double>(rj.nodes);
          result_.checkpoint_overhead_node_seconds[mi] +=
              static_cast<double>(written) * rj.policy.overhead_s *
              static_cast<double>(rj.nodes);
          result_.checkpoints_written += written;
        } else {
          result_.node_seconds[mi] += (rj.end - rj.start) * static_cast<double>(rj.nodes);
        }
        ++result_.completed_jobs;
        ++finalized_;
      }
      free_nodes_[mi] = s.free;
    }
  }

  /// Kills the running attempt of `job_index` at time `t`, returning its
  /// nodes to the free pool and either resubmitting the job with backoff
  /// or abandoning it once the retry budget is spent.
  void kill_running_job(std::size_t job_index, double t) {
    RunningRef& ref = running_ref_[job_index];
    MPHPC_ASSERT(ref.active);
    auto& s = state_[ref.machine];
    const RunningJob rj = ref.where->second;
    if (rj.policy.enabled()) {
      const auto account = rj.policy.account_kill(t - rj.start, rj.work);
      saved_fraction_[job_index] +=
          account.saved_work_s / jobs_[job_index].runtime[ref.machine];
      const auto nodes = static_cast<double>(rj.nodes);
      result_.recovered_node_seconds[ref.machine] += account.saved_work_s * nodes;
      result_.lost_node_seconds[ref.machine] += account.lost_work_s * nodes;
      result_.checkpoint_overhead_node_seconds[ref.machine] +=
          account.overhead_paid_s * nodes;
      result_.checkpoints_written += account.checkpoints;
    } else {
      result_.lost_node_seconds[ref.machine] +=
          (t - rj.start) * static_cast<double>(rj.nodes);
    }
    s.running.erase(ref.where);
    ref.active = false;
    s.free += rj.nodes;
    free_nodes_[ref.machine] = s.free;
    ++result_.jobs_killed;

    JobOutcome& outcome = result_.outcomes[job_index];
    outcome.end_s = t;
    if (attempts_[job_index] >= faults_.retry.max_attempts) {
      outcome.abandoned = true;
      ++result_.abandoned_jobs;
      ++finalized_;
      return;
    }
    Rng rng(derive_seed(faults_.seed, "retry-jitter",
                        static_cast<std::uint64_t>(jobs_[job_index].id),
                        static_cast<std::uint64_t>(attempts_[job_index])));
    const double delay = faults_.retry.delay_s(attempts_[job_index], rng.uniform());
    push_release(t + delay, job_index);
    ++result_.total_retries;
  }

  void process_node_events(double now) {
    while (trace_pos_ < faults_.events.size() &&
           faults_.events[trace_pos_].time_s <= now) {
      const NodeEvent& event = faults_.events[trace_pos_++];
      const auto mi = static_cast<std::size_t>(event.machine);
      auto& s = state_[mi];
      if (event.delta < 0) {
        if (s.free == 0) {
          if (s.running.empty()) continue;  // machine already fully down
          // No idle node to take: the failure lands on an allocated one.
          // Kill the latest-finishing attempt (it has the least work to
          // lose per remaining second); its nodes return to the pool.
          kill_running_job(std::prev(s.running.end())->second.job, event.time_s);
        }
        MPHPC_ASSERT(s.free > 0);
        // Adaptive planners learn the failure rate online, strictly in
        // simulated-time order. Dropped events (machine fully down and
        // idle) are never observed — they removed no capacity.
        if (planner_ != nullptr) planner_->observe_node_failure(event.time_s);
        s.settle_downtime(event.time_s);
        ++s.down;
        --s.free;
      } else {
        MPHPC_ASSERT(s.down > 0);
        s.settle_downtime(event.time_s);
        --s.down;
        ++s.free;
      }
      free_nodes_[mi] = s.free;
    }
  }

  void finalize_result() {
    std::size_t completed = 0;
    for (const JobOutcome& o : result_.outcomes) {
      // Job state-machine invariant: submitted -> started -> finalized, so
      // every outcome runs forward in time on a real machine (an abandoned
      // attempt may be killed the instant it starts).
      MPHPC_ENSURES(o.start_s >= 0.0 &&
                    (o.abandoned ? o.end_s >= o.start_s : o.end_s > o.start_s));
      result_.makespan_s = std::max(result_.makespan_s, o.end_s);
      if (!o.abandoned) {
        result_.avg_wait_s += o.wait_s();
        ++completed;
      }
    }
    result_.avg_wait_s /= static_cast<double>(completed == 0 ? 1 : completed);
    result_.avg_bounded_slowdown = average_bounded_slowdown(result_.outcomes);
    for (std::size_t mi = 0; mi < state_.size(); ++mi) {
      auto& s = state_[mi];
      if (result_.makespan_s > s.down_last_change) {
        s.settle_downtime(result_.makespan_s);
      }
      result_.downtime_node_seconds[mi] = s.down_node_seconds;
    }
    MPHPC_ENSURES(result_.completed_jobs + result_.abandoned_jobs == jobs_.size());
  }

  void process_kills(double now) {
    while (!kills_.empty() && kills_.next_time() <= now) {
      const SimEvent e = kills_.pop_front();
      const auto job_index = static_cast<std::size_t>(e.seq);
      const int attempt = static_cast<int>(e.sub);
      // Stale entries: the attempt already completed, or was killed first
      // by a node failure (possibly restarted since).
      if (!running_ref_[job_index].active || attempts_[job_index] != attempt) continue;
      kill_running_job(job_index, e.time_s);
    }
  }

  void release_pending(double now) {
    while (!pending_.empty() && pending_.next_time() <= now) {
      // Resubmissions join the back of the FCFS queue: a killed job loses
      // its queue position, as in production schedulers.
      queue_.push_back(static_cast<std::size_t>(pending_.pop_front().seq));
    }
  }

  void schedule_pass(double now) {
    while (!queue_.empty()) {
      const std::size_t head = queue_.front();
      const arch::SystemId m = assigner_.assign(jobs_[head], started_count_, view_);
      const auto mi = static_cast<std::size_t>(m);
      if (state_[mi].free >= jobs_[head].nodes_required) {
        start_job(head, m, now);
        queue_.erase(head);
        continue;
      }

      // Head is blocked: reserve it at the shadow time on its machine.
      const auto [shadow_time, projected_free] =
          state_[mi].earliest_fit(now, jobs_[head].nodes_required);
      // No machine has a free node: nothing can backfill, and the full
      // rescan calls assign() on no candidate either.
      int max_free = 0;
      for (const auto& s : state_) max_free = std::max(max_free, s.free);
      if (max_free == 0) break;
      const Reservation r{m, shadow_time, projected_free - jobs_[head].nodes_required};
      if (rescan_) {
        backfill_rescan(now, head, r);
      } else {
        backfill(now, head, r);
      }
      break;  // head stays blocked until the next event
    }
  }

  /// The blocked head's reservation: its machine, its shadow time, and
  /// the nodes left over at the shadow time once the head is honoured
  /// (backfills running past the shadow time may consume these).
  struct Reservation {
    arch::SystemId machine;
    double shadow_time;
    int shadow_spare;
  };

  /// The start-or-skip rule both backfill passes apply to a candidate:
  /// assign it, and start it if its machine has room and, on the reserved
  /// machine, it either ends by the shadow time or fits in the spare
  /// nodes. Returns whether it started (and left the queue).
  bool try_backfill(std::size_t cand, double now, Reservation& r) {
    const Job& job = jobs_[cand];
    const arch::SystemId cm = assigner_.assign(job, started_count_, view_);
    const auto ci = static_cast<std::size_t>(cm);
    // Most candidates are rejected here. Without the hint GCC lays out the
    // indexed pass's loop for the start path, and a 50k-job depth-1000
    // simulation ran about 20% slower.
    if (state_[ci].free < job.nodes_required) [[likely]] return false;
    if (cm == r.machine && now + job.runtime[ci] > r.shadow_time) {
      // Same machine as the reservation: must not delay the head.
      if (r.shadow_spare < job.nodes_required) return false;
      r.shadow_spare -= job.nodes_required;
    }
    start_job(cand, cm, now);
    queue_.erase(cand);
    return true;
  }

  /// The full rescan (SimEngineKind::kReference), kept as the oracle the
  /// indexed pass is tested against: calls assign() on every queued job
  /// behind `head`, in FCFS order, up to the depth-th.
  void backfill_rescan(double now, std::size_t head, Reservation r) {
    std::size_t cand = queue_.next(head);
    for (int scanned = 0; cand != FcfsQueue::kNull && scanned < depth_limit_; ++scanned) {
      const std::size_t after = queue_.next(cand);  // a start erases cand
      try_backfill(cand, now, r);
      cand = after;
    }
  }

  /// The indexed pass: backfills behind `head` under its reservation `r`.
  ///
  /// Candidates are visited in FCFS order by merging the class sublists,
  /// but only from admitted classes: those whose width is at most the
  /// largest free count among the machines their key can reach
  /// (MachineAssigner::reachable). Free counts and started_count_ change
  /// only at a start, so bounds are recomputed only there: classes that
  /// no longer fit are dropped, and classes whose bound rose (Round-Robin
  /// moving to its next machine) are re-admitted past the last candidate
  /// visited. Calls skipped on a stateful key are charged lazily with
  /// MachineAssigner::skip — before the next call on that key, and at the
  /// end of the pass — which is exact because keys are independent.
  ///
  /// Depth (SchedulerOptions::backfill_depth): with a stateless assigner
  /// only visited candidates count; with a stateful one the pass stops
  /// where the full rescan would, at the depth-th job after the head.
  void backfill(double now, std::size_t head, Reservation r) {
    const std::uint64_t limit = depth_position(head);
    int visits_left = stateful_ ? std::numeric_limits<int>::max() : depth_limit_;
    lanes_.clear();
    for (std::size_t c = 0; c < queue_.num_classes(); ++c) {
      Lane lane{queue_.class_head(c), queue_.class_live(c), false};
      // The head has the lowest live sequence number, so it can only be
      // the front of its own class.
      if (lane.at == head) {
        lane.at = queue_.wnext(head);
        --lane.left;
      }
      lanes_.push_back(lane);
    }
    std::uint64_t last = queue_.seq(head);
    admit(last);

    while (visits_left > 0) {
      std::size_t best = FcfsQueue::kNull;
      std::uint64_t best_seq = kNoLimit;
      for (std::size_t c = 0; c < lanes_.size(); ++c) {
        const Lane& lane = lanes_[c];
        if (lane.admitted && lane.at != FcfsQueue::kNull &&
            queue_.seq(lane.at) < best_seq) {
          best = c;
          best_seq = queue_.seq(lane.at);
        }
      }
      if (best == FcfsQueue::kNull || best_seq > limit) break;
      const std::size_t cand = lanes_[best].at;
      charge_before(queue_.class_key(best), best_seq);
      lanes_[best].at = queue_.wnext(cand);
      --lanes_[best].left;
      last = best_seq;
      --visits_left;
      if (try_backfill(cand, now, r)) admit(last);
    }

    // Charge the calls the full rescan would have made past the last visit.
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
      charge(queue_.class_key(c), limit == kNoLimit ? lanes_[c].left : walk(c, limit + 1));
    }
  }

  /// Recomputes each class's admission after a start; a re-admitted class
  /// first walks past sequence number `last`.
  void admit(std::uint64_t last) {
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
      const std::size_t key = queue_.class_key(c);
      const MachineMask mask = assigner_.reachable(key, started_count_, view_);
      int bound = 0;
      for (std::size_t mi = 0; mi < state_.size(); ++mi) {
        if ((mask >> mi) & 1U) bound = std::max(bound, state_[mi].free);
      }
      const bool fits = queue_.class_width(c) <= bound;
      if (fits && !lanes_[c].admitted) charge(key, walk(c, last));
      lanes_[c].admitted = fits;
    }
  }

  /// Charges key `key` for its skipped candidates ahead of sequence
  /// number `seq`, so its counter is current for the call on `seq`.
  void charge_before(std::size_t key, std::uint64_t seq) {
    if (key == MachineAssigner::kNoStateKey) return;
    for (std::size_t c = 0; c < lanes_.size(); ++c) {
      if (!lanes_[c].admitted && queue_.class_key(c) == key) charge(key, walk(c, seq));
    }
  }

  /// Advances class c's lane past every job with sequence number below
  /// `end`; returns how many it passed.
  std::size_t walk(std::size_t c, std::uint64_t end) {
    Lane& lane = lanes_[c];
    std::size_t n = 0;
    while (lane.at != FcfsQueue::kNull && queue_.seq(lane.at) < end) {
      lane.at = queue_.wnext(lane.at);
      ++n;
    }
    lane.left -= n;
    return n;
  }

  /// Replays n skipped calls on key `key`; pure calls have nothing to replay.
  void charge(std::size_t key, std::size_t n) {
    if (key != MachineAssigner::kNoStateKey && n > 0) assigner_.skip(key, n);
  }

  /// Sequence number of the last candidate a bounded full rescan would
  /// visit behind `head`; kNoLimit for unbounded depth or a stateless
  /// assigner.
  [[nodiscard]] std::uint64_t depth_position(std::size_t head) const {
    if (!stateful_ || depth_limit_ == std::numeric_limits<int>::max()) return kNoLimit;
    std::size_t at = head;
    for (int i = 0; i < depth_limit_; ++i) {
      at = queue_.next(at);
      if (at == FcfsQueue::kNull) return kNoLimit;
    }
    return queue_.seq(at);
  }

  /// Per-class backfill cursor, scratch reused across passes.
  struct Lane {
    std::size_t at = FcfsQueue::kNull;  ///< next job not yet passed
    std::size_t left = 0;               ///< queued jobs from `at` on
    bool admitted = false;
  };

  const std::vector<Job>& jobs_;
  MachineAssigner& assigner_;
  const FaultTrace& faults_;
  const CheckpointPolicy checkpoint_;
  CheckpointPlanner* const planner_;
  const int depth_limit_;
  const bool rescan_;  ///< backfill with the full rescan (SimEngineKind::kReference)

  std::array<MachineState, arch::kNumSystems> state_{};
  std::array<int, arch::kNumSystems> free_nodes_{};
  const ClusterView view_;

  FcfsQueue queue_;
  CalendarQueue pending_;  ///< releases: resubmissions and deferred submits
  CalendarQueue kills_;    ///< pre-drawn random kills; stale entries skipped
  bool stateful_ = false;  ///< assigner_.state_keys() > 0 after prime
  std::vector<Lane> lanes_;

  std::vector<int> attempts_;
  /// Per-job fraction of total progress durably checkpointed across
  /// killed attempts; the next attempt on machine m resumes with
  /// runtime[m] * (1 - saved_fraction_) of work remaining (a fraction,
  /// not seconds, so resuming on a different machine scales correctly).
  std::vector<double> saved_fraction_;
  std::vector<RunningRef> running_ref_;
  std::size_t trace_pos_ = 0;
  std::size_t started_count_ = 0;
  std::size_t finalized_ = 0;
  SimulationResult result_;
};

}  // namespace

SimulationResult simulate(const std::vector<Job>& jobs,
                          const std::vector<Machine>& machines,
                          MachineAssigner& assigner, const SchedulerOptions& options) {
  return simulate(jobs, machines, assigner, FaultTrace::none(), options);
}

SimulationResult simulate(const std::vector<Job>& jobs,
                          const std::vector<Machine>& machines,
                          MachineAssigner& assigner, const FaultTrace& faults,
                          const SchedulerOptions& options) {
  Engine engine(jobs, machines, assigner, faults, options);
  return engine.run();
}

double average_bounded_slowdown(const std::vector<JobOutcome>& outcomes, double tau) {
  MPHPC_EXPECTS(tau > 0.0);
  double sum = 0.0;
  std::size_t completed = 0;
  for (const JobOutcome& o : outcomes) {
    if (o.abandoned) continue;  // never finished: slowdown is undefined
    const double run = o.run_s();
    const double slowdown = (o.wait_s() + run) / std::max(run, tau);
    sum += std::max(slowdown, 1.0);
    ++completed;
  }
  if (completed == 0) return 0.0;  // e.g. faults abandoned every job
  return sum / static_cast<double>(completed);
}

}  // namespace mphpc::sched
