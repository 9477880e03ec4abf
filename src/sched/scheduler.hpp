// Slurm-like job scheduler driving the discrete-event engine.
//
// Implements the scheduling semantics the paper's evaluation depends on
// (Table 4): FCFS with EASY backfill, a 30 s scheduling/backfill interval,
// queue and backfill depth of 100, exclusive node allocation — plus the
// dynamic-memory machinery of §2.2/2.3:
//
//   * Monitor/Decider — every update interval (default 5 min, staggered per
//     job), the job's usage trace supplies the demand for the next window,
//   * Actuator — resize_to_demand() adjusts each (job, host) slot,
//   * Executor — progress/slowdown are re-projected and the job-end event is
//     rescheduled,
//   * Out-of-memory — Fail/Restart (resubmit from scratch) or
//     Checkpoint/Restart (resubmit retaining the last monitored progress),
//     with the §2.2 fairness mitigation: after N failures the job restarts
//     with a guaranteed static allocation.
//
// Jobs run at a rate of 1/slowdown; the slowdown comes from the contention
// model and changes whenever the borrow ledger changes.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cluster/cluster.hpp"
#include "monitor/monitor.hpp"
#include "obs/observer.hpp"
#include "policy/policy.hpp"
#include "sim/engine.hpp"
#include "sim/event_payload.hpp"
#include "slowdown/model.hpp"
#include "trace/job_spec.hpp"
#include "util/units.hpp"

namespace dmsim::snapshot {
class Writer;
class Reader;
}  // namespace dmsim::snapshot

namespace dmsim::sched {

enum class OomHandling {
  FailRestart,        ///< restart from the beginning (paper's default)
  CheckpointRestart,  ///< restart from the last monitored progress
};

/// Backfill flavour. EASY reserves for the blocked head job only;
/// Conservative additionally refuses to start any job that could delay an
/// *earlier* queued job's estimated reservation (approximated with the
/// current running set, as queued-job interactions are not simulated).
enum class BackfillMode {
  Off,
  Easy,          ///< paper's configuration (Slurm sched/backfill)
  Conservative,
};

/// How Monitor updates are driven (paper §2.3: the simulator batches update
/// commands on a global timer derived from the jobs' earliest progress; a
/// real deployment monitors per node, which staggering approximates).
enum class UpdateMode {
  PerJobStaggered,  ///< one event per job, phase-staggered (default)
  GlobalBatch,      ///< one global timer updating every running job
};

struct SchedulerConfig {
  Seconds sched_interval = 30.0;   ///< min spacing between scheduling passes
  int queue_depth = 100;           ///< FCFS pass examines at most this many
  int backfill_depth = 100;        ///< backfill pass examines at most this many
  bool enable_backfill = true;     ///< false forces BackfillMode::Off
  BackfillMode backfill_mode = BackfillMode::Easy;
  Seconds update_interval = 300.0; ///< Monitor period for dynamic jobs
  UpdateMode update_mode = UpdateMode::PerJobStaggered;
  /// How demand estimates are produced (oracle / sampled / adaptive). The
  /// default oracle reproduces the pre-monitor simulator byte-for-byte.
  monitor::MonitorConfig monitor;
  OomHandling oom_handling = OomHandling::FailRestart;
  /// After this many OOM failures a job restarts with a guaranteed (static,
  /// request-sized, update-exempt) allocation. 0 disables the mitigation.
  int guaranteed_after_failures = 3;
  /// Alternative §2.2 mitigation: each OOM failure raises the job's requeue
  /// priority by this amount, moving it ahead of lower-priority pending jobs
  /// (FIFO order is kept within a priority level). 0 disables boosting.
  int priority_boost_per_failure = 0;
  /// Abandon a job outright after this many restarts (safety valve).
  int max_restarts = 100;
  bool enforce_walltime = false;   ///< kill jobs exceeding their time limit
  /// If > 0, record a (time, allocated, used, busy-nodes, pending) sample
  /// every this many seconds.
  Seconds sample_interval = 0.0;
};

enum class JobOutcome {
  NeverStarted,     ///< trace drained with the job still pending (or infeasible)
  Completed,
  AbandonedOom,     ///< exceeded max_restarts
  KilledWalltime,
};

struct JobRecord {
  JobId id{};
  Seconds submit_time = kNoTime;  ///< original submission (restarts keep it)
  Seconds first_start = kNoTime;
  Seconds last_start = kNoTime;
  Seconds end_time = kNoTime;     ///< final completion
  int num_nodes = 0;
  MiB requested_mem = 0;
  MiB peak_usage = 0;
  int oom_failures = 0;
  bool ran_guaranteed = false;    ///< finished under the fairness mitigation
  bool infeasible = false;        ///< rejected at submit: can never run here
  JobOutcome outcome = JobOutcome::NeverStarted;

  [[nodiscard]] Seconds response_time() const noexcept {
    return end_time - submit_time;
  }
  [[nodiscard]] Seconds wait_time() const noexcept {
    return first_start - submit_time;
  }
};

struct SystemSample {
  Seconds time = 0.0;
  MiB allocated = 0;
  MiB used = 0;       ///< ground-truth usage of running jobs
  int busy_nodes = 0;
  std::size_t pending_jobs = 0;
};

struct SchedulerTotals {
  std::uint64_t completed = 0;
  std::uint64_t oom_events = 0;
  std::uint64_t requeues = 0;
  std::uint64_t fcfs_starts = 0;
  std::uint64_t backfill_starts = 0;
  std::uint64_t guaranteed_starts = 0;
  std::uint64_t update_events = 0;
  std::uint64_t scheduling_passes = 0;
  std::uint64_t abandoned = 0;
  std::uint64_t walltime_kills = 0;
};

class Scheduler : public sim::EventHandler {
 public:
  /// `pool` may be nullptr: all jobs are then contention-insensitive.
  /// `observer` (optional, must outlive the scheduler) wires structured
  /// event tracing and the sched.* counters; run() publishes the final
  /// SchedulerTotals into the registry.
  Scheduler(sim::Engine& engine, cluster::Cluster& cluster,
            policy::AllocationPolicy& policy, const slowdown::AppPool* pool,
            SchedulerConfig config, const obs::Observer* observer = nullptr);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Register the workload: feasible jobs get submit events; infeasible ones
  /// are recorded (outcome NeverStarted, infeasible flag) and never queued.
  void submit_workload(trace::Workload workload);

  /// Inject additional jobs into an already-submitted (possibly restored)
  /// run — the what-if overlay's extra-submission edit. Ids must be fresh;
  /// each spec's submit time is clamped to the current clock and its
  /// dependency fields are cleared (overlay jobs are independent — the base
  /// workload's dependency graph must not grow edges mid-run). Note the
  /// config fingerprint hashes the workload as submitted; callers restoring
  /// snapshots must apply extra submissions after the restore.
  void submit_extra_jobs(std::vector<trace::JobSpec> extra);

  /// Drive the engine to completion. Afterwards every feasible job has a
  /// terminal outcome. Equivalent to run_ready(+inf) + finalize().
  void run();

  /// Fire every event with time <= until without advancing the clock past
  /// the last fired event — the checkpoint cut primitive. The simulation
  /// state afterwards is exactly the mid-run state of an uninterrupted run,
  /// so it may be snapshotted or resumed with further run_ready() calls.
  /// Returns the number of events fired.
  std::uint64_t run_ready(Seconds until);

  /// Close out a drained run: settle utilization integrals, fix the
  /// horizon, verify every feasible job reached a terminal outcome and
  /// publish the sched.* totals. Call exactly once, after the engine
  /// drains.
  void finalize();

  [[nodiscard]] const SchedulerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const trace::Workload& workload() const noexcept {
    return workload_;
  }

  /// Serialize queues, running-job lifecycle, records, samples, totals and
  /// utilization integrals. The workload itself is NOT serialized — restore
  /// requires submit_workload() to have been called with the identical
  /// workload (enforced by the checkpoint layer's config fingerprint).
  void save_state(snapshot::Writer& writer) const;

  /// Rebuild scheduler state from save_state bytes. Must be called after
  /// submit_workload() with the same workload; the slowdown cache is reset
  /// and rebuilt incrementally (bitwise-equal recompute, so replay is
  /// unaffected). Restore the engine first: pending-event handles in the
  /// snapshot must match the restored slab.
  void restore_state(snapshot::Reader& reader);

  [[nodiscard]] const std::vector<JobRecord>& records() const noexcept {
    return records_;
  }
  [[nodiscard]] const SchedulerTotals& totals() const noexcept { return totals_; }
  [[nodiscard]] const std::vector<SystemSample>& samples() const noexcept {
    return samples_;
  }
  [[nodiscard]] std::size_t infeasible_count() const noexcept {
    return infeasible_count_;
  }
  [[nodiscard]] std::size_t pending_count() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] std::size_t running_count() const noexcept {
    return running_.size();
  }

  /// Time-weighted averages over [0, makespan] for utilization metrics.
  [[nodiscard]] double avg_allocated_mib() const noexcept;
  [[nodiscard]] double avg_busy_nodes() const noexcept;

  /// Debug audit: recompute every running job's slowdown from scratch with
  /// the contention model and compare against the cached values. Pins the
  /// invariant that no event leaves a surviving job's slowdown stale —
  /// notably a GlobalBatch update whose OOM victims' kill_and_requeue calls
  /// are relied upon to refresh the survivors. O(jobs x edges); meant for
  /// tests and fuzz audits, not the hot path.
  [[nodiscard]] bool slowdowns_fresh() const;

 private:
  /// Typed-event dispatch: every production event the engine fires lands
  /// here. The payload<->member-function mapping is the whole reason the
  /// queue is serializable, so keep it exhaustive — no default case.
  void on_event(const sim::EventPayload& event) override;

  struct PendingEntry {
    std::size_t spec_index = 0;
    int restarts = 0;
    double checkpoint = 0.0;  ///< starting progress (C/R), 0 for F/R
    bool guaranteed = false;  ///< start with a static, update-exempt allocation
    int priority = 0;         ///< higher runs first; FIFO within a level
    /// When this entry (re)entered the queue — the wait-latency histogram
    /// measures start_time - enqueue_time per incarnation, not per job.
    Seconds enqueue_time = 0.0;
    /// Cached denial: if the cluster's change epoch still matches, the
    /// policy would deterministically deny again — replay without selection.
    std::uint64_t last_deny_epoch = 0;
    const char* last_deny_reason = nullptr;  ///< nullptr = no cached denial
  };

  /// Insert an entry keeping the queue sorted by (priority desc, FIFO).
  void enqueue_pending(PendingEntry entry);

  /// Publish pending_.size() to the sched.queue_depth gauge. Must run on
  /// every enqueue AND dequeue — FCFS pops and backfill erases included —
  /// or the gauge reads stale between scheduling passes.
  void set_queue_gauge();

  struct RunningJob {
    std::size_t spec_index = 0;
    Seconds start_time = 0.0;
    double progress = 0.0;       ///< fraction of work done, in [0, 1]
    Seconds last_fold = 0.0;     ///< when `progress` was last brought current
    double slowdown = 1.0;
    sim::EventId end_event{};
    sim::EventId update_event{};
    sim::EventId walltime_event{};
    double checkpoint = 0.0;     ///< last monitored progress (C/R restart point)
    int restarts = 0;
    bool guaranteed = false;
    /// Monitoring cost folded into the execution rate: the job runs at
    /// 1 / (slowdown * monitor_overhead). Exactly 1.0 under the oracle, so
    /// the fold is bit-exact identity there (x * 1.0 == x in IEEE 754).
    double monitor_overhead = 1.0;
    /// Per-node demand the last Monitor update provisioned for (the request
    /// until the first update). Monitors that model runtime OOM compare it
    /// against each elapsed window's true maximum.
    MiB provisioned = 0;
  };

  [[nodiscard]] const trace::JobSpec& spec_of(std::size_t index) const {
    return workload_[index];
  }
  [[nodiscard]] JobRecord& record_of(JobId id);

  void request_scheduling_pass();
  void scheduling_pass();
  /// Attempt to start `entry` via the policy. On denial the reason and the
  /// cluster epoch are cached in the entry so an unchanged cluster replays
  /// the denial (identical counters and trace) without re-selecting hosts.
  [[nodiscard]] bool try_start_entry(PendingEntry& entry);
  void start_running(const PendingEntry& entry);

  /// Earliest projected time the blocked head job could start, simulating
  /// running-job completions in walltime order (nodes + memory released).
  [[nodiscard]] Seconds reservation_shadow_time(const trace::JobSpec& head) const;

  /// Release jobs waiting on `pred` (now terminal): each dependent's submit
  /// event fires at max(its submit_time, now + its think_time).
  void release_dependents(JobId pred);

  void on_job_end(JobId id);
  void on_update(JobId id);
  void on_global_update();
  /// Fold progress, ask the monitor for the next-window demand and resize
  /// every slot of one running job.
  struct UpdateResult {
    bool remote_changed = false;
    bool oom = false;
    MiB released = 0;
    /// Monitor-chosen time until the job's next update. Defaults to the
    /// configured interval so the early-return paths (job about to end)
    /// reschedule exactly as before.
    Seconds next_interval = 0.0;
  };
  UpdateResult apply_update(RunningJob& rj, JobId id);
  /// Provision the zeroth window [start, first update): the staggered first
  /// update can arrive up to 1.5x update_interval after start, and the
  /// request-sized initial allocation was the only cover for that gap. Asks
  /// the monitor for the window demand and grows (never shrinks) any slot
  /// the request under-covers; an unsatisfiable grow forces the job's first
  /// update to fire immediately, which re-detects the shortfall and applies
  /// the configured OOM handling outside the scheduling pass.
  void cover_first_window(JobId id, RunningJob& rj, Seconds first_gap);
  void on_walltime(JobId id);
  void kill_and_requeue(JobId id, bool checkpoint_restart);

  /// Execution-rate divisor: contention slowdown with the modeled
  /// monitoring cost folded in. Bitwise equal to rj.slowdown whenever the
  /// overhead factor is 1.0 (always, under the oracle).
  [[nodiscard]] static double effective_slowdown(const RunningJob& rj) noexcept {
    return rj.slowdown * rj.monitor_overhead;
  }

  void fold_progress(RunningJob& rj);
  void project_end(JobId id, RunningJob& rj);
  void refresh_slowdowns();
  void cancel_job_events(RunningJob& rj);

  void touch_utilization();
  void take_sample();
  [[nodiscard]] MiB current_used_memory() const;

  /// Emit a job lifecycle event (guarded; no-op when tracing is off). The
  /// event joins the causal span of the job's `incarnation`-th run, with the
  /// matching queued span as parent.
  void trace_job(obs::EventKind kind, JobId id, int incarnation,
                 const char* detail = nullptr);
  /// Copy the final SchedulerTotals into the counters registry.
  void publish_totals();

  /// The snapshot section's field list, run by save_state / restore_state.
  template <class Self, class Ar>
  static void io(Self& self, Ar&& ar);

  sim::Engine& engine_;
  cluster::Cluster& cluster_;
  policy::AllocationPolicy& policy_;
  slowdown::ContentionModel model_;
  slowdown::IncrementalSlowdowns inc_slowdowns_{&model_};
  SchedulerConfig config_;
  std::unique_ptr<monitor::MemoryMonitor> monitor_;

  // refresh_slowdowns() scratch, reused across calls.
  std::vector<std::uint32_t> running_ids_scratch_;
  std::vector<slowdown::IncrementalSlowdowns::Update> slowdown_updates_;

  trace::Workload workload_;
  std::deque<PendingEntry> pending_;
  std::unordered_map<std::uint32_t, RunningJob> running_;
  /// SWF dependencies: predecessor id -> spec indices waiting on it.
  std::unordered_map<std::uint32_t, std::vector<std::size_t>> dependents_;
  std::unordered_map<std::uint32_t, std::size_t> record_index_;
  std::vector<JobRecord> records_;
  std::vector<SystemSample> samples_;
  SchedulerTotals totals_;
  std::size_t infeasible_count_ = 0;

  bool pass_scheduled_ = false;
  bool global_update_scheduled_ = false;
  /// Running jobs that participate in Monitor updates (dynamic policy, not
  /// guaranteed). The GlobalBatch timer chain stops when this hits zero —
  /// guaranteed jobs are update-exempt, so ticking for them is pure waste —
  /// and restarts when the next updatable job starts.
  int global_updatable_ = 0;
  Seconds last_pass_time_ = -1e18;

  // Time-weighted utilization integrals.
  Seconds util_last_touch_ = 0.0;
  double allocated_integral_ = 0.0;  // MiB * seconds
  double busy_integral_ = 0.0;       // nodes * seconds
  int busy_nodes_ = 0;
  Seconds horizon_ = 0.0;  // latest event time observed

  // Observability (all nullptr when disabled).
  const obs::Observer* obs_ = nullptr;
  std::uint64_t* c_submits_ = nullptr;
  std::uint64_t* c_backfill_attempts_ = nullptr;
  std::uint64_t* c_update_batches_ = nullptr;
  obs::Gauge* g_queue_depth_ = nullptr;
  obs::Gauge* g_running_ = nullptr;
  /// Wait latency (enqueue -> start) per start, simulated microseconds; the
  /// backfill variant covers backfill starts only.
  obs::Histogram* h_wait_ = nullptr;
  obs::Histogram* h_backfill_wait_ = nullptr;
  /// Actuator resize magnitudes per Monitor update (MiB grown/shrunk).
  /// Simulated quantities, not wall clock — exports must stay deterministic.
  obs::Histogram* h_grow_mib_ = nullptr;
  obs::Histogram* h_shrink_mib_ = nullptr;
  /// Tier-migration magnitude per Monitor update (MiB promoted to nearer
  /// tiers); only ever recorded on tiered topologies.
  obs::Histogram* h_migrate_mib_ = nullptr;
  /// Monitor-model instruments. Resolved only for non-oracle monitors so an
  /// oracle run's telemetry export stays byte-identical to the pre-monitor
  /// simulator (empty instruments would still create registry entries).
  obs::Histogram* h_mon_error_ = nullptr;
  obs::Histogram* h_mon_overhead_ = nullptr;
  obs::Gauge* g_mon_regions_ = nullptr;
};

}  // namespace dmsim::sched
