#include "sched/scheduler.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_set>
#include <utility>

#include "snapshot/snapshot.hpp"
#include "util/error.hpp"

namespace dmsim::sched {

namespace {
constexpr double kProgressEps = 1e-12;
constexpr double kSlowdownEps = 1e-9;

/// Deterministic per-job phase in [0, 1) used to stagger Monitor updates so
/// they arrive "on average" every interval (§2.2) instead of in lockstep.
[[nodiscard]] double update_phase(JobId id) noexcept {
  const std::uint32_t h = id.get() * 2654435761u;
  return static_cast<double>(h % 4096u) / 4096.0;
}
}  // namespace

Scheduler::Scheduler(sim::Engine& engine, cluster::Cluster& cluster,
                     policy::AllocationPolicy& policy,
                     const slowdown::AppPool* pool, SchedulerConfig config,
                     const obs::Observer* observer)
    : engine_(engine),
      cluster_(cluster),
      policy_(policy),
      model_(pool),
      config_(std::move(config)),
      monitor_(monitor::make_monitor(config_.monitor)),
      obs_(observer) {
  DMSIM_ASSERT(config_.sched_interval >= 0.0, "negative scheduling interval");
  DMSIM_ASSERT(config_.queue_depth > 0, "queue depth must be positive");
  DMSIM_ASSERT(config_.backfill_depth >= 0, "negative backfill depth");
  DMSIM_ASSERT(config_.update_interval > 0.0, "update interval must be positive");
  DMSIM_ASSERT(config_.max_restarts > 0, "max_restarts must be positive");
  c_submits_ = obs::counter_handle(observer, "sched.submits");
  c_backfill_attempts_ = obs::counter_handle(observer, "sched.backfill_attempts");
  c_update_batches_ = obs::counter_handle(observer, "sched.update_batches");
  g_queue_depth_ = obs::gauge_handle(observer, "sched.queue_depth");
  g_running_ = obs::gauge_handle(observer, "sched.running_jobs");
  h_wait_ = obs::histogram_handle(observer, "sched.wait_us");
  h_backfill_wait_ = obs::histogram_handle(observer, "sched.backfill_wait_us");
  h_grow_mib_ = obs::histogram_handle(observer, "policy.grow_mib");
  h_shrink_mib_ = obs::histogram_handle(observer, "policy.shrink_mib");
  h_migrate_mib_ = obs::histogram_handle(observer, "policy.migrate_mib");
  // Monitor instruments exist only for non-oracle monitors: resolving a
  // handle creates the registry entry, and an oracle run's registry must
  // stay byte-identical to the pre-monitor simulator.
  if (config_.monitor.kind != monitor::MonitorKind::Oracle) {
    h_mon_error_ = obs::histogram_handle(observer, "monitor.estimate_error_mib");
    h_mon_overhead_ = obs::histogram_handle(observer, "monitor.overhead_us");
    g_mon_regions_ = obs::gauge_handle(observer, "monitor.regions");
  }
  engine_.set_handler(this);
}

void Scheduler::on_event(const sim::EventPayload& event) {
  switch (event.type) {
    case sim::EventType::JobSubmit:
      enqueue_pending(
          PendingEntry{static_cast<std::size_t>(event.index), 0, 0.0, false, 0});
      request_scheduling_pass();
      return;
    case sim::EventType::SchedPass:
      scheduling_pass();
      return;
    case sim::EventType::JobEnd:
      on_job_end(JobId{event.job});
      return;
    case sim::EventType::MonitorUpdate:
      on_update(JobId{event.job});
      return;
    case sim::EventType::GlobalBatchTick:
      on_global_update();
      return;
    case sim::EventType::WalltimeKill:
      on_walltime(JobId{event.job});
      return;
    case sim::EventType::TraceSample:
      take_sample();
      return;
    case sim::EventType::None:
      break;
  }
  DMSIM_ASSERT(false, "unhandled event payload type");
}

void Scheduler::trace_job(obs::EventKind kind, JobId id, int incarnation,
                          const char* detail) {
  if (!obs::tracing(obs_)) return;
  obs::Event e{kind, engine_.now(), id.get()};
  e.detail = detail;
  e.in_span(obs::span_id(id.get(), incarnation, obs::SpanPhase::Running),
            obs::span_id(id.get(), incarnation, obs::SpanPhase::Queued));
  obs_->sink->emit(e);
}

void Scheduler::publish_totals() {
  if (obs_ == nullptr || obs_->counters == nullptr) return;
  obs::Counters& c = *obs_->counters;
  c.counter("sched.completed") = totals_.completed;
  c.counter("sched.oom_events") = totals_.oom_events;
  c.counter("sched.requeues") = totals_.requeues;
  c.counter("sched.fcfs_starts") = totals_.fcfs_starts;
  c.counter("sched.backfill_starts") = totals_.backfill_starts;
  c.counter("sched.guaranteed_starts") = totals_.guaranteed_starts;
  c.counter("sched.update_events") = totals_.update_events;
  c.counter("sched.scheduling_passes") = totals_.scheduling_passes;
  c.counter("sched.abandoned") = totals_.abandoned;
  c.counter("sched.walltime_kills") = totals_.walltime_kills;
  c.counter("sched.infeasible") = infeasible_count_;
}

JobRecord& Scheduler::record_of(JobId id) {
  const auto it = record_index_.find(id.get());
  DMSIM_ASSERT(it != record_index_.end(), "no record for job");
  return records_[it->second];
}

void Scheduler::submit_workload(trace::Workload workload) {
  DMSIM_ASSERT(workload_.empty(), "submit_workload may only be called once");
  workload_ = std::move(workload);
  records_.reserve(workload_.size());

  // Resolve SWF dependencies: a dependent waits for its predecessor's
  // terminal event. References to ids outside the workload (or to jobs that
  // will never run here, i.e. infeasible ones) are treated as released.
  std::unordered_set<std::uint32_t> known_ids;
  known_ids.reserve(workload_.size());
  for (const auto& spec : workload_) known_ids.insert(spec.id.get());

  for (std::size_t i = 0; i < workload_.size(); ++i) {
    const trace::JobSpec& spec = workload_[i];
    DMSIM_ASSERT(spec.id.valid(), "workload job without id");
    DMSIM_ASSERT(!record_index_.contains(spec.id.get()),
                 "duplicate job id in workload");
    JobRecord rec;
    rec.id = spec.id;
    rec.submit_time = spec.submit_time;
    rec.num_nodes = spec.num_nodes;
    rec.requested_mem = spec.requested_mem;
    rec.peak_usage = spec.peak_usage();
    record_index_.emplace(spec.id.get(), records_.size());

    if (!policy_.feasible(spec, cluster_)) {
      rec.infeasible = true;
      ++infeasible_count_;
      records_.push_back(rec);
      continue;
    }
    records_.push_back(rec);
    // Only honor forward references (pred id < job id, the SWF convention):
    // this keeps the dependency graph acyclic by construction.
    if (spec.preceding_job.valid() &&
        spec.preceding_job.get() < spec.id.get() &&
        known_ids.contains(spec.preceding_job.get())) {
      dependents_[spec.preceding_job.get()].push_back(i);
      continue;  // submit event fires when the predecessor terminates
    }
    engine_.schedule_typed(spec.submit_time, sim::EventPayload::job_submit(i));
  }

  // Dependencies on infeasible predecessors can never be satisfied; release
  // those dependents at their own submit times.
  for (auto it = dependents_.begin(); it != dependents_.end();) {
    const JobRecord& pred_rec = record_of(JobId{it->first});
    if (pred_rec.infeasible) {
      for (const std::size_t i : it->second) {
        engine_.schedule_typed(workload_[i].submit_time,
                               sim::EventPayload::job_submit(i));
      }
      it = dependents_.erase(it);
    } else {
      ++it;
    }
  }
  if (config_.sample_interval > 0.0) {
    engine_.schedule_typed(0.0, sim::EventPayload::trace_sample());
  }
}

void Scheduler::submit_extra_jobs(std::vector<trace::JobSpec> extra) {
  DMSIM_ASSERT(!workload_.empty(),
               "submit_extra_jobs needs a submitted workload");
  for (trace::JobSpec& spec : extra) {
    DMSIM_ASSERT(spec.id.valid(), "extra job without id");
    DMSIM_ASSERT(!record_index_.contains(spec.id.get()),
                 "duplicate job id in extra submission");
    // A submit event in the past would violate the engine's time order.
    spec.submit_time = std::max(spec.submit_time, engine_.now());
    spec.preceding_job = JobId{};
    spec.think_time = 0.0;
    JobRecord rec;
    rec.id = spec.id;
    rec.submit_time = spec.submit_time;
    rec.num_nodes = spec.num_nodes;
    rec.requested_mem = spec.requested_mem;
    rec.peak_usage = spec.peak_usage();
    record_index_.emplace(spec.id.get(), records_.size());
    const std::size_t index = workload_.size();
    workload_.push_back(std::move(spec));
    if (!policy_.feasible(workload_[index], cluster_)) {
      rec.infeasible = true;
      ++infeasible_count_;
      records_.push_back(rec);
      continue;
    }
    records_.push_back(rec);
    engine_.schedule_typed(workload_[index].submit_time,
                           sim::EventPayload::job_submit(index));
  }
}

void Scheduler::run() {
  engine_.run();
  finalize();
}

std::uint64_t Scheduler::run_ready(Seconds until) {
  return engine_.run_ready(until);
}

void Scheduler::finalize() {
  touch_utilization();
  horizon_ = engine_.now();
  DMSIM_ASSERT(running_.empty(), "engine drained with jobs still running");
  DMSIM_ASSERT(pending_.empty(), "engine drained with jobs still pending");
  DMSIM_ASSERT(dependents_.empty(), "engine drained with unresolved dependencies");
  publish_totals();
}

// ---------------------------------------------------------------------------
// Scheduling passes
// ---------------------------------------------------------------------------

void Scheduler::enqueue_pending(PendingEntry entry) {
  entry.enqueue_time = engine_.now();
  if (entry.restarts == 0) {
    obs::bump(c_submits_);
    if (obs::tracing(obs_)) {
      const trace::JobSpec& spec = spec_of(entry.spec_index);
      obs_->sink->emit(
          obs::Event{obs::EventKind::JobSubmit, engine_.now(), spec.id.get()}
              .in_span(obs::span_id(spec.id.get(), 0, obs::SpanPhase::Queued))
              .with("nodes", spec.num_nodes)
              .with("mib", spec.requested_mem));
    }
  }
  // Queue is kept sorted by priority (descending); insertion after the last
  // entry with priority >= the new one preserves FIFO within a level.
  auto it = pending_.end();
  while (it != pending_.begin() && std::prev(it)->priority < entry.priority) {
    --it;
  }
  pending_.insert(it, entry);
  set_queue_gauge();
}

void Scheduler::set_queue_gauge() {
  if (g_queue_depth_) {
    g_queue_depth_->set(static_cast<std::int64_t>(pending_.size()));
  }
}

void Scheduler::request_scheduling_pass() {
  if (pass_scheduled_) return;
  const Seconds when =
      std::max(engine_.now(), last_pass_time_ + config_.sched_interval);
  pass_scheduled_ = true;
  engine_.schedule_typed(when, sim::EventPayload::sched_pass());
}

void Scheduler::scheduling_pass() {
  pass_scheduled_ = false;
  last_pass_time_ = engine_.now();
  ++totals_.scheduling_passes;
  if (obs::tracing(obs_)) {
    obs_->sink->emit(obs::Event{obs::EventKind::SchedPass, engine_.now()}.with(
        "pending", static_cast<std::int64_t>(pending_.size())));
  }
  if (pending_.empty()) return;
  touch_utilization();

  // FCFS: start jobs strictly in queue order until the head blocks.
  int started = 0;
  while (!pending_.empty() && started < config_.queue_depth) {
    const JobId started_id = spec_of(pending_.front().spec_index).id;
    const int incarnation = pending_.front().restarts;
    const Seconds enqueued = pending_.front().enqueue_time;
    if (!try_start_entry(pending_.front())) break;
    pending_.pop_front();
    set_queue_gauge();
    ++started;
    ++totals_.fcfs_starts;
    if (h_wait_ != nullptr) {
      h_wait_->record(obs::to_micros(engine_.now() - enqueued));
    }
    trace_job(obs::EventKind::JobStart, started_id, incarnation);
  }

  // Backfill: jobs behind the blocked head may start now if their requested
  // walltime ends before the reservation they might delay. EASY guards the
  // head's reservation only; Conservative tightens the bound to the earliest
  // reservation of every blocked job seen so far.
  const BackfillMode mode =
      config_.enable_backfill ? config_.backfill_mode : BackfillMode::Off;
  if (!pending_.empty() && mode != BackfillMode::Off &&
      config_.backfill_depth > 0) {
    const Seconds now = engine_.now();
    const trace::JobSpec& head = spec_of(pending_.front().spec_index);
    // The head's projected start. Every successful backfill start changes
    // the cluster — and, through borrowing, running jobs' slowdown-based
    // completion projections — so it is recomputed after each start rather
    // than held for the whole pass (a stale shadow admitted candidates
    // against a reservation that had already moved).
    Seconds head_shadow = reservation_shadow_time(head);
    // Conservative additionally caps candidates at the earliest projected
    // start of every blocked job examined so far; +inf under EASY.
    Seconds blocked_bound = std::numeric_limits<Seconds>::infinity();
    std::size_t examined = 0;
    for (std::size_t idx = 1;
         idx < pending_.size() &&
         examined < static_cast<std::size_t>(config_.backfill_depth);) {
      ++examined;
      obs::bump(c_backfill_attempts_);
      PendingEntry& entry = pending_[idx];
      const trace::JobSpec& spec = spec_of(entry.spec_index);
      // shadow == now means the head is blocked by fragmentation only: the
      // system has the nodes and the memory, the policy just cannot carve
      // them up. No finite walltime satisfies `now + wt <= now`, which used
      // to shut backfill off entirely in exactly the state where candidates
      // cannot delay the head's (unknowable) start. Guard such passes with
      // the blocked-job bound alone.
      const bool frag_blocked = head_shadow <= now;
      const Seconds bound =
          frag_blocked ? blocked_bound : std::min(head_shadow, blocked_bound);
      const int incarnation = entry.restarts;
      const Seconds enqueued = entry.enqueue_time;
      if (now + spec.walltime <= bound && try_start_entry(entry)) {
        pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(idx));
        set_queue_gauge();
        ++totals_.backfill_starts;
        // Counts toward the end-of-pass slowdown refresh: a backfill start
        // that borrows shifts contention exactly like an FCFS start, and a
        // backfill-only pass used to skip the refresh, leaving the new job
        // and its lenders' borrowers running on stale slowdowns until some
        // later event happened to refresh (caught by slowdowns_fresh()).
        ++started;
        if (h_wait_ != nullptr) {
          const std::int64_t waited = obs::to_micros(engine_.now() - enqueued);
          h_wait_->record(waited);
          if (h_backfill_wait_ != nullptr) h_backfill_wait_->record(waited);
        }
        trace_job(obs::EventKind::BackfillStart, spec.id, incarnation);
        head_shadow = reservation_shadow_time(head);
      } else {
        if (mode == BackfillMode::Conservative) {
          // This job stays queued: later candidates must not delay it either.
          blocked_bound = std::min(blocked_bound, reservation_shadow_time(spec));
        }
        ++idx;
      }
    }
  }

  if (started > 0) refresh_slowdowns();
}

bool Scheduler::try_start_entry(PendingEntry& entry) {
  const trace::JobSpec& spec = spec_of(entry.spec_index);
  // A policy decision is a pure function of the cluster ledger; if nothing
  // changed since this entry's last denial, replay it (same counter bump,
  // same trace event) instead of re-running host selection.
  if (entry.last_deny_reason != nullptr &&
      entry.last_deny_epoch == cluster_.change_epoch()) {
    policy_.report_denied(spec, entry.last_deny_reason);
    return false;
  }
  if (!policy_.try_start(spec, cluster_)) {
    // Cache against the post-decision epoch: a failed attempt that rolled
    // back (lenders_dry) advanced the epoch but left the state unchanged.
    entry.last_deny_reason = policy_.last_deny_reason();
    entry.last_deny_epoch = cluster_.change_epoch();
    return false;
  }
  start_running(entry);
  return true;
}

void Scheduler::start_running(const PendingEntry& entry) {
  const trace::JobSpec& spec = spec_of(entry.spec_index);
  const Seconds now = engine_.now();

  RunningJob rj;
  rj.spec_index = entry.spec_index;
  rj.start_time = now;
  rj.progress = entry.checkpoint;
  rj.checkpoint = entry.checkpoint;
  rj.last_fold = now;
  rj.slowdown = 1.0;
  rj.restarts = entry.restarts;
  rj.guaranteed = entry.guaranteed;
  rj.provisioned = spec.requested_mem;

  busy_nodes_ += spec.num_nodes;

  JobRecord& rec = record_of(spec.id);
  if (rec.first_start == kNoTime) rec.first_start = now;
  rec.last_start = now;
  if (entry.guaranteed) {
    rec.ran_guaranteed = true;
    ++totals_.guaranteed_starts;
  }

  auto [it, inserted] = running_.emplace(spec.id.get(), std::move(rj));
  DMSIM_ASSERT(inserted, "job already running");
  if (g_running_) g_running_->set(static_cast<std::int64_t>(running_.size()));
  RunningJob& job = it->second;
  project_end(spec.id, job);

  if (policy_.dynamic_updates() && !job.guaranteed) {
    ++global_updatable_;
    // The zeroth window runs from start until the first update; staggering
    // stretches it to up to 1.5x the update interval. In GlobalBatch mode
    // the next tick is at most one interval away, so the interval is a
    // conservative cover for the gap.
    Seconds first_gap = config_.update_interval;
    if (config_.update_mode == UpdateMode::PerJobStaggered) {
      first_gap = config_.update_interval * (0.5 + update_phase(spec.id));
      job.update_event = engine_.schedule_typed_after(
          first_gap, sim::EventPayload::monitor_update(spec.id.get()));
    } else if (!global_update_scheduled_) {
      global_update_scheduled_ = true;
      engine_.schedule_typed_after(config_.update_interval,
                                   sim::EventPayload::global_batch_tick());
    }
    cover_first_window(spec.id, job, first_gap);
  }
  if (config_.enforce_walltime && spec.walltime > 0.0) {
    job.walltime_event = engine_.schedule_typed_after(
        spec.walltime, sim::EventPayload::walltime_kill(spec.id.get()));
  }
}

void Scheduler::cover_first_window(JobId id, RunningJob& rj, Seconds first_gap) {
  const trace::JobSpec& spec = spec_of(rj.spec_index);
  const MiB plan = monitor_->plan_initial(id, spec, rj.progress,
                                          effective_slowdown(rj), first_gap);
  // A plan at or below the request is already covered by the initial
  // allocation; leave the ledger untouched (and the event stream unchanged).
  if (plan <= spec.requested_mem) return;

  const std::span<const NodeId> hosts = cluster_.hosts_of(id);
  bool oom = false;
  bool any_changed = false;
  MiB acquired = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    const MiB current = cluster_.slot(id, hosts[i]).total();
    const MiB demand =
        std::max(current, static_cast<MiB>(std::llround(
                              static_cast<double>(plan) * spec.usage_scale(i))));
    if (demand == current) continue;  // grow-only: never shrink at start
    const policy::ResizeOutcome out =
        policy::resize_to_demand(cluster_, id, hosts[i], demand);
    acquired += out.acquired;
    any_changed = true;
    if (!out.satisfied) {
      oom = true;
      break;
    }
  }
  if (!any_changed) return;
  rj.provisioned = plan;
  if (h_grow_mib_ != nullptr && acquired > 0) h_grow_mib_->record(acquired);
  if (obs::tracing(obs_)) {
    obs_->sink->emit(
        obs::Event{obs::EventKind::MonitorUpdate, engine_.now(), id.get()}
            .in_span(obs::Event::kNone,
                     obs::span_id(id.get(), rj.restarts, obs::SpanPhase::Running))
            .with("demand_mib", plan)
            .with("released_mib", static_cast<MiB>(0))
            .with("oom", oom ? 1 : 0));
  }
  if (oom) {
    // The first window cannot be provisioned. Killing here would corrupt the
    // scheduling pass iterating pending_, so pull the job's first update to
    // "now": apply_update re-detects the shortfall and routes it through the
    // normal OOM handling once the pass has finished.
    engine_.cancel(rj.update_event);
    rj.update_event = engine_.schedule_typed_after(
        0.0, sim::EventPayload::monitor_update(id.get()));
  }
}

Seconds Scheduler::reservation_shadow_time(const trace::JobSpec& head) const {
  const Seconds now = engine_.now();
  if (running_.empty()) return now;

  struct Release {
    Seconds time;
    int nodes;
    MiB mem;
  };
  std::vector<Release> releases;
  releases.reserve(running_.size());
  for (const auto& [id_value, rj] : running_) {
    const trace::JobSpec& spec = spec_of(rj.spec_index);
    // Conservative projected end: the later of the walltime-based estimate
    // and the current slowdown-based projection. Progress must be brought
    // current (rj.progress is only folded on events).
    double progress = rj.progress;
    if (spec.duration > 0.0) {
      progress = std::min(
          1.0, progress + (now - rj.last_fold) /
                              (spec.duration * effective_slowdown(rj)));
    }
    const Seconds by_walltime = rj.start_time + std::max(spec.walltime, 0.0);
    const Seconds by_progress =
        now +
        std::max(0.0, 1.0 - progress) * spec.duration * effective_slowdown(rj);
    MiB mem = 0;
    for (const NodeId h : cluster_.hosts_of(spec.id)) {
      mem += cluster_.slot(spec.id, h).total();
    }
    releases.push_back(
        Release{std::max({now, by_walltime, by_progress}), spec.num_nodes, mem});
  }
  std::sort(releases.begin(), releases.end(),
            [](const Release& a, const Release& b) { return a.time < b.time; });

  int avail_nodes = cluster_.idle_hostable_nodes();
  MiB free_mem = cluster_.total_free();
  const MiB need_mem = static_cast<MiB>(head.num_nodes) * head.requested_mem;
  const auto satisfied = [&] {
    return avail_nodes >= head.num_nodes && free_mem >= need_mem;
  };
  if (satisfied()) return now;  // blocked by fragmentation only
  for (const Release& r : releases) {
    avail_nodes += r.nodes;
    free_mem += r.mem;
    if (satisfied()) return r.time;
  }
  // Once everything drains, lending vanishes and a feasible head can start;
  // approximate the shadow with the final release time.
  return releases.back().time;
}

// ---------------------------------------------------------------------------
// Job lifecycle events
// ---------------------------------------------------------------------------

void Scheduler::fold_progress(RunningJob& rj) {
  const Seconds now = engine_.now();
  const trace::JobSpec& spec = spec_of(rj.spec_index);
  if (spec.duration <= 0.0) {
    rj.progress = 1.0;
  } else {
    const double rate = 1.0 / (spec.duration * effective_slowdown(rj));
    rj.progress =
        std::min(1.0, rj.progress + (now - rj.last_fold) * rate);
  }
  rj.last_fold = now;
}

void Scheduler::project_end(JobId id, RunningJob& rj) {
  const trace::JobSpec& spec = spec_of(rj.spec_index);
  engine_.cancel(rj.end_event);
  const Seconds remaining =
      std::max(0.0, 1.0 - rj.progress) * spec.duration * effective_slowdown(rj);
  rj.end_event = engine_.schedule_typed_after(
      remaining, sim::EventPayload::job_end(id.get()));
}

void Scheduler::refresh_slowdowns() {
  if (running_.empty()) {
    inc_slowdowns_.reset();
    cluster_.clear_contention_dirty();
    return;
  }
  // Fast path: with no remote memory anywhere there is no contention and no
  // latency exposure — every job runs at full speed.
  if (cluster_.total_lent() == 0) {
    inc_slowdowns_.reset();
    cluster_.clear_contention_dirty();
    for (auto& [id_value, rj] : running_) {
      if (rj.slowdown != 1.0) {
        fold_progress(rj);
        rj.slowdown = 1.0;
        project_end(JobId{id_value}, rj);
      }
    }
    return;
  }
  // Incremental: only jobs whose lender pressure or slot totals moved since
  // the last refresh are re-evaluated, against a persistent pressure buffer.
  running_ids_scratch_.clear();
  for (const auto& [id_value, rj] : running_) {
    (void)rj;
    running_ids_scratch_.push_back(id_value);
  }
  slowdown_updates_.clear();
  inc_slowdowns_.refresh(
      cluster_, running_ids_scratch_,
      [this](JobId id) {
        const auto it = running_.find(id.get());
        return it == running_.end()
                   ? slowdown::IncrementalSlowdowns::kNotRunning
                   : spec_of(it->second.spec_index).app_profile;
      },
      slowdown_updates_);
  cluster_.clear_contention_dirty();
  for (const auto& update : slowdown_updates_) {
    RunningJob& rj = running_.at(update.job.get());
    if (std::abs(update.slowdown - rj.slowdown) <= kSlowdownEps) continue;
    fold_progress(rj);
    rj.slowdown = update.slowdown;
    project_end(update.job, rj);
  }
}

bool Scheduler::slowdowns_fresh() const {
  std::vector<slowdown::ContentionModel::JobInput> inputs;
  std::vector<double> cached;
  inputs.reserve(running_.size());
  cached.reserve(running_.size());
  for (const auto& [id_value, rj] : running_) {
    inputs.push_back(slowdown::ContentionModel::JobInput{
        JobId{id_value}, spec_of(rj.spec_index).app_profile});
    cached.push_back(rj.slowdown);
  }
  const std::vector<double> fresh = model_.evaluate(cluster_, inputs);
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    // The incremental refresher skips re-projection inside kSlowdownEps, so
    // a cached value may sit up to that far from the model's answer.
    if (std::abs(fresh[i] - cached[i]) > kSlowdownEps) return false;
  }
  return true;
}

void Scheduler::cancel_job_events(RunningJob& rj) {
  engine_.cancel(rj.end_event);
  engine_.cancel(rj.update_event);
  engine_.cancel(rj.walltime_event);
  rj.end_event = rj.update_event = rj.walltime_event = sim::EventId{};
}

void Scheduler::release_dependents(JobId pred) {
  const auto it = dependents_.find(pred.get());
  if (it == dependents_.end()) return;
  const Seconds now = engine_.now();
  for (const std::size_t i : it->second) {
    const trace::JobSpec& spec = workload_[i];
    const Seconds when =
        std::max(spec.submit_time, now + std::max(spec.think_time, 0.0));
    engine_.schedule_typed(when, sim::EventPayload::job_submit(i));
  }
  dependents_.erase(it);
}

void Scheduler::on_job_end(JobId id) {
  const auto it = running_.find(id.get());
  DMSIM_ASSERT(it != running_.end(), "end event for a job that is not running");
  RunningJob& rj = it->second;
  touch_utilization();
  fold_progress(rj);
  DMSIM_ASSERT(rj.progress >= 1.0 - 1e-6, "job ended before completing work");

  const trace::JobSpec& spec = spec_of(rj.spec_index);
  cancel_job_events(rj);
  monitor_->on_job_stop(id);
  cluster_.finish_job(id);
  busy_nodes_ -= spec.num_nodes;

  JobRecord& rec = record_of(id);
  rec.end_time = engine_.now();
  rec.outcome = JobOutcome::Completed;
  ++totals_.completed;
  trace_job(obs::EventKind::JobComplete, id, rj.restarts);

  if (policy_.dynamic_updates() && !rj.guaranteed) --global_updatable_;
  running_.erase(it);
  if (g_running_) g_running_->set(static_cast<std::int64_t>(running_.size()));
  release_dependents(id);
  refresh_slowdowns();
  if (!pending_.empty()) request_scheduling_pass();
}

Scheduler::UpdateResult Scheduler::apply_update(RunningJob& rj, JobId id) {
  UpdateResult result;
  // Default interval so the early-return path (job about to end) reschedules
  // exactly as it always did.
  result.next_interval = config_.update_interval;
  ++totals_.update_events;
  fold_progress(rj);
  if (rj.progress >= 1.0 - kProgressEps) return result;  // end event fires now

  const double window_start = rj.checkpoint;
  rj.checkpoint = rj.progress;  // Monitor point doubles as the C/R checkpoint
  const trace::JobSpec& spec = spec_of(rj.spec_index);

  // Realistic monitors make provisioning a bet: the estimate sized the last
  // window's allocation, the trace is the truth. If true usage exceeded what
  // was provisioned, the job touched memory it never had — a runtime OOM.
  // The oracle is exempt by construction (its window estimates are exact).
  if (monitor_->models_runtime_oom()) {
    const MiB true_elapsed = spec.usage.max_in(window_start, rj.progress);
    if (true_elapsed > rj.provisioned) {
      result.oom = true;
      if (obs::tracing(obs_)) {
        obs_->sink->emit(
            obs::Event{obs::EventKind::MonitorUpdate, engine_.now(), id.get()}
                .in_span(obs::Event::kNone,
                         obs::span_id(id.get(), rj.restarts,
                                      obs::SpanPhase::Running))
                .with("demand_mib", true_elapsed)
                .with("released_mib", static_cast<MiB>(0))
                .with("oom", 1));
      }
      return result;
    }
  }

  // Demand for the coming window and the time until the next update — both
  // come from the monitor (§2.3: Monitor feeds the Decider). The look-ahead
  // is sized from the actual gap the monitor chooses, not a fixed interval.
  const monitor::Reading reading = monitor_->update(
      id, spec, rj.progress, effective_slowdown(rj), config_.update_interval,
      /*interval_locked=*/config_.update_mode == UpdateMode::GlobalBatch);
  result.next_interval = reading.next_interval;
  const MiB base_demand = reading.demand;
  rj.provisioned = base_demand;
  obs::record(h_mon_error_, reading.abs_error);
  obs::record(h_mon_overhead_, reading.overhead_us);
  if (g_mon_regions_ != nullptr) {
    g_mon_regions_->set(reading.regions);
  }

  const std::span<const NodeId> hosts = cluster_.hosts_of(id);
  MiB acquired = 0;
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    // Per-node heterogeneity: lighter nodes demand a scaled-down footprint.
    const MiB demand = static_cast<MiB>(std::llround(
        static_cast<double>(base_demand) * spec.usage_scale(i)));
    const policy::ResizeOutcome out =
        policy::resize_to_demand(cluster_, id, hosts[i], demand);
    result.released += out.released;
    acquired += out.acquired;
    result.remote_changed |= out.remote_changed;
    if (!out.satisfied) {
      result.oom = true;
      break;
    }
  }
  // After resizing, promote borrowed memory toward nearer tiers freed up by
  // the shrinks (a no-op on a flat topology, which has no nearer tier).
  if (!result.oom) {
    MiB migrated = 0;
    for (const NodeId host : hosts) {
      const policy::MigrateOutcome moved =
          policy::migrate_to_nearest_tier(cluster_, id, host);
      migrated += moved.migrated;
      result.remote_changed |= moved.remote_changed;
    }
    if (h_migrate_mib_ != nullptr && migrated > 0) {
      h_migrate_mib_->record(migrated);
    }
  }
  // Actuator magnitude distributions (simulated MiB, so exports stay
  // deterministic — wall-clock resize latency would not).
  if (h_grow_mib_ != nullptr && acquired > 0) h_grow_mib_->record(acquired);
  if (h_shrink_mib_ != nullptr && result.released > 0) {
    h_shrink_mib_->record(result.released);
  }
  // Fold the modeled monitoring cost into the execution rate. The oracle's
  // factor is exactly 1.0 forever, so this branch never fires there and the
  // end-event stream is untouched.
  if (reading.overhead_factor != rj.monitor_overhead) {
    rj.monitor_overhead = reading.overhead_factor;
    if (!result.oom) project_end(id, rj);
  }
  if (obs::tracing(obs_)) {
    obs_->sink->emit(
        obs::Event{obs::EventKind::MonitorUpdate, engine_.now(), id.get()}
            .in_span(obs::Event::kNone,
                     obs::span_id(id.get(), rj.restarts,
                                  obs::SpanPhase::Running))
            .with("demand_mib", base_demand)
            .with("released_mib", result.released)
            .with("oom", result.oom ? 1 : 0));
  }
  return result;
}

void Scheduler::on_update(JobId id) {
  const auto it = running_.find(id.get());
  DMSIM_ASSERT(it != running_.end(), "update event for a job that is not running");
  RunningJob& rj = it->second;
  touch_utilization();
  const UpdateResult result = apply_update(rj, id);

  if (result.oom) {
    kill_and_requeue(id,
                     config_.oom_handling == OomHandling::CheckpointRestart);
    return;
  }

  // The monitor owns the cadence: the next update lands where its chosen
  // interval says, and apply_update sized its look-ahead to match. (A
  // GlobalBatch run can reach here via cover_first_window's immediate
  // update; the global tick chain keeps driving such jobs, so no per-job
  // chain is started.)
  if (config_.update_mode == UpdateMode::PerJobStaggered) {
    rj.update_event = engine_.schedule_typed_after(
        result.next_interval, sim::EventPayload::monitor_update(id.get()));
  }
  // Contention shifts not only when borrow edges change: pressure ratios
  // divide by a slot's TOTAL allocation, so a purely local resize of a
  // remote-borrowing slot moves other jobs' slowdowns too. The cluster
  // marks exactly those slots dirty — refresh whenever this update left
  // anything dirty, not just on borrow-edge changes.
  if (result.remote_changed || !cluster_.dirty_jobs().empty() ||
      !cluster_.dirty_lenders().empty()) {
    refresh_slowdowns();
  }
  if (result.released > 0 && !pending_.empty()) request_scheduling_pass();
}

void Scheduler::on_global_update() {
  // §2.3 sim_mgr mode: a single timer updates every running dynamic job.
  touch_utilization();
  obs::bump(c_update_batches_);
  std::vector<std::uint32_t> ids;
  ids.reserve(running_.size());
  for (const auto& [id_value, rj] : running_) {
    if (!rj.guaranteed) ids.push_back(id_value);
  }
  // running_ is an unordered_map: its iteration order depends on insertion
  // and rehash history, which a snapshot restore does not reproduce. The
  // batch must touch jobs in a canonical order or replay diverges.
  std::sort(ids.begin(), ids.end());
  bool any_remote_changed = false;
  MiB released = 0;
  std::vector<JobId> victims;
  for (const std::uint32_t id_value : ids) {
    const auto it = running_.find(id_value);
    if (it == running_.end()) continue;  // killed earlier in this batch
    const UpdateResult result = apply_update(it->second, JobId{id_value});
    any_remote_changed |= result.remote_changed;
    released += result.released;
    if (result.oom) victims.push_back(JobId{id_value});
  }
  for (const JobId victim : victims) {
    kill_and_requeue(victim,
                     config_.oom_handling == OomHandling::CheckpointRestart);
  }
  // With victims, the batch relies on kill_and_requeue for the survivors'
  // refresh: its unconditional refresh_slowdowns() runs after the last kill,
  // i.e. after every ledger change of this batch (the earlier apply_updates
  // included), and a refresh covers ALL dirty jobs, not just the victim.
  // Pin that reasoning: the dirty sets must be fully consumed here.
  if (!victims.empty()) {
    DMSIM_ASSERT(
        cluster_.dirty_jobs().empty() && cluster_.dirty_lenders().empty(),
        "global batch with OOM victims left slowdown inputs dirty");
  }
  if (victims.empty() &&
      (any_remote_changed || !cluster_.dirty_jobs().empty() ||
       !cluster_.dirty_lenders().empty())) {
    refresh_slowdowns();
  }
  if (released > 0 && !pending_.empty()) request_scheduling_pass();

  // Re-arm only while an update-participating job is running. Guaranteed
  // jobs are exempt from Monitor updates, so once they are all that remains
  // the chain used to tick as a pure no-op until the last of them finished
  // — dragging the engine horizon along with it. start_running() restarts
  // the chain when the next updatable job begins.
  if (global_updatable_ > 0) {
    engine_.schedule_typed_after(config_.update_interval,
                                 sim::EventPayload::global_batch_tick());
  } else {
    global_update_scheduled_ = false;
  }
}

void Scheduler::kill_and_requeue(JobId id, bool checkpoint_restart) {
  const auto it = running_.find(id.get());
  DMSIM_ASSERT(it != running_.end(), "killing a job that is not running");
  RunningJob& rj = it->second;
  const trace::JobSpec& spec = spec_of(rj.spec_index);

  ++totals_.oom_events;
  JobRecord& rec = record_of(id);
  ++rec.oom_failures;
  trace_job(obs::EventKind::JobOomKill, id, rj.restarts,
            checkpoint_restart ? "checkpoint_restart" : "fail_restart");

  cancel_job_events(rj);
  monitor_->on_job_stop(id);
  cluster_.finish_job(id);
  busy_nodes_ -= spec.num_nodes;

  const int restarts = rj.restarts + 1;
  const double checkpoint = checkpoint_restart ? rj.checkpoint : 0.0;
  const std::size_t spec_index = rj.spec_index;
  if (policy_.dynamic_updates() && !rj.guaranteed) --global_updatable_;
  running_.erase(it);
  if (g_running_) g_running_->set(static_cast<std::int64_t>(running_.size()));

  if (restarts > config_.max_restarts) {
    rec.end_time = engine_.now();
    rec.outcome = JobOutcome::AbandonedOom;
    ++totals_.abandoned;
    // Abandon opens no new span; its cause is the killed incarnation's run.
    if (obs::tracing(obs_)) {
      obs_->sink->emit(
          obs::Event{obs::EventKind::JobAbandon, engine_.now(), id.get()}
              .in_span(obs::Event::kNone,
                       obs::span_id(id.get(), restarts - 1,
                                    obs::SpanPhase::Running)));
    }
    release_dependents(id);
  } else {
    const bool guaranteed = config_.guaranteed_after_failures > 0 &&
                            restarts >= config_.guaranteed_after_failures;
    const int priority = restarts * config_.priority_boost_per_failure;
    if (obs::tracing(obs_)) {
      // The requeue opens the next incarnation's queued span, caused by the
      // run the OOM kill just ended.
      obs_->sink->emit(
          obs::Event{obs::EventKind::JobRequeue, engine_.now(), id.get()}
              .in_span(obs::span_id(id.get(), restarts, obs::SpanPhase::Queued),
                       obs::span_id(id.get(), restarts - 1,
                                    obs::SpanPhase::Running))
              .with("restarts", restarts)
              .with("guaranteed", guaranteed ? 1 : 0));
    }
    enqueue_pending(
        PendingEntry{spec_index, restarts, checkpoint, guaranteed, priority});
    ++totals_.requeues;
    request_scheduling_pass();
  }
  refresh_slowdowns();
}

void Scheduler::on_walltime(JobId id) {
  const auto it = running_.find(id.get());
  DMSIM_ASSERT(it != running_.end(), "walltime event for a job that is not running");
  RunningJob& rj = it->second;
  touch_utilization();
  const trace::JobSpec& spec = spec_of(rj.spec_index);

  cancel_job_events(rj);
  monitor_->on_job_stop(id);
  cluster_.finish_job(id);
  busy_nodes_ -= spec.num_nodes;

  JobRecord& rec = record_of(id);
  rec.end_time = engine_.now();
  rec.outcome = JobOutcome::KilledWalltime;
  ++totals_.walltime_kills;
  trace_job(obs::EventKind::JobWalltimeKill, id, rj.restarts);

  if (policy_.dynamic_updates() && !rj.guaranteed) --global_updatable_;
  running_.erase(it);
  if (g_running_) g_running_->set(static_cast<std::int64_t>(running_.size()));
  release_dependents(id);
  refresh_slowdowns();
  if (!pending_.empty()) request_scheduling_pass();
}

// ---------------------------------------------------------------------------
// Utilization accounting and sampling
// ---------------------------------------------------------------------------

void Scheduler::touch_utilization() {
  const Seconds now = engine_.now();
  const Seconds dt = now - util_last_touch_;
  if (dt > 0.0) {
    allocated_integral_ += static_cast<double>(cluster_.total_allocated()) * dt;
    busy_integral_ += static_cast<double>(busy_nodes_) * dt;
    util_last_touch_ = now;
  }
}

double Scheduler::avg_allocated_mib() const noexcept {
  const Seconds t = std::max(horizon_, util_last_touch_);
  return t > 0.0 ? allocated_integral_ / t : 0.0;
}

double Scheduler::avg_busy_nodes() const noexcept {
  const Seconds t = std::max(horizon_, util_last_touch_);
  return t > 0.0 ? busy_integral_ / t : 0.0;
}

MiB Scheduler::current_used_memory() const {
  const Seconds now = engine_.now();
  MiB used = 0;
  for (const auto& [id_value, rj] : running_) {
    const trace::JobSpec& spec = spec_of(rj.spec_index);
    double progress = rj.progress;
    if (spec.duration > 0.0) {
      progress = std::min(
          1.0, progress + (now - rj.last_fold) /
                              (spec.duration * effective_slowdown(rj)));
    }
    const MiB per_node = spec.usage.at(progress);
    double scale_sum = 0.0;
    for (int n = 0; n < spec.num_nodes; ++n) {
      scale_sum += spec.usage_scale(static_cast<std::size_t>(n));
    }
    used += static_cast<MiB>(std::llround(
        static_cast<double>(per_node) * scale_sum));
  }
  return used;
}

void Scheduler::take_sample() {
  touch_utilization();
  samples_.push_back(SystemSample{engine_.now(), cluster_.total_allocated(),
                                  current_used_memory(), busy_nodes_,
                                  pending_.size()});
  const std::uint64_t terminal = totals_.completed + totals_.abandoned +
                                 totals_.walltime_kills;
  const std::uint64_t feasible =
      static_cast<std::uint64_t>(records_.size()) - infeasible_count_;
  if (terminal < feasible) {
    engine_.schedule_typed_after(config_.sample_interval,
                                 sim::EventPayload::trace_sample());
  }
}

// ---------------------------------------------------------------------------
// Snapshot (checkpoint/restore)
// ---------------------------------------------------------------------------

namespace {
constexpr std::uint32_t kSchedSection =
    snapshot::section_tag('S', 'C', 'H', 'D');
}  // namespace

template <class Self, class Ar>
void Scheduler::io(Self& self, Ar&& ar) {
  ar.section(kSchedSection, "scheduler");
  ar.expect(static_cast<std::uint64_t>(self.workload_.size()),
            "snapshot: workload size mismatch — restore requires the "
            "identical workload to be submitted first");
  const auto spec_index = [&](auto& index) {
    ar.u64(index);
    ar.require(index < self.workload_.size(),
               "snapshot: spec index out of range");
  };

  ar.seq(self.pending_, [&](auto& e) {
    spec_index(e.spec_index);
    ar.i64(e.restarts);
    ar.f64(e.checkpoint);
    ar.boolean(e.guaranteed);
    ar.i64(e.priority);
    ar.f64(e.enqueue_time);
    ar.u64(e.last_deny_epoch);
    // Serialized by content; restore re-interns the static literal. The
    // cache must survive the snapshot: replaying a cached denial has
    // observable effects (counter bump, trace event) that re-running host
    // selection would not reproduce identically on the lenders_dry path.
    std::string_view reason =
        e.last_deny_reason != nullptr ? e.last_deny_reason : "";
    ar.str(reason);
    if constexpr (Ar::kLoading) {
      e.last_deny_reason = policy::intern_deny_reason(reason);
    }
  });

  ar.map(
      self.running_,
      [&](std::uint32_t /*id*/, auto& rj) {
        spec_index(rj.spec_index);
        ar.f64(rj.start_time);
        ar.f64(rj.progress);
        ar.f64(rj.last_fold);
        ar.f64(rj.slowdown);
        ar.u64(rj.end_event.value);
        ar.u64(rj.update_event.value);
        ar.u64(rj.walltime_event.value);
        ar.f64(rj.checkpoint);
        ar.i64(rj.restarts);
        ar.boolean(rj.guaranteed);
        ar.f64(rj.monitor_overhead);
        ar.i64(rj.provisioned);
      },
      "snapshot: duplicate running job");

  ar.map(
      self.dependents_,
      [&](std::uint32_t /*pred*/, auto& specs) { ar.seq(specs, spec_index); },
      "snapshot: duplicate dependency list");

  // records_ / record_index_ were rebuilt deterministically by
  // submit_workload (same workload, same order); restore overwrites the
  // mutable fields in place, verifying the identity columns line up.
  ar.expect(static_cast<std::uint32_t>(self.records_.size()),
            "snapshot: job record count mismatch");
  for (auto& r : self.records_) {
    ar.expect(r.id.get(), "snapshot: job record id mismatch");
    ar.f64(r.submit_time);
    ar.f64(r.first_start);
    ar.f64(r.last_start);
    ar.f64(r.end_time);
    ar.i64(r.num_nodes);
    ar.i64(r.requested_mem);
    ar.i64(r.peak_usage);
    ar.i64(r.oom_failures);
    ar.boolean(r.ran_guaranteed);
    ar.boolean(r.infeasible);
    ar.u8(r.outcome);
    ar.require(r.outcome <= JobOutcome::KilledWalltime,
               "snapshot: unknown job outcome");
  }

  ar.seq(self.samples_, [&](auto& s) {
    ar.f64(s.time);
    ar.i64(s.allocated);
    ar.i64(s.used);
    ar.i64(s.busy_nodes);
    ar.u64(s.pending_jobs);
  });

  ar.u64(self.totals_.completed);
  ar.u64(self.totals_.oom_events);
  ar.u64(self.totals_.requeues);
  ar.u64(self.totals_.fcfs_starts);
  ar.u64(self.totals_.backfill_starts);
  ar.u64(self.totals_.guaranteed_starts);
  ar.u64(self.totals_.update_events);
  ar.u64(self.totals_.scheduling_passes);
  ar.u64(self.totals_.abandoned);
  ar.u64(self.totals_.walltime_kills);
  ar.expect(static_cast<std::uint64_t>(self.infeasible_count_),
            "snapshot: infeasible job count mismatch — different workload or "
            "cluster configuration");

  ar.boolean(self.pass_scheduled_);
  ar.boolean(self.global_update_scheduled_);
  ar.i64(self.global_updatable_);
  ar.f64(self.last_pass_time_);
  ar.f64(self.util_last_touch_);
  ar.f64(self.allocated_integral_);
  ar.f64(self.busy_integral_);
  ar.i64(self.busy_nodes_);
  ar.f64(self.horizon_);

  // Per-job monitor state (noise counters / adaptive regions).
  ar.state(*self.monitor_);
}

void Scheduler::save_state(snapshot::Writer& writer) const {
  io(*this, snapshot::Saver(writer));
}

void Scheduler::restore_state(snapshot::Reader& reader) {
  monitor_ = monitor::make_monitor(config_.monitor);
  io(*this, snapshot::Loader(reader));
  // The incremental slowdown cache is intentionally NOT serialized: reset()
  // forces a full rebuild on the next refresh, which recomputes bitwise-
  // equal slowdowns for every clean job (|delta| <= kSlowdownEps skips the
  // re-projection), so replay is unaffected.
  inc_slowdowns_.reset();
  running_ids_scratch_.clear();
  slowdown_updates_.clear();
}

}  // namespace dmsim::sched
