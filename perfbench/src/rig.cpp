#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "harness/sweep.hpp"
#include "metrics/metrics.hpp"
#include "monitor/monitor.hpp"
#include "perfbench.hpp"
#include "snapshot/image.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace perfbench {

// ---------------------------------------------------------------- report

void Report::metric(std::string name, double value, std::string unit) {
  metrics_.push_back({std::move(name), value, std::move(unit)});
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    note("FAILED: " + what);
  }
}

void Report::count(std::uint64_t attempted, std::uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) note("FAILED: " + std::to_string(failed) + " " + what);
}

void Report::note(const std::string& line) {
  std::cerr << "# " << line << '\n';
}

std::string Report::to_json() const {
  std::string out = "{\"correct\": ";
  out += (failed_ == 0 && attempted_ > 0) ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    // Full precision: 17 significant digits round-trip any double.
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  return out;
}

// ---------------------------------------------------------------- helpers

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string hex64(std::uint64_t value) {
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(value));
  return hex;
}

std::string expected_identity(const Options& options) {
  std::ifstream in(options.identity_file);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::string identity;
    if (fields >> workload >> seed >> identity &&
        workload == options.workload && seed == options.seed) {
      return identity;
    }
  }
  return {};
}

void check_identity(const Options& options, const std::string& actual,
                    Report& report) {
  const std::string expected = expected_identity(options);
  if (expected.empty()) {
    Report::note("no recorded identity for " + options.workload + " seed " +
                 std::to_string(options.seed) +
                 "; checking self-consistency only");
    return;
  }
  report.check(actual == expected,
               "identity " + actual + " matches the recorded " + expected);
}

DiscardBuf::int_type DiscardBuf::overflow(int_type c) {
  if (!traits_type::eq_int_type(c, traits_type::eof())) {
    const char ch = traits_type::to_char_type(c);
    mix(&ch, 1);
  }
  return traits_type::not_eof(c);
}

std::streamsize DiscardBuf::xsputn(const char* s, std::streamsize n) {
  if (n > 0) mix(s, static_cast<std::size_t>(n));
  return n;
}

void DiscardBuf::mix(const char* s, std::size_t n) noexcept {
  // Word-at-a-time multiply-xor: cheap enough not to dominate the sink
  // cost it sits under, and sensitive to every byte and its position.
  std::uint64_t h = hash_;
  while (n >= 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, s, 8);
    h = (h ^ w) * 0x9fb21c651e98df25ull;
    h ^= h >> 29;
    s += 8;
    n -= 8;
  }
  while (n > 0) {
    h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001b3ull;
    ++s;
    --n;
  }
  hash_ = h;
}

// ---------------------------------------------------------------- cpus

CpuRotation::CpuRotation() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof mask, &mask) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &mask)) cpus_.push_back(c);
    }
  }
}

void CpuRotation::advance() {
  last_ = Clock::now();
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_ % cpus_.size()], &one);
  ++next_;
  if (sched_setaffinity(0, sizeof one, &one) == 0) pinned_ = true;
}

void CpuRotation::tick() {
  if (seconds_since(last_) >= 0.02) advance();
}

void CpuRotation::release() {
  if (!pinned_) return;
  cpu_set_t mask;
  CPU_ZERO(&mask);
  for (const int c : cpus_) CPU_SET(c, &mask);
  (void)sched_setaffinity(0, sizeof mask, &mask);
  pinned_ = false;
}

// ---------------------------------------------------------------- rig

Seconds Scenario::last_submit() const {
  Seconds last = 0.0;
  for (const trace::JobSpec& job : jobs) last = std::max(last, job.submit_time);
  return last;
}

Rig::Rig(const Scenario& scenario, obs::TraceSink* sink,
         obs::Counters* counters)
    : cluster(scenario.system.to_cluster_config()),
      policy(policy::make_policy(scenario.policy)),
      observer{sink, counters, &engine} {
  const obs::Observer* obs_ptr =
      (sink != nullptr || counters != nullptr) ? &observer : nullptr;
  if (obs_ptr != nullptr) {
    engine.set_observer(obs_ptr);
    cluster.set_observer(obs_ptr);
    policy->set_observer(obs_ptr);
  }
  scheduler = std::make_unique<sched::Scheduler>(
      engine, cluster, *policy, &scenario.apps, scenario.sched, obs_ptr);
}

harness::CellResult Rig::result() const {
  harness::CellResult r;
  r.infeasible_jobs = scheduler->infeasible_count();
  r.valid = r.infeasible_jobs == 0;
  r.provisioned_memory = cluster.total_capacity();
  r.system_cost_usd = metrics::CostModel{}.system_cost(cluster);
  r.summary = metrics::summarize(scheduler->records(), scheduler->totals());
  r.totals = scheduler->totals();
  r.avg_allocated_mib = scheduler->avg_allocated_mib();
  r.avg_busy_nodes = scheduler->avg_busy_nodes();
  r.engine_events = engine.executed_events();
  return r;
}

TimedRig build_rig(const Scenario& scenario, obs::TraceSink* sink,
                   obs::Counters* counters) {
  TimedRig out;
  const auto t0 = Clock::now();
  out.rig = std::make_unique<Rig>(scenario, sink, counters);
  out.build_s = seconds_since(t0);
  const auto t1 = Clock::now();
  out.rig->scheduler->submit_workload(scenario.jobs);
  out.submit_s = seconds_since(t1);
  return out;
}

std::string cell_digest(const harness::CellResult& result) {
  return hex64(util::fnv1a(harness::cell_result_to_json(result)));
}

void drive(Rig& rig, Seconds until, Seconds step, CpuRotation& cpus,
           std::vector<double>* step_ms) {
  cpus.advance();
  const Seconds origin = rig.engine.now();
  for (std::size_t i = 1; !rig.engine.empty(); ++i) {
    const Seconds target =
        std::min(origin + static_cast<double>(i) * step, until);
    const auto t0 = Clock::now();
    (void)rig.scheduler->run_ready(target);
    if (step_ms != nullptr) step_ms->push_back(seconds_since(t0) * 1e3);
    cpus.tick();
    if (target >= until) break;
  }
  if (!std::isfinite(until)) rig.scheduler->finalize();
}

// ---------------------------------------------------------------- layers

std::int64_t LayerClock::handler_total_ns() const {
  std::int64_t total = 0;
  for (const std::int64_t ns : handler_ns) total += ns;
  return total;
}

std::int64_t LayerClock::sink_in_total_ns() const {
  std::int64_t total = 0;
  for (const std::int64_t ns : sink_in_ns) total += ns;
  return total;
}

void TimingHandler::on_event(const sim::EventPayload& event) {
  const auto type = static_cast<std::size_t>(event.type);
  const std::int64_t t0 = now_ns();
  clock_->current = static_cast<int>(type);
  inner_->on_event(event);
  clock_->current = -1;
  clock_->handler_ns[type] += now_ns() - t0;
  ++clock_->calls[type];
}

void TimingSink::emit(const obs::Event& event) {
  const std::int64_t t0 = now_ns();
  inner_->emit(event);
  const std::int64_t dt = now_ns() - t0;
  clock_->sink_ns += dt;
  ++clock_->emits;
  if (clock_->current >= 0) {
    clock_->sink_in_ns[static_cast<std::size_t>(clock_->current)] += dt;
  }
}

std::uint64_t counter_value(
    const std::vector<obs::CountersSnapshot::Counter>& counters,
    std::string_view name) {
  for (const auto& c : counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::int64_t series_sum(const obs::Counters& counters, std::string_view name) {
  std::int64_t total = 0;
  for (const auto& s : counters.snapshot().series) {
    if (s.name != name) continue;
    for (const auto& p : s.points) total += p.sum;
  }
  return total;
}

namespace {

[[nodiscard]] double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

}  // namespace

void report_layers(const LayerRun& run, Report& report) {
  using sim::EventType;
  const LayerClock& c = run.clock;
  const double loop_ns = run.loop_s * 1e9;
  const double sink_outside =
      static_cast<double>(c.sink_ns - c.sink_in_total_ns());
  const double dispatch_ns =
      loop_ns - static_cast<double>(c.handler_total_ns()) - sink_outside;
  const auto& ctr = run.counters;

  report.metric("sim.dispatch_ns_per_event",
                ratio(dispatch_ns, static_cast<double>(run.events)), "ns");
  report.metric("sim.events", static_cast<double>(run.events), "count");
  const auto count = [&](std::string_view name) {
    return static_cast<double>(counter_value(ctr, name));
  };
  report.metric("sim.cancel_share",
                ratio(count("engine.cancelled"), count("engine.scheduled")),
                "ratio");

  const auto layer = [&](const std::string& name,
                         std::initializer_list<EventType> types,
                         bool with_calls) {
    double self = 0.0;
    double calls = 0.0;
    for (const EventType t : types) {
      self += static_cast<double>(c.self_ns(t));
      calls += static_cast<double>(c.calls_of(t));
    }
    if (with_calls) report.metric(name + ".calls", calls, "count");
    report.metric(name + ".ns_per_call", ratio(self, calls), "ns");
    report.metric(name + ".share", ratio(self, loop_ns), "ratio");
  };
  layer("sched.pass", {EventType::SchedPass}, true);
  report.metric("sched.backfill_hit",
                ratio(static_cast<double>(run.totals.backfill_starts),
                      count("sched.backfill_attempts")),
                "ratio");
  const double grants = count("policy.grants");
  const double denies = count("policy.denies");
  report.metric("policy.grant_share", ratio(grants, grants + denies), "ratio");
  layer("sched.update", {EventType::MonitorUpdate, EventType::GlobalBatchTick},
        true);
  layer("sched.job_end", {EventType::JobEnd}, false);
  report.metric("sched.oom_events", static_cast<double>(run.totals.oom_events),
                "count");
  report.metric("sched.requeues", static_cast<double>(run.totals.requeues),
                "count");
  layer("metrics.sample", {EventType::TraceSample}, false);
  report.metric("obs.sink.emits", static_cast<double>(c.emits), "count");
  report.metric("obs.sink.share",
                ratio(static_cast<double>(c.sink_ns), loop_ns), "ratio");
  report.metric("layer.overhead_share",
                ratio(run.loop_s - run.untimed_loop_s, run.untimed_loop_s),
                "ratio");
}

void report_probes(const ProbeResult& probes, const SnapshotProbe& snap,
                   const std::vector<obs::CountersSnapshot::Counter>& ledger,
                   std::int64_t edge_churn, double gen_s, double submit_s,
                   Report& report) {
  report.metric("policy.resize_ns", probes.resize_ns, "ns");
  report.metric("slowdown.refresh_us", probes.refresh_us, "us");
  report.metric("monitor.update_ns", probes.monitor_update_ns, "ns");
  report.metric("cluster.edge_churn", static_cast<double>(edge_churn), "count");
  const auto count = [&](std::string_view name) {
    return static_cast<double>(counter_value(ledger, name));
  };
  report.metric("cluster.lend_ops", count("ledger.lend_ops"), "count");
  report.metric("cluster.reclaim_ops", count("ledger.reclaim_ops"), "count");
  report.metric("obs.sink.ns_per_emit", probes.sink_ns_per_emit, "ns");
  report.metric("workload.gen_s", gen_s, "s");
  report.metric("sched.submit_workload_s", submit_s, "s");
  report.metric("snapshot.open_ms", snap.open_ms, "ms");
  report.metric("snapshot.fork_ms", snap.fork_ms, "ms");
  report.metric("snapshot.bytes", static_cast<double>(snap.bytes), "bytes");
}

// ---------------------------------------------------------------- probes

namespace {

/// Repeat `op` until `min_s` of wall clock has passed (at least once);
/// returns seconds per call.
template <typename Op>
[[nodiscard]] double time_loop(double min_s, Op&& op) {
  const auto start = Clock::now();
  std::size_t iters = 0;
  double elapsed = 0.0;
  do {
    op();
    ++iters;
    elapsed = seconds_since(start);
  } while (elapsed < min_s);
  return elapsed / static_cast<double>(iters);
}

[[nodiscard]] std::vector<std::uint32_t> running_jobs(
    const cluster::Cluster& cluster) {
  std::unordered_set<std::uint32_t> seen;
  std::vector<std::uint32_t> ids;
  for (const std::uint32_t id : cluster.running_job_column()) {
    if (id != NodeId::kInvalid && seen.insert(id).second) ids.push_back(id);
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

constexpr double kProbeSeconds = 0.1;
constexpr std::size_t kMaxProbeJobs = 2000;
constexpr MiB kProbeStep = 1024;

}  // namespace

SnapshotProbe probe_snapshot(const std::string& path,
                             const Scenario& scenario) {
  SnapshotProbe out;
  std::vector<double> open_ms;
  std::shared_ptr<const snapshot::Image> image;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    image = snapshot::Image::open(path);
    open_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.open_ms = util::quantile(open_ms, 0.5);
  out.bytes = image->size_bytes();
  // The base-configuration fingerprint, computed once as a serve loop does;
  // materialize_trusted refuses an image taken under another configuration.
  out.fingerprint = snapshot::config_fingerprint(
      cluster::Cluster(scenario.system.to_cluster_config()), scenario.sched,
      scenario.jobs);
  const std::uint64_t fp = out.fingerprint;
  std::vector<double> fork_ms;
  for (int i = 0; i < 5; ++i) {
    TimedRig fresh = build_rig(scenario);
    const auto t0 = Clock::now();
    image->materialize_trusted(fresh.rig->components(), fp);
    fork_ms.push_back(seconds_since(t0) * 1e3);
  }
  out.fork_ms = util::quantile(fork_ms, 0.5);
  out.image = std::move(image);
  return out;
}

ProbeResult run_probes(const Scenario& scenario, const snapshot::Image& image,
                       std::uint64_t fingerprint) {
  ProbeResult out;
  // The capture sink wires the observer through every component; it stays
  // detached (observer.sink == nullptr) except for the captured hour.
  CaptureSink capture;
  Rig rig(scenario, &capture, nullptr);
  rig.observer.sink = nullptr;
  rig.engine.set_observer(&rig.observer);
  rig.scheduler->submit_workload(scenario.jobs);
  image.materialize_trusted(rig.components(), fingerprint);
  cluster::Cluster& cluster = rig.cluster;

  std::unordered_map<std::uint32_t, std::size_t> spec_of;
  for (std::size_t i = 0; i < scenario.jobs.size(); ++i) {
    spec_of.emplace(scenario.jobs[i].id.get(), i);
  }

  // Serialization: one simulated hour of the workload's own event stream,
  // captured live and replayed through an NDJSON sink into a discarding
  // stream.
  rig.observer.sink = &capture;
  rig.engine.set_observer(&rig.observer);
  (void)rig.scheduler->run_ready(rig.engine.now() + 3600.0);
  rig.observer.sink = nullptr;
  rig.engine.set_observer(&rig.observer);
  if (!capture.events.empty()) {
    DiscardBuf buf;
    std::ostream null_out(&buf);
    obs::NdjsonSink ndjson(null_out);
    const double per_pass = time_loop(kProbeSeconds, [&] {
      for (const obs::Event& e : capture.events) ndjson.emit(e);
    });
    out.sink_ns_per_emit =
        per_pass * 1e9 / static_cast<double>(capture.events.size());
  }
  std::vector<std::uint32_t> sample = running_jobs(cluster);
  if (sample.empty()) {
    Report::note("probe: no running jobs at the probe point");
    return out;
  }
  if (sample.size() > kMaxProbeJobs) sample.resize(kMaxProbeJobs);

  // Policy: grow-then-shrink resize_to_demand round trip on every slot of
  // the sampled running jobs.
  std::vector<std::pair<JobId, NodeId>> slots;
  for (const std::uint32_t id : sample) {
    for (const NodeId host : cluster.hosts_of(JobId{id})) {
      slots.emplace_back(JobId{id}, host);
    }
  }
  if (!slots.empty()) {
    const double per_pass = time_loop(kProbeSeconds, [&] {
      for (const auto& [job, host] : slots) {
        const MiB demand = cluster.slot(job, host).total();
        (void)policy::resize_to_demand(cluster, job, host, demand + kProbeStep);
        (void)policy::resize_to_demand(cluster, job, host, demand);
      }
    });
    out.resize_ns = per_pass * 1e9 / static_cast<double>(slots.size());
  }
  cluster.clear_contention_dirty();

  // Slowdown: incremental refresh after one borrow-edge change.
  const std::vector<std::uint32_t> live = running_jobs(cluster);
  const slowdown::ContentionModel model(&scenario.apps);
  slowdown::IncrementalSlowdowns inc(&model);
  const std::function<int(JobId)> app_of = [&](JobId id) {
    const auto it = spec_of.find(id.get());
    return it == spec_of.end() ? -1 : scenario.jobs[it->second].app_profile;
  };
  std::vector<slowdown::IncrementalSlowdowns::Update> updates;
  inc.refresh(cluster, live, app_of, updates);
  cluster.clear_contention_dirty();
  JobId victim{};
  NodeId victim_host{};
  for (const std::uint32_t id : live) {
    const NodeId host = cluster.hosts_of(JobId{id})[0];
    if (cluster.grow_remote(JobId{id}, host, kProbeStep) == kProbeStep) {
      (void)cluster.shrink_remote(JobId{id}, host, kProbeStep);
      victim = JobId{id};
      victim_host = host;
      break;
    }
  }
  cluster.clear_contention_dirty();
  if (victim.valid()) {
    out.refresh_us = 1e6 * time_loop(kProbeSeconds, [&] {
      (void)cluster.grow_remote(victim, victim_host, kProbeStep);
      (void)cluster.shrink_remote(victim, victim_host, kProbeStep);
      updates.clear();
      inc.refresh(cluster, live, app_of, updates);
      cluster.clear_contention_dirty();
    });
  }
  if (!victim.valid()) {
    Report::note("probe: no slot could borrow remote memory");
  }

  // Monitor: the workload's monitor kind, four consecutive window updates
  // per sampled running job from its current progress.
  std::unordered_map<std::uint32_t, std::size_t> record_of;
  const auto& records = rig.scheduler->records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    record_of.emplace(records[i].id.get(), i);
  }
  const Seconds now = rig.engine.now();
  const Seconds interval = scenario.sched.update_interval;
  std::size_t per_pass = 0;
  const double monitor_s = time_loop(kProbeSeconds, [&] {
    const auto mon = monitor::make_monitor(scenario.sched.monitor);
    per_pass = 0;
    for (const std::uint32_t id : sample) {
      const auto spec_it = spec_of.find(id);
      const auto rec_it = record_of.find(id);
      if (spec_it == spec_of.end() || rec_it == record_of.end()) continue;
      const trace::JobSpec& spec = scenario.jobs[spec_it->second];
      const double duration = std::max(spec.duration, 1.0);
      const double start = records[rec_it->second].last_start;
      double progress = std::clamp((now - start) / duration, 0.0, 0.95);
      for (int k = 0; k < 4; ++k) {
        const monitor::Reading r =
            mon->update(JobId{id}, spec, progress, 1.0, interval, false);
        progress = std::min(progress + r.next_interval / duration, 0.999);
        ++per_pass;
      }
    }
  });
  if (per_pass > 0) {
    out.monitor_update_ns = monitor_s * 1e9 / static_cast<double>(per_pass);
  }
  return out;
}

}  // namespace perfbench
