// The two simulation workloads: exa-40k and synth-1k-ndjson.
//
// exa-40k is one exa-Grizzly week at 40,000 nodes (the scale-curve point):
// Dynamic policy, flat pool, oracle monitor, staggered updates, no trace
// sink. The ledger is large, so the MonitorUpdate path (policy resize,
// ledger and index upkeep, slowdown refresh) does most of the work.
//
// synth-1k-ndjson is the paper's 1024-node synthetic system under CIRNE
// arrivals at load 0.95 with the adaptive monitor, the two-tier CXL
// topology of examples/cluster.conf and Checkpoint/Restart, writing the
// NDJSON event trace into a discarding stream. The ledger is small; the
// scheduling pass, the adaptive monitor, tier migration, the OOM/requeue
// path and trace serialization dominate.
//
// End-to-end pass (--trace 0): repeated untimed runs, each a fresh set-up
// (generation, construction, submit_workload) and a run driven in
// simulated steps while jobs still arrive, then to completion.
// Layer pass (--trace 1): one untimed run, one instrumented run, a
// midpoint rig for the count-repeat check and the probes, and a short
// serve probe on a late cut of the same run.
#include <algorithm>
#include <filesystem>
#include <limits>
#include <ostream>
#include <sstream>

#include "harness/config_file.hpp"
#include "metrics/metrics.hpp"
#include "perfbench.hpp"
#include "util/stats.hpp"
#include "workload/exa_grizzly.hpp"
#include "workload/generator.hpp"

namespace perfbench {
namespace {

constexpr int kExaNodes = 40'000;
constexpr std::size_t kSynthJobs = 8000;
/// Latency unit of a simulation workload: one simulated step, a fixed share
/// of the workload's arrival window (about five simulated minutes on
/// exa-40k). Tying the step to the window rather than to a fixed length
/// keeps the work per step, and so the step latency, from following the
/// seed's arrival window.
constexpr double kSteps = 2000.0;
constexpr int kMinSetups = 5;
/// Late cut for the serve probe, as a fraction of the run's last event
/// time: forks from there simulate only the tail, so queries stay cheap
/// even at 40k nodes.
constexpr double kLateCut = 0.9;
constexpr Seconds kForever = std::numeric_limits<Seconds>::infinity();

[[nodiscard]] bool is_exa(const std::string& workload) {
  return workload == "exa-40k";
}

/// Repetitions per run, at least. Three let the per-step median reject a
/// noise spike in one repetition; a fixed minimum also keeps that
/// estimator the same from run to run whatever the host's speed. exa-40k
/// takes two: a third 15-second repetition would add half again to every
/// run.
[[nodiscard]] int min_reps(const std::string& workload) {
  return is_exa(workload) ? 2 : 3;
}

[[nodiscard]] Scenario make_exa(std::uint64_t seed) {
  workload::ExaGrizzlyConfig config;
  config.target_nodes = kExaNodes;
  config.base.seed = seed;
  workload::ExaGrizzlyScale scale = workload::exa_grizzly(config);
  Scenario sc;
  sc.system.total_nodes = kExaNodes;
  sc.system.pct_large_nodes =
      static_cast<double>(scale.large_nodes) / static_cast<double>(kExaNodes);
  sc.system.normal_capacity = gib(64);
  sc.system.large_capacity = gib(128);
  sc.system.cores_per_node = 36;  // Grizzly: 2x18-core Xeon E5-2695v4
  sc.policy = policy::PolicyKind::Dynamic;
  sc.sched.sample_interval = 600.0;
  sc.jobs = std::move(scale.week_jobs);
  sc.apps = std::move(scale.apps);
  return sc;
}

[[nodiscard]] Scenario make_synth(std::uint64_t seed) {
  // The same keys dmsim_run --config reads; tiers from examples/cluster.conf.
  std::ostringstream conf;
  conf << "Nodes = 1024\n"
          "MemoryTiers = local:150:90:0.6:local, rack-cxl:450:64:0.4:rack\n"
          "AllocationPolicy = dynamic\n"
          "UpdateInterval = 5min\n"
          "Monitor = adaptive:60:600:0.1:10\n"
          "OomHandling = checkpoint_restart\n"
          "SampleInterval = 10min\n"
       << "Jobs = " << kSynthJobs << "\n"
       << "TargetLoad = 0.95\n"
          "PctLargeJobs = 0.5\n"
          "Overestimation = 0.5\n"
          "MaxJobNodes = 128\n"
       << "Seed = " << seed << "\n";
  std::istringstream in(conf.str());
  const harness::FileConfig fc = harness::parse_config(in);
  workload::SyntheticWorkload w = workload::generate_synthetic(fc.workload);
  Scenario sc;
  sc.system = fc.simulation.system;
  sc.policy = fc.simulation.policy;
  sc.sched = fc.simulation.sched;
  sc.jobs = std::move(w.jobs);
  sc.apps = std::move(w.apps);
  return sc;
}

[[nodiscard]] Scenario generate(const std::string& workload,
                                std::uint64_t seed, double* gen_s) {
  const auto t0 = Clock::now();
  Scenario sc = is_exa(workload) ? make_exa(seed) : make_synth(seed);
  *gen_s = seconds_since(t0);
  return sc;
}

/// Simulated statistics of a finished run, checked for identity (the model
/// is unvalidated against hardware, so there is no accuracy to check).
void check_run(const harness::CellResult& r, const Scenario& sc,
               const std::string& label, Report& report) {
  std::ostringstream os;
  os << label << ": simulated makespan " << r.summary.makespan()
     << " s (simulated time), completed " << r.summary.completed << "/"
     << sc.jobs.size() << ", oom events " << r.summary.oom_events
     << ", engine events " << r.engine_events;
  Report::note(os.str());
  bool ok = r.valid && r.summary.completed == sc.jobs.size();
  // The oracle monitor provisions exact window maxima: it never OOMs.
  if (sc.sched.monitor.kind == monitor::MonitorKind::Oracle) {
    ok = ok && r.summary.oom_events == 0;
  }
  report.check(ok, label + " is valid and completes every job");
}

/// The simulated results of a run: the digest of its CellResult JSON and
/// the hash of its NDJSON trace bytes.
[[nodiscard]] std::string identity_of(const harness::CellResult& result,
                                      const DiscardBuf& trace) {
  return cell_digest(result) + "-" + hex64(trace.hash());
}

struct Rep {
  double setup_s = 0.0;
  double loop_s = 0.0;
  std::uint64_t events = 0;
  std::vector<double> step_ms;  ///< host time of every simulated step
  std::string identity;
};

/// One end-to-end repetition: set-up, then the run in simulated steps while
/// jobs arrive and to completion after.
[[nodiscard]] Rep run_rep(const Options& opt, CpuRotation& cpus,
                          Report& report) {
  Rep rep;
  cpus.advance();
  double gen_s = 0.0;
  const Scenario sc = generate(opt.workload, opt.seed, &gen_s);
  DiscardBuf buf;
  std::ostream trace_out(&buf);
  obs::NdjsonSink ndjson(trace_out);
  const bool tracing = !is_exa(opt.workload);
  TimedRig tr = build_rig(sc, tracing ? &ndjson : nullptr);
  rep.setup_s = gen_s + tr.build_s + tr.submit_s;
  Rig& rig = *tr.rig;

  const Seconds window = sc.last_submit();
  const auto start = Clock::now();
  drive(rig, kForever, window / kSteps, cpus, &rep.step_ms);
  rep.loop_s = seconds_since(start);
  if (tracing) ndjson.close();

  const harness::CellResult r = rig.result();
  rep.events = r.engine_events;
  rep.identity = identity_of(r, buf);
  check_run(r, sc, opt.workload + " run " + rep.identity, report);
  return rep;
}

void end_to_end(const Options& opt, Report& report) {
  CpuRotation cpus;
  std::vector<Rep> reps;
  std::vector<double> setups;
  const auto start = Clock::now();
  while (static_cast<int>(reps.size()) < min_reps(opt.workload) ||
         seconds_since(start) < opt.seconds) {
    reps.push_back(run_rep(opt, cpus, report));
    setups.push_back(reps.back().setup_s);
  }
  for (const Rep& rep : reps) {
    report.check(rep.identity == reps.front().identity,
                 "repetitions agree on the result digest and trace bytes");
  }
  check_identity(opt, reps.front().identity, report);
  // Set-up alone, to a steady median.
  while (static_cast<int>(setups.size()) < kMinSetups) {
    cpus.advance();
    double gen_s = 0.0;
    const Scenario sc = generate(opt.workload, opt.seed, &gen_s);
    const TimedRig tr = build_rig(sc);
    setups.push_back(gen_s + tr.build_s + tr.submit_s);
  }

  // Every repetition runs the same steps (same seed, same simulated
  // times), so each step's host time is taken as its median over the
  // repetitions: a burst of host noise in one repetition drops out. The
  // run time and the step quantiles are built from those medians.
  const std::size_t n_steps = reps.front().step_ms.size();
  std::vector<double> step_ms(n_steps);
  for (std::size_t i = 0; i < n_steps; ++i) {
    std::vector<double> across;
    for (const Rep& rep : reps) {
      if (i < rep.step_ms.size()) across.push_back(rep.step_ms[i]);
    }
    step_ms[i] = util::quantile(across, 0.5);
  }
  const std::size_t window_steps =
      std::min(n_steps, static_cast<std::size_t>(kSteps));
  const std::vector<double> window(step_ms.begin(),
                                   step_ms.begin() + window_steps);
  double total_ms = 0.0;
  for (const double ms : step_ms) total_ms += ms;
  double window_ms = 0.0;
  for (const double ms : window) window_ms += ms;
  const double wall_s = total_ms * 1e-3;

  std::ostringstream loops;
  for (const Rep& rep : reps) loops << ' ' << rep.loop_s;
  Report::note("loop seconds per repetition:" + loops.str() +
               "; composed from step medians: " + std::to_string(wall_s));
  Report::note("repetitions: " + std::to_string(reps.size()) + ", steps: " +
               std::to_string(n_steps) + ", set-ups: " +
               std::to_string(setups.size()));
  report.metric("events_per_s",
                static_cast<double>(reps.front().events) / wall_s, "1/s");
  report.metric("sim_wall_s", wall_s, "s");
  report.metric("setup_s", util::quantile(setups, 0.5), "s");
  report.metric("peak_rss_mib", peak_rss_mib(), "MiB");
  report.metric("p50_ms", util::Ecdf(window).quantile(0.5), "ms");
  report.metric("ops_per_s",
                static_cast<double>(window_steps) / (window_ms * 1e-3), "1/s");
}

void layers(const Options& opt, Report& report) {
  CpuRotation cpus;
  // Set-up, split by layer.
  std::vector<double> gen_s;
  std::vector<double> submit_s;
  Scenario sc;
  for (int i = 0; i < 3; ++i) {
    cpus.advance();
    double g = 0.0;
    sc = generate(opt.workload, opt.seed, &g);
    const TimedRig tr = build_rig(sc);
    gen_s.push_back(g);
    submit_s.push_back(tr.submit_s);
  }
  const bool tracing = !is_exa(opt.workload);
  const Seconds mid = sc.last_submit() / 2.0;
  const Seconds step = sc.last_submit() / kSteps;

  // Untimed reference run.
  LayerRun run;
  harness::CellResult untimed;
  std::string untimed_identity;
  {
    DiscardBuf buf;
    std::ostream trace_out(&buf);
    obs::NdjsonSink ndjson(trace_out);
    TimedRig tr = build_rig(sc, tracing ? &ndjson : nullptr);
    const auto t0 = Clock::now();
    drive(*tr.rig, mid, step, cpus);
    drive(*tr.rig, kForever, step, cpus);
    run.untimed_loop_s = seconds_since(t0);
    if (tracing) ndjson.close();
    untimed = tr.rig->result();
    untimed_identity = identity_of(untimed, buf);
    check_run(untimed, sc, opt.workload + " untimed run", report);
    check_identity(opt, untimed_identity, report);
  }

  // Instrumented run: handler and sink decorators plus a counters registry.
  std::vector<obs::CountersSnapshot::Counter> layer_mid;
  {
    DiscardBuf buf;
    std::ostream trace_out(&buf);
    obs::NdjsonSink ndjson(trace_out);
    TimingSink timed_sink(ndjson, run.clock);
    obs::Counters counters;
    TimedRig tr = build_rig(sc, tracing ? &timed_sink : nullptr, &counters);
    Rig& rig = *tr.rig;
    TimingHandler handler(*rig.scheduler, run.clock);
    rig.engine.set_handler(&handler);
    const auto t0 = Clock::now();
    drive(rig, mid, step, cpus);
    run.loop_s = seconds_since(t0);
    layer_mid = counters.snapshot().counters;
    const auto t1 = Clock::now();
    drive(rig, kForever, step, cpus);
    run.loop_s += seconds_since(t1);
    if (tracing) ndjson.close();
    const harness::CellResult r = rig.result();
    run.events = r.engine_events;
    run.counters = counters.snapshot().counters;
    run.totals = r.totals;
    report.check(identity_of(r, buf) == untimed_identity,
                 "instrumented run reproduces the untimed digest and trace");
  }
  Report::note("loop: untimed " + std::to_string(run.untimed_loop_s) +
               " s, instrumented " + std::to_string(run.loop_s) + " s");

  // Midpoint rig: the count-repeat check, the invariant audits, the
  // snapshot and ledger probes, and a late cut for the serve probe.
  cpus.release();  // the serve probe below starts threads
  obs::Counters counters;
  TimedRig tr = build_rig(sc, nullptr, &counters);
  Rig& rig = *tr.rig;
  (void)rig.scheduler->run_ready(mid);
  const auto mid_counts = counters.snapshot().counters;
  const std::int64_t edge_churn = series_sum(counters, "ledger.edge_churn");
  bool same = mid_counts.size() == layer_mid.size();
  for (std::size_t i = 0; same && i < mid_counts.size(); ++i) {
    same = mid_counts[i].name == layer_mid[i].name &&
           mid_counts[i].value == layer_mid[i].value;
  }
  report.check(same && !mid_counts.empty(),
               "per-layer counts repeat exactly between runs of the seed");
  rig.cluster.check_invariants();
  report.check(rig.scheduler->slowdowns_fresh(),
               "midpoint slowdowns are fresh");

  std::filesystem::create_directories(opt.workdir);
  const std::string mid_path = opt.workdir + "/mid.snap";
  snapshot::save_file(mid_path, rig.components());
  const SnapshotProbe snap = probe_snapshot(mid_path, sc);
  const ProbeResult probes =
      run_probes(sc, *snap.image, snap.fingerprint);

  const Seconds late = kLateCut * untimed.summary.last_end;
  (void)rig.scheduler->run_ready(late);
  const std::string late_path = opt.workdir + "/late.snap";
  snapshot::save_file(late_path, rig.components());
  const ServeLayer serve =
      serve_probe(sc, {late_path}, opt.seed, is_exa(opt.workload) ? 5.0 : 40.0,
                  report);

  report_layers(run, report);
  report_probes(probes, snap, mid_counts, edge_churn,
                util::quantile(gen_s, 0.5), util::quantile(submit_s, 0.5),
                report);
  report_serve_layer(serve, report);
}

}  // namespace

std::string sim_identity(const Options& opt) {
  CpuRotation cpus;
  double gen_s = 0.0;
  const Scenario sc = generate(opt.workload, opt.seed, &gen_s);
  DiscardBuf buf;
  std::ostream trace_out(&buf);
  obs::NdjsonSink ndjson(trace_out);
  const bool tracing = !is_exa(opt.workload);
  TimedRig tr = build_rig(sc, tracing ? &ndjson : nullptr);
  drive(*tr.rig, kForever, sc.last_submit() / kSteps, cpus);
  if (tracing) ndjson.close();
  return identity_of(tr.rig->result(), buf);
}

void run_sim_workload(const Options& options, Report& report) {
  if (options.trace) {
    layers(options, report);
  } else {
    end_to_end(options, report);
  }
}

}  // namespace perfbench
