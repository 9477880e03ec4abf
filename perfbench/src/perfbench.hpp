// dmsim benchmark: shared pieces of the three workloads.
//
// Everything here drives the library through its public API, the way the
// tools and the harness do, and times layers only from outside:
//   * Rig mirrors harness::run_cell's component wiring so the benchmark can
//     split set-up from the simulation loop and put decorators in place;
//   * TimingHandler sits in front of the sched::Scheduler (installed with
//     Engine::set_handler after construction, dispatching through the
//     EventHandler base where on_event is public);
//   * TimingSink wraps the real trace sink; CaptureSink records events for
//     the serialization probe;
//   * Report collects the metrics and the correctness tally that main()
//     prints as the final JSON line.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.hpp"
#include "harness/scenario.hpp"
#include "obs/counters.hpp"
#include "obs/observer.hpp"
#include "obs/trace_sink.hpp"
#include "policy/policy.hpp"
#include "sched/scheduler.hpp"
#include "sim/engine.hpp"
#include "sim/event_payload.hpp"
#include "slowdown/model.hpp"
#include "snapshot/checkpoint.hpp"
#include "snapshot/image.hpp"
#include "trace/job_spec.hpp"

namespace perfbench {

using namespace dmsim;
using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string workdir;  ///< scratch directory for snapshot files
  std::string identity_file;  ///< committed identities (may be empty)
  /// Print this workload and seed's identity line and exit, untimed.
  bool print_identity = false;
};

/// Metrics plus the correctness tally. Every checked operation (one
/// simulation run, one serve reply) is attempted; a mismatch, an error
/// reply or an infeasible run is failed.
class Report {
 public:
  void metric(std::string name, double value, std::string unit);
  /// Count one operation; a false `ok` fails it and logs `what`.
  void check(bool ok, const std::string& what);
  /// Count `attempted` operations of which `failed` failed (logged as
  /// `what` when any did).
  void count(std::uint64_t attempted, std::uint64_t failed,
             const std::string& what);
  /// Log an informational line (stderr).
  static void note(const std::string& line);

  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

[[nodiscard]] double peak_rss_mib();
[[nodiscard]] std::string hex64(std::uint64_t value);

/// The committed simulated results of a workload and seed (identity.txt):
/// the model is unvalidated against hardware, so the benchmark checks its
/// outputs for identity with the recorded ones, not for accuracy. Seeds
/// without a record are checked for self-consistency only.
[[nodiscard]] std::string expected_identity(const Options& options);
/// Count one operation: `actual` must equal the recorded identity, when
/// there is one.
void check_identity(const Options& options, const std::string& actual,
                    Report& report);

/// Discards everything written to it, keeping a running hash so two runs'
/// trace streams can be compared without disk I/O.
class DiscardBuf final : public std::streambuf {
 public:
  [[nodiscard]] std::uint64_t hash() const noexcept { return hash_; }

 protected:
  int_type overflow(int_type c) override;
  std::streamsize xsputn(const char* s, std::streamsize n) override;

 private:
  void mix(const char* s, std::size_t n) noexcept;
  std::uint64_t hash_ = 0x9e3779b97f4a7c15ull;
};

/// Spreads single-threaded timed work evenly over the CPUs this process may
/// run on. On a shared host the vCPUs can differ in effective speed by a
/// third or more (cores and caches shared with other tenants), and the OS
/// keeps a thread on whichever CPU it started on, so a pinned-by-accident
/// run measures one draw of that lottery. Rotating makes each figure an
/// average over the CPUs. Only the calling thread is pinned; release()
/// before creating threads, which inherit the mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation() { release(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin the calling thread to the next CPU in turn.
  void advance();
  /// Advance when 20 ms passed since the last move.
  void tick();
  /// Restore the thread's original CPU mask.
  void release();
  /// CPUs in the rotation.
  [[nodiscard]] std::size_t size() const noexcept { return cpus_.size(); }

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool pinned_ = false;
  Clock::time_point last_ = Clock::now();
};

/// Everything a run needs: the system, policy, scheduler config and the
/// generated workload.
struct Scenario {
  harness::SystemConfig system;
  policy::PolicyKind policy = policy::PolicyKind::Dynamic;
  sched::SchedulerConfig sched;
  trace::Workload jobs;
  slowdown::AppPool apps;

  [[nodiscard]] Seconds last_submit() const;
};

/// One simulation's components, wired exactly as harness::run_cell wires
/// them. `sink` and `counters` are optional and caller-owned.
struct Rig {
  Rig(const Scenario& scenario, obs::TraceSink* sink, obs::Counters* counters);

  cluster::Cluster cluster;
  std::unique_ptr<policy::AllocationPolicy> policy;
  sim::Engine engine;
  obs::Observer observer;
  std::unique_ptr<sched::Scheduler> scheduler;

  [[nodiscard]] snapshot::Components components() noexcept {
    return {&engine, &cluster, scheduler.get(), observer.counters};
  }
  /// The CellResult run_cell would build for this (drained) run.
  [[nodiscard]] harness::CellResult result() const;
};

/// Time set-up the way every workload reports it: construction plus
/// submit_workload (generation is timed by the caller).
struct TimedRig {
  std::unique_ptr<Rig> rig;
  double build_s = 0.0;   ///< component construction
  double submit_s = 0.0;  ///< Scheduler::submit_workload
};
[[nodiscard]] TimedRig build_rig(const Scenario& scenario,
                                 obs::TraceSink* sink = nullptr,
                                 obs::Counters* counters = nullptr);

[[nodiscard]] std::string cell_digest(const harness::CellResult& result);

/// Drive a rig to `until` (+inf: to the end, then finalize) in simulated
/// steps of `step`, rotating CPUs as it goes. Appends the host time of each
/// step to `step_ms` when given.
void drive(Rig& rig, Seconds until, Seconds step, CpuRotation& cpus,
           std::vector<double>* step_ms = nullptr);

// ---------------------------------------------------------------- layers

/// Shared between the handler and sink decorators: which event type the
/// handler is currently inside, so sink time nests under the right layer.
struct LayerClock {
  static constexpr std::size_t kTypes =
      static_cast<std::size_t>(sim::EventType::TraceSample) + 1;
  int current = -1;
  std::array<std::uint64_t, kTypes> calls{};
  std::array<std::int64_t, kTypes> handler_ns{};  ///< inclusive
  std::array<std::int64_t, kTypes> sink_in_ns{};  ///< sink time inside
  std::uint64_t emits = 0;
  std::int64_t sink_ns = 0;  ///< all sink time, inside or outside handlers

  [[nodiscard]] std::int64_t self_ns(sim::EventType t) const {
    const auto i = static_cast<std::size_t>(t);
    return handler_ns[i] - sink_in_ns[i];
  }
  [[nodiscard]] std::uint64_t calls_of(sim::EventType t) const {
    return calls[static_cast<std::size_t>(t)];
  }
  [[nodiscard]] std::int64_t handler_total_ns() const;
  [[nodiscard]] std::int64_t sink_in_total_ns() const;
};

class TimingHandler final : public sim::EventHandler {
 public:
  TimingHandler(sim::EventHandler& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}
  void on_event(const sim::EventPayload& event) override;

 private:
  sim::EventHandler* inner_;
  LayerClock* clock_;
};

class TimingSink final : public obs::TraceSink {
 public:
  TimingSink(obs::TraceSink& inner, LayerClock& clock)
      : inner_(&inner), clock_(&clock) {}
  void emit(const obs::Event& event) override;
  void close() override { inner_->close(); }

 private:
  obs::TraceSink* inner_;
  LayerClock* clock_;
};

/// Records events for the serialization probe.
class CaptureSink final : public obs::TraceSink {
 public:
  void emit(const obs::Event& event) override { events.push_back(event); }
  void close() override {}
  std::vector<obs::Event> events;
};

[[nodiscard]] std::uint64_t counter_value(
    const std::vector<obs::CountersSnapshot::Counter>& counters,
    std::string_view name);
/// Sum of every recorded value of a time series (0 when absent).
[[nodiscard]] std::int64_t series_sum(const obs::Counters& counters,
                                      std::string_view name);

/// Per-layer metrics of one instrumented loop (sim, sched, metrics, obs).
struct LayerRun {
  LayerClock clock;
  double loop_s = 0.0;        ///< instrumented loop wall time
  double untimed_loop_s = 0.0;  ///< same work without decorators
  std::uint64_t events = 0;
  std::vector<obs::CountersSnapshot::Counter> counters;  ///< at the end
  sched::SchedulerTotals totals;
  std::int64_t edge_churn = 0;  ///< ledger borrow edges added plus removed
};
void report_layers(const LayerRun& run, Report& report);

// ---------------------------------------------------------------- probes

/// Snapshot-layer probe on an existing snapshot file: time Image::open and
/// materialize_trusted into fresh components. The opened image is kept for
/// the other probes.
struct SnapshotProbe {
  double open_ms = 0.0;
  double fork_ms = 0.0;
  std::uint64_t bytes = 0;
  std::uint64_t fingerprint = 0;  ///< of the scenario's base configuration
  std::shared_ptr<const snapshot::Image> image;
};
[[nodiscard]] SnapshotProbe probe_snapshot(const std::string& path,
                                           const Scenario& scenario);

/// Timed probes of single layers on a fork of a workload's midpoint image:
/// trace serialization (one captured simulated hour replayed through an
/// NDJSON sink), the policy resize round trip, the incremental slowdown
/// refresh and the workload's monitor update.
struct ProbeResult {
  double resize_ns = 0.0;
  double refresh_us = 0.0;
  double monitor_update_ns = 0.0;
  double sink_ns_per_emit = 0.0;
};
[[nodiscard]] ProbeResult run_probes(const Scenario& scenario,
                                     const snapshot::Image& image,
                                     std::uint64_t fingerprint);

/// Report the probes, the ledger counts (`ledger` counters and the edge
/// churn), and the set-up split.
void report_probes(const ProbeResult& probes, const SnapshotProbe& snap,
                   const std::vector<obs::CountersSnapshot::Counter>& ledger,
                   std::int64_t edge_churn, double gen_s, double submit_s,
                   Report& report);

// ---------------------------------------------------------------- serve

/// Serve-layer numbers shared by the serve workload and the short serve
/// probe the simulation workloads run in their layer-timing pass.
struct ServeLayer {
  /// Median latency of info, baseline, submit, policy and topology.
  std::array<double, 5> op_p50_ms{};
  double p99_ms = 0.0;  ///< over all replies, measured from due time
  double parse_us = 0.0;
  double cache_hit_share = 0.0;
  double gen_late_ms = 0.0;
};
void report_serve_layer(const ServeLayer& layer, Report& report);

/// Run a what-if server over `scenario` with the given snapshot cuts and
/// drive it open-loop at `rate` queries/s, every query template a few times
/// over. Replies are checked against serial handle_line goldens. Used by
/// the simulation workloads' layer pass.
[[nodiscard]] ServeLayer serve_probe(const Scenario& scenario,
                                     const std::vector<std::string>& cuts,
                                     std::uint64_t seed, double rate,
                                     Report& report);

// ---------------------------------------------------------------- workloads

void run_sim_workload(const Options& options, Report& report);
void run_serve_workload(const Options& options, Report& report);
/// The identity of a workload and seed: a digest of its simulated results.
[[nodiscard]] std::string sim_identity(const Options& options);
[[nodiscard]] std::string serve_identity(const Options& options);

}  // namespace perfbench
