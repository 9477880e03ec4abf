// MemoryMonitor: the abstraction between a job's ground-truth usage trace
// and the demand estimate the scheduler's Decider acts on (paper §2.2/2.3).
//
// Today's simulator reads the exact future maximum straight from the trace
// every update interval — a perfect, free, always-fresh monitor. That is one
// point in a three-dimensional design space (interval × accuracy × overhead)
// the paper leaves unexplored: how cheap and how stale can monitoring get
// before dynamic provisioning stops paying?
//
// Three implementations span the space:
//
//   * OracleMonitor — the identity default. Exact window maximum, fixed
//     period, zero overhead. A run configured with the oracle is
//     byte-identical to a run built before this subsystem existed (pinned
//     by tests/harness/monitor_golden_test).
//   * SampledMonitor — fixed-period estimates with configurable relative
//     error (deterministic pseudo-noise) and staleness lag (the estimate
//     describes the window as it looked `staleness` seconds ago).
//   * AdaptiveMonitor — DAMON-style region-based tracking: each job's usage
//     timeline is covered by regions that split when the estimate misses the
//     truth by more than an error bound and merge back when adjacent regions
//     agree; the sampling period adapts between a min and max interval, and
//     every update charges a per-region overhead that is folded into the
//     job's slowdown, so monitoring cost is a modeled quantity, not free.
//
// Estimation error is not merely cosmetic: a non-oracle monitor that
// under-provisions a window makes the job touch memory it was never
// allocated — a *runtime* OOM, detected at the next update by comparing the
// elapsed window's true maximum against what was provisioned
// (models_runtime_oom()). The oracle is exempt: its window estimates are
// exact by construction, and exempting it keeps the identity rule airtight.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "trace/job_spec.hpp"
#include "util/units.hpp"

namespace dmsim::snapshot {
class Writer;
class Reader;
}  // namespace dmsim::snapshot

namespace dmsim::monitor {

enum class MonitorKind : std::uint8_t {
  Oracle = 0,
  Sampled = 1,
  Adaptive = 2,
};

[[nodiscard]] const char* to_string(MonitorKind kind) noexcept;

struct MonitorConfig {
  MonitorKind kind = MonitorKind::Oracle;

  // --- Sampled ------------------------------------------------------------
  /// Relative estimation error: each estimate is scaled by a deterministic
  /// pseudo-random factor in [1 - relative_error, 1 + relative_error].
  double relative_error = 0.1;
  /// Staleness lag: the estimate describes the usage window as it looked
  /// this many simulated seconds in the past.
  Seconds staleness = 0.0;

  // --- Adaptive -----------------------------------------------------------
  Seconds min_interval = 60.0;   ///< fastest adaptive sampling period
  Seconds max_interval = 600.0;  ///< slowest adaptive sampling period
  /// Relative error bound: estimates missing the truth by more than this
  /// split the covering regions and halve the period; agreement merges
  /// regions and stretches the period.
  double error_bound = 0.1;
  /// Modeled cost of touching one region during one update, in microseconds.
  /// Folded into the job's slowdown as a fraction of the sampling period.
  double overhead_us_per_region = 10.0;

  /// Seed for the Sampled monitor's deterministic pseudo-noise.
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;

  friend bool operator==(const MonitorConfig&, const MonitorConfig&) = default;
};

/// One Monitor reading for one job: the demand estimate for the coming
/// window, the monitor-chosen time until the next update, and the modeled
/// cost of producing it.
struct Reading {
  MiB demand = 0;               ///< estimated per-node demand for the window
  Seconds next_interval = 0.0;  ///< time until the next update
  double overhead_factor = 1.0; ///< multiplies the job's slowdown (>= 1)
  MiB abs_error = 0;            ///< |estimate - ground truth| over the window
  std::int64_t overhead_us = 0; ///< modeled monitoring cost of this update
  int regions = 0;              ///< live regions for this job (adaptive only)
};

/// Demand look-ahead window end in progress space: where the job will be
/// after `lookahead` seconds at its current effective rate. Guarded against
/// degenerate inputs — zero-duration specs, non-positive look-aheads and
/// overflowing divisions all yield 1.0 (the window covers the rest of the
/// job, the conservative answer) so UsageTrace::max_in never sees an
/// inverted or NaN window.
[[nodiscard]] double demand_window_end(double progress, Seconds lookahead,
                                       Seconds duration,
                                       double slowdown) noexcept;

class MemoryMonitor {
 public:
  virtual ~MemoryMonitor() = default;

  [[nodiscard]] virtual MonitorKind kind() const noexcept = 0;

  /// Whether estimation error can make a job touch unallocated memory: the
  /// scheduler then checks each elapsed window's true maximum against the
  /// provisioned amount and treats an excess as an out-of-memory event.
  /// False for the oracle (its window estimates are exact by construction).
  [[nodiscard]] virtual bool models_runtime_oom() const noexcept {
    return false;
  }

  /// Produce the demand estimate for the window starting at `progress` and
  /// the time until the next update. `base_interval` is the scheduler's
  /// configured update period; when `interval_locked` (GlobalBatch mode,
  /// where a single timer updates every job) the returned next_interval is
  /// pinned to it and only the estimate adapts.
  [[nodiscard]] virtual Reading update(JobId id, const trace::JobSpec& spec,
                                       double progress, double slowdown,
                                       Seconds base_interval,
                                       bool interval_locked) = 0;

  /// Demand to provision for the zeroth window [job start, first update),
  /// which the staggered update schedule can stretch to 1.5x the update
  /// interval. Returns 0 when the monitor has no opinion (the request-sized
  /// initial allocation stands); the oracle returns the true window maximum
  /// so the uncovered tail of the first window is provisioned like every
  /// later one.
  [[nodiscard]] virtual MiB plan_initial(JobId id, const trace::JobSpec& spec,
                                         double progress, double slowdown,
                                         Seconds first_gap);

  /// Drop per-job state (job completed, was killed, or requeued).
  virtual void on_job_stop(JobId id);

  /// Serialize / restore per-job monitor state (regions, periods, noise
  /// counters). Stateless monitors write nothing.
  virtual void save_state(snapshot::Writer& writer) const;
  virtual void restore_state(snapshot::Reader& reader);
};

/// Perfect monitor: exact window maximum, fixed period, zero overhead.
class OracleMonitor final : public MemoryMonitor {
 public:
  [[nodiscard]] MonitorKind kind() const noexcept override {
    return MonitorKind::Oracle;
  }
  [[nodiscard]] Reading update(JobId id, const trace::JobSpec& spec,
                               double progress, double slowdown,
                               Seconds base_interval,
                               bool interval_locked) override;
  [[nodiscard]] MiB plan_initial(JobId id, const trace::JobSpec& spec,
                                 double progress, double slowdown,
                                 Seconds first_gap) override;
};

/// Fixed-period monitor with deterministic noise and staleness lag.
class SampledMonitor final : public MemoryMonitor {
 public:
  explicit SampledMonitor(MonitorConfig config) : config_(config) {}

  [[nodiscard]] MonitorKind kind() const noexcept override {
    return MonitorKind::Sampled;
  }
  [[nodiscard]] bool models_runtime_oom() const noexcept override {
    return true;
  }
  [[nodiscard]] Reading update(JobId id, const trace::JobSpec& spec,
                               double progress, double slowdown,
                               Seconds base_interval,
                               bool interval_locked) override;
  void on_job_stop(JobId id) override;
  void save_state(snapshot::Writer& writer) const override;
  void restore_state(snapshot::Reader& reader) override;

 private:
  MonitorConfig config_;
  /// Per-job update counter driving the noise sequence.
  std::map<std::uint32_t, std::uint64_t> counters_;
};

/// DAMON-style region-based adaptive monitor.
class AdaptiveMonitor final : public MemoryMonitor {
 public:
  explicit AdaptiveMonitor(MonitorConfig config);

  [[nodiscard]] MonitorKind kind() const noexcept override {
    return MonitorKind::Adaptive;
  }
  [[nodiscard]] bool models_runtime_oom() const noexcept override {
    return true;
  }
  [[nodiscard]] Reading update(JobId id, const trace::JobSpec& spec,
                               double progress, double slowdown,
                               Seconds base_interval,
                               bool interval_locked) override;
  void on_job_stop(JobId id) override;
  void save_state(snapshot::Writer& writer) const override;
  void restore_state(snapshot::Reader& reader) override;

  /// Live region count for a job (testing hook); 0 if the job is unknown.
  [[nodiscard]] std::size_t region_count(JobId id) const noexcept;

 private:
  /// One monitoring region over the progress axis. `est` is the usage the
  /// monitor believes the region has — the value of its last probe.
  struct Region {
    double from = 0.0;
    double to = 1.0;
    MiB est = 0;
  };
  struct JobState {
    std::vector<Region> regions;
    Seconds interval = 0.0;  ///< current sampling period
    std::uint32_t agreements = 0;  ///< consecutive in-bound updates
  };

  JobState& state_of(JobId id, Seconds base_interval);

  MonitorConfig config_;
  std::map<std::uint32_t, JobState> jobs_;
};

/// Maximum regions the adaptive monitor keeps per job (split stops there).
inline constexpr std::size_t kMaxRegionsPerJob = 64;

[[nodiscard]] std::unique_ptr<MemoryMonitor> make_monitor(
    const MonitorConfig& config);

}  // namespace dmsim::monitor
